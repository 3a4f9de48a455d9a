"""Dataset ingestion, seeded synthetic generators, and the simulation harness.

Generators are pure functions of (spec, seed, run index): every stream they
consume is derived from those values alone, so repeated calls are identical
and runs can execute in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DuplicateId,
    LabelError,
    MissingLabel,
    ParseError,
    SdsvmError,
    read_text,
    write_text,
)
from .kernels import KernelSpec, kernel_cross
from .outlyingness import DirectionPolicy
from .pipeline import CvConfig, fit_sdsvm
from .rng import Stream, derive_key
from .svm import decision_values, sign_labels


@dataclass(frozen=True)
class Dataset:
    """Samples x with aligned -1/+1 labels, sample ids and provenance.

    x is an (n, d) float64 array (stored read-only, without a copy), a tuple
    of strings (spectrum kernel), or a tuple of precomputed-kernel keys.
    ids default to 1..n.
    """

    x: object
    labels: np.ndarray
    ids: tuple | None = None
    provenance: str = ""

    def __post_init__(self):
        if isinstance(self.x, np.ndarray):
            x = np.ascontiguousarray(self.x, dtype=np.float64).view()
            if x.ndim != 2:
                raise ValueError(f"sample array must be 2-D, got shape {x.shape}")
            x.flags.writeable = False
        else:
            x = tuple(self.x)
        labels = np.asarray(self.labels, dtype=np.float64).ravel().copy()
        if len(x) != labels.shape[0]:
            raise ValueError(f"{len(x)} samples vs {labels.shape[0]} labels")
        if labels.size and not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        ids = tuple(range(1, len(x) + 1)) if self.ids is None else tuple(self.ids)
        if len(ids) != len(x):
            raise ValueError(f"{len(ids)} ids vs {len(x)} samples")
        labels.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "ids", ids)

    def __len__(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class SimulationSpec:
    """Constants of the two-Gaussian benchmark."""

    n_per_group: int = 25
    dim: int = 1000
    shift: float = 0.18
    outliers_per_group: int = 0
    outlier_mean_minus: float = 3.0  # appended to the negative group
    outlier_mean_plus: float = -3.0  # appended to the positive group
    test_size: int = 600
    runs: int = 50
    kappas: tuple = (0.5, 0.7, 0.9, 1.0)
    seed: int = 0

    def __post_init__(self):
        if self.n_per_group < 1 or self.dim < 1 or self.test_size < 2 or self.runs < 1:
            raise ValueError("simulation counts must be positive (test size >= 2)")
        if self.outliers_per_group < 0:
            raise ValueError("outliers_per_group must be >= 0")
        kappas = tuple(float(k) for k in self.kappas)
        if not kappas or any(not 0.5 <= k <= 1.0 for k in kappas):
            raise ValueError("kappa grid must be a nonempty subset of [0.5, 1]")
        object.__setattr__(self, "kappas", kappas)


def _normal_rows(seed, run_index, stream_name, count, dim):
    stream = Stream(derive_key(seed, "sim", run_index, stream_name))
    return stream.normals(count * dim).reshape(count, dim)


def gen_simulation(spec: SimulationSpec, run_index: int):
    """(train, test) datasets for one run.

    Negative group ~ N(0, I), positive group ~ N(shift, I); the contaminated
    variant appends outliers_per_group samples at mean outlier_mean_minus
    labeled -1 and as many at outlier_mean_plus labeled +1.  The test set is
    clean, split evenly between groups.
    """
    n, d = spec.n_per_group, spec.dim
    blocks = [
        _normal_rows(spec.seed, run_index, "train-minus", n, d),
        _normal_rows(spec.seed, run_index, "train-plus", n, d) + spec.shift,
    ]
    labels = [-np.ones(n), np.ones(n)]
    if spec.outliers_per_group:
        m = spec.outliers_per_group
        blocks.append(
            _normal_rows(spec.seed, run_index, "outliers-minus", m, d) + spec.outlier_mean_minus
        )
        labels.append(-np.ones(m))
        blocks.append(
            _normal_rows(spec.seed, run_index, "outliers-plus", m, d) + spec.outlier_mean_plus
        )
        labels.append(np.ones(m))
    train = Dataset(
        x=np.vstack(blocks),
        labels=np.concatenate(labels),
        provenance=f"simulation(seed={spec.seed},run={run_index})/train",
    )
    n_test_minus = spec.test_size // 2
    n_test_plus = spec.test_size - n_test_minus
    test = Dataset(
        x=np.vstack(
            [
                _normal_rows(spec.seed, run_index, "test-minus", n_test_minus, d),
                _normal_rows(spec.seed, run_index, "test-plus", n_test_plus, d) + spec.shift,
            ]
        ),
        labels=np.concatenate([-np.ones(n_test_minus), np.ones(n_test_plus)]),
        provenance=f"simulation(seed={spec.seed},run={run_index})/test",
    )
    return train, test


# Jitter spread of the toy outlier clusters ("around" a position).
TOY_JITTER_VARIANCE = 0.1


def gen_toy(seed: int = 0) -> Dataset:
    """The 66-sample two-dimensional illustration dataset.

    Ids 1-30: N((0,0), I) labeled -1.  Ids 31-60: N((1.5,1.5), I) labeled +1.
    Ids 61-63: +1 around (5,7); ids 64-65: +1 around (5,-5), both jittered by
    N(0, 0.1 I).  Id 66: exactly (0,0), labeled +1.
    """
    jitter = math.sqrt(TOY_JITTER_VARIANCE)

    def rows(name, count, center, scale=1.0):
        stream = Stream(derive_key(seed, "toy", name))
        return stream.normals(count * 2).reshape(count, 2) * scale + np.asarray(center)

    x = np.vstack(
        [
            rows("minus", 30, (0.0, 0.0)),
            rows("plus", 30, (1.5, 1.5)),
            rows("far", 3, (5.0, 7.0), jitter),
            rows("low", 2, (5.0, -5.0), jitter),
            np.array([[0.0, 0.0]]),
        ]
    )
    return Dataset(
        x=x,
        labels=np.concatenate([-np.ones(30), np.ones(36)]),
        provenance=f"toy(seed={seed})",
    )


@dataclass(frozen=True)
class RunRow:
    """Test misclassification fraction of one (run, kappa) cell."""

    run: int
    kappa: float
    error: float  # nan marks a failed run
    failure: str | None = None


@dataclass(frozen=True)
class SummaryRow:
    kappa: float
    median: float
    q1: float
    q3: float


@dataclass(frozen=True)
class SimulationResult:
    rows: tuple
    summary: tuple


def _evaluate_run(spec, kernel, cv, policy, run, tol):
    train, test = gen_simulation(spec, run)
    rows = []
    cross = None
    for kappa in spec.kappas:
        try:
            fit = fit_sdsvm(train, kernel, kappa=kappa, cv=cv, policy=policy, tol=tol)
            if cross is None:
                cross = kernel_cross(kernel, train.x, test.x)
            retained = np.array(fit.plan.retained, dtype=np.intp)
            f_vals = decision_values(fit.model, cross[retained])
            error = float(np.mean(sign_labels(f_vals) != test.labels))
            rows.append(RunRow(run=run, kappa=kappa, error=error))
        except SdsvmError as exc:
            rows.append(
                RunRow(run=run, kappa=kappa, error=math.nan, failure=type(exc).__name__)
            )
    return rows


def run_simulation(
    spec: SimulationSpec,
    kernel: KernelSpec | None = None,
    cv: CvConfig | None = None,
    policy: DirectionPolicy | None = None,
    tol: float = 1e-3,
) -> SimulationResult:
    """Fit every (run, kappa) cell and summarize test error per kappa.

    Failures inside a run are recorded as nan rows instead of aborting the
    sweep.  Each run's data comes from its own (seed, run)-derived streams.
    """
    kernel = kernel or KernelSpec(kind="linear")
    cv = cv or CvConfig()
    rows = tuple(
        row for run in range(spec.runs) for row in _evaluate_run(spec, kernel, cv, policy, run, tol)
    )
    summary = []
    for kappa in spec.kappas:
        errs = np.array([r.error for r in rows if r.kappa == kappa and not math.isnan(r.error)])
        if errs.size == 0:
            summary.append(SummaryRow(kappa=kappa, median=math.nan, q1=math.nan, q3=math.nan))
            continue
        summary.append(
            SummaryRow(
                kappa=kappa,
                median=float(np.median(errs)),
                q1=float(np.percentile(errs, 25)),
                q3=float(np.percentile(errs, 75)),
            )
        )
    return SimulationResult(rows=rows, summary=tuple(summary))


def simulation_rows_csv(result: SimulationResult) -> str:
    lines = ["run,kappa,error"]
    for r in result.rows:
        lines.append(f"{r.run},{r.kappa!r},{r.error!r}")
    return "\n".join(lines) + "\n"


def simulation_summary_csv(result: SimulationResult) -> str:
    lines = ["kappa,median,q1,q3"]
    for s in result.summary:
        lines.append(f"{s.kappa!r},{s.median!r},{s.q1!r},{s.q3!r}")
    return "\n".join(lines) + "\n"


def load_csv(path, label_col="last", coding=None) -> Dataset:
    """Rectangular numeric CSV (no header) with one label column.

    label_col is "first", "last", or a 0-based column index.  Labels must be
    +-1 unless a two-value coding (neg_token, pos_token) maps them; feature
    cells must be finite numbers.
    """
    rows = []
    labels = []
    width = None
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        if not raw.strip():
            continue
        cells = [c.strip() for c in raw.split(",")]
        if width is None:
            width = len(cells)
            if width < 2:
                raise ParseError("need at least one feature column and one label column", line=lineno)
            if label_col == "last":
                col = width - 1
            elif label_col == "first":
                col = 0
            else:
                col = int(label_col)
            if not 0 <= col < width:
                raise ParseError(f"label column {col} outside row of width {width}", line=lineno)
        elif len(cells) != width:
            raise ParseError(f"ragged row: {len(cells)} cells, expected {width}", line=lineno)
        token = cells[col]
        if coding is not None:
            neg, pos = coding
            if token == str(neg):
                label = -1.0
            elif token == str(pos):
                label = 1.0
            else:
                raise LabelError(f"label {token!r} not in coding {coding!r}", line=lineno)
        else:
            try:
                label = float(token)
            except ValueError:
                raise LabelError(f"label {token!r} is not numeric", line=lineno) from None
            if label not in (-1.0, 1.0):
                raise LabelError(f"label {token!r} is not -1 or +1", line=lineno)
        try:
            row = [float(c) for c in cells[:col] + cells[col + 1 :]]
        except ValueError as exc:
            raise ParseError(f"non-numeric cell: {exc}", line=lineno) from None
        if not all(map(math.isfinite, row)):
            raise ParseError("non-finite cell (nan or inf)", line=lineno)
        rows.append(row)
        labels.append(label)
    if not rows:
        raise ParseError("no data rows", line=1)
    return Dataset(x=np.array(rows), labels=np.array(labels), provenance=str(path))


def save_csv(dataset: Dataset, destination) -> None:
    """Write the rows of x plus a trailing label column (load_csv inverse)."""
    if not isinstance(dataset.x, np.ndarray):
        raise SdsvmError("save_csv requires a vector dataset")
    lines = []
    for row, label in zip(dataset.x, dataset.labels):
        cells = [repr(float(v)) for v in row] + [str(int(label))]
        lines.append(",".join(cells))
    write_text(destination, "\n".join(lines) + "\n")


def load_fasta(path, labels_path) -> Dataset:
    """FASTA records plus a two-column whitespace-separated labels file.

    Multi-line sequences are concatenated.  Every record id must appear in
    the labels file exactly once with a +-1 label.
    """
    records = []  # (id, sequence) in file order
    seen = set()
    current_id = None
    chunks = []
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            if current_id is not None:
                records.append((current_id, "".join(chunks)))
            header = line[1:].strip()
            if not header:
                raise ParseError("empty FASTA header", line=lineno)
            current_id = header.split()[0]
            if current_id in seen:
                raise DuplicateId(current_id)
            seen.add(current_id)
            chunks = []
        else:
            if current_id is None:
                raise ParseError("sequence data before any FASTA header", line=lineno)
            chunks.append(line)
    if current_id is not None:
        records.append((current_id, "".join(chunks)))
    if not records:
        raise ParseError("no FASTA records", line=1)

    label_of = {}
    for lineno, raw in enumerate(read_text(labels_path).splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'id label', got {line!r}", line=lineno)
        rid, token = parts
        if rid in label_of:
            raise DuplicateId(rid)
        try:
            value = float(token)
        except ValueError:
            raise LabelError(f"label {token!r} is not numeric", line=lineno) from None
        if value not in (-1.0, 1.0):
            raise LabelError(f"label {token!r} is not -1 or +1", line=lineno)
        label_of[rid] = value
    ids, sequences = zip(*records)
    for rid in ids:
        if rid not in label_of:
            raise MissingLabel(rid)
    labels = np.array([label_of[rid] for rid in ids])
    return Dataset(x=sequences, labels=labels, ids=ids, provenance=str(path))
