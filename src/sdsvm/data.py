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
    PipelineError,
    SdsvmError,
    read_text,
)
from .kernels import KernelSpec, _frozen, kernel_cross
from .outlyingness import DirectionPolicy
from .pipeline import CvConfig, check_kappa, fit_ranked, rank
from .rng import Stream, check_integer, check_labels, check_real, check_reals, check_seed, derive_key
from .svm import decision_values, sign_labels


@dataclass(frozen=True)
class Dataset:
    """Samples x with aligned -1/+1 labels and sample ids.

    x is an (n, d) float64 array (stored read-only, without a copy), or a
    tuple of strings (spectrum kernel).  For the precomputed kernel the
    array is the n x n Gram matrix itself.  ids default to 1..n.
    """

    x: object
    labels: np.ndarray
    ids: tuple | None = None

    def __post_init__(self):
        if isinstance(self.x, np.ndarray):
            x = np.ascontiguousarray(self.x, dtype=np.float64).view()
            if x.ndim != 2:
                raise ValueError(f"sample array must be 2-D, got shape {x.shape}")
            x.flags.writeable = False
        else:
            x = tuple(self.x)
        labels = _frozen(self.labels).ravel()
        if len(x) != labels.shape[0]:
            raise ValueError(f"{len(x)} samples vs {labels.shape[0]} labels")
        check_labels("labels", labels)
        ids = tuple(range(1, len(x) + 1)) if self.ids is None else tuple(self.ids)
        if len(ids) != len(x):
            raise ValueError(f"{len(ids)} ids vs {len(x)} samples")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "ids", ids)

    def __len__(self) -> int:
        return len(self.x)


# The paper's planted-outlier means: each group's outliers lie far out on the
# other group's side.
OUTLIER_MEAN_MINUS = 3.0  # appended to the negative group
OUTLIER_MEAN_PLUS = -3.0  # appended to the positive group


@dataclass(frozen=True)
class SimulationSpec:
    """Constants of the two-Gaussian benchmark."""

    n_per_group: int = 25
    dim: int = 1000
    shift: float = 0.18
    outliers_per_group: int = 0
    test_size: int = 600
    runs: int = 50
    kappas: tuple = (0.5, 0.7, 0.9, 1.0)
    seed: int = 0

    def __post_init__(self):
        sizes = {"n_per_group": 1, "dim": 1, "test_size": 2, "runs": 1, "outliers_per_group": 0}
        for name, least in sizes.items():
            object.__setattr__(self, name, check_integer(name, getattr(self, name), least))
        object.__setattr__(self, "shift", check_real("shift", self.shift))
        object.__setattr__(self, "kappas", tuple(map(check_kappa, check_reals("kappas", self.kappas))))
        object.__setattr__(self, "seed", check_seed(self.seed))


def _normal_rows(x, groups):
    """Fill x's rows in place, group after group, and return x.

    A group is (stream key, row count, scale, center): its rows are the
    key's stream of normals, row by row, times scale, plus center unless
    center is None.
    """
    start = 0
    for key, count, scale, center in groups:
        rows = x[start : start + count]
        Stream(key).normals(rows.size, out=rows)
        if scale != 1.0:
            rows *= scale
        if center is not None:
            rows += center
        start += count
    return x


def _simulation_set(spec, run_index, groups):
    """The Dataset of (stream name, row count, label, mean) groups, in order."""
    names, counts, labels, means = zip(*groups)
    x = np.empty((sum(counts), spec.dim))
    keys = [derive_key(spec.seed, "sim", run_index, name) for name in names]
    _normal_rows(x, zip(keys, counts, [1.0] * len(counts), means))
    return Dataset(x=x, labels=np.repeat(labels, counts))


def gen_simulation(spec: SimulationSpec, run_index: int):
    """(train, test) datasets for one run.

    Negative group ~ N(0, I), positive group ~ N(shift, I); the contaminated
    variant appends outliers_per_group samples at mean OUTLIER_MEAN_MINUS
    labeled -1 and as many at OUTLIER_MEAN_PLUS labeled +1.  The test set is
    clean, split evenly between groups.  Each group's rows come from the
    stream derive_key(seed, "sim", run_index, name), named as below.
    """
    n, m = spec.n_per_group, spec.outliers_per_group
    train = [("train-minus", n, -1.0, None), ("train-plus", n, 1.0, spec.shift)]
    if m:
        train += [
            ("outliers-minus", m, -1.0, OUTLIER_MEAN_MINUS),
            ("outliers-plus", m, 1.0, OUTLIER_MEAN_PLUS),
        ]
    n_test_minus = spec.test_size // 2
    test = [
        ("test-minus", n_test_minus, -1.0, None),
        ("test-plus", spec.test_size - n_test_minus, 1.0, spec.shift),
    ]
    return _simulation_set(spec, run_index, train), _simulation_set(spec, run_index, test)


# Jitter spread of the toy outlier clusters ("around" a position).
TOY_JITTER_VARIANCE = 0.1


def gen_toy(seed: int = 0) -> Dataset:
    """The 66-sample two-dimensional illustration dataset.

    Ids 1-30: N((0,0), I) labeled -1.  Ids 31-60: N((1.5,1.5), I) labeled +1.
    Ids 61-63: +1 around (5,7); ids 64-65: +1 around (5,-5), both jittered by
    N(0, 0.1 I).  Id 66: exactly (0,0), labeled +1.
    """
    jitter = math.sqrt(TOY_JITTER_VARIANCE)
    groups = [
        ("minus", 30, 1.0, (0.0, 0.0)),
        ("plus", 30, 1.0, (1.5, 1.5)),
        ("far", 3, jitter, (5.0, 7.0)),
        ("low", 2, jitter, (5.0, -5.0)),
    ]
    x = np.zeros((66, 2))  # id 66 stays at (0, 0)
    _normal_rows(x, [(derive_key(seed, "toy", name), *rest) for name, *rest in groups])
    return Dataset(x=x, labels=np.concatenate([-np.ones(30), np.ones(36)]))


@dataclass(frozen=True)
class RunRow:
    """Test misclassification fraction of one (run, kappa) cell."""

    run: int
    kappa: float
    error: float  # nan marks a failed run
    failure: str | None = None  # class of the error that failed it, unwrapped from its stage


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


def _evaluate_run(spec, kernel, cv, policy, run):
    train, test = gen_simulation(spec, run)
    rows = []
    ranking = cross = None
    for kappa in spec.kappas:
        try:
            # The ranking does not depend on kappa; a failed one is retried
            # on the next kappa and fails the same way.
            if ranking is None:
                ranking = rank(train, kernel, policy)
            fit = fit_ranked(ranking, kappa, cv)
            if cross is None:
                cross = kernel_cross(kernel, train.x, test.x)
            f_vals = decision_values(fit.model, cross[fit.plan.retained])
            error = float(np.mean(sign_labels(f_vals) != test.labels))
            rows.append(RunRow(run=run, kappa=kappa, error=error))
        except SdsvmError as exc:
            cause = exc.cause if isinstance(exc, PipelineError) else exc
            rows.append(
                RunRow(run=run, kappa=kappa, error=math.nan, failure=type(cause).__name__)
            )
    return rows


def run_simulation(
    spec: SimulationSpec,
    kernel: KernelSpec = KernelSpec(),
    cv: CvConfig = CvConfig(),
    policy: DirectionPolicy = DirectionPolicy(),
) -> SimulationResult:
    """Fit every (run, kappa) cell and summarize test error per kappa.

    Each run's train set is ranked once and then fitted at every kappa.

    Failures inside a run are recorded as nan rows instead of aborting the
    sweep.  Each run's data comes from its own (seed, run)-derived streams.
    """
    rows = tuple(r for run in range(spec.runs) for r in _evaluate_run(spec, kernel, cv, policy, run))
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

    label_col is "first", "last", or a 0-based column index (an integer).
    Labels must be +-1 unless a two-value coding (neg_token, pos_token) maps
    them; feature cells must be finite numbers.  Cells are read as float()
    reads them.  A bad file raises for its first bad line in file order.
    """
    rows = []
    labels = []
    width = None
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        if not raw.strip():
            continue
        cells = raw.split(",")
        if width is None:
            width = len(cells)
            if width < 2:
                raise ParseError("need at least one feature column and one label column", line=lineno)
            col = _label_index(label_col, width)
            if not 0 <= col < width:
                raise ParseError(f"label column {col} outside row of width {width}", line=lineno)
        elif len(cells) != width:
            raise ParseError(f"ragged row: {len(cells)} cells, expected {width}", line=lineno)
        labels.append(_label(cells.pop(col).strip(), coding, lineno))
        try:
            row = list(map(float, cells))
        except ValueError:
            try:  # float() strips a cell itself; the message quotes the stripped token
                row = [float(c.strip()) for c in cells]
            except ValueError as exc:
                raise ParseError(f"non-numeric cell: {exc}", line=lineno) from None
        if not all(map(math.isfinite, row)):
            raise ParseError("non-finite cell (nan or inf)", line=lineno)
        rows.append(row)
    if not rows:
        raise ParseError("no data rows", line=1)
    return Dataset(x=np.array(rows), labels=np.array(labels))


def _label_index(label_col, width: int) -> int:
    if label_col == "last":
        return width - 1
    if label_col == "first":
        return 0
    return check_integer("label_col", label_col)


def _label(token: str, coding, lineno: int) -> float:
    """The -1/+1 label of a stripped token: its coding's, or the number it reads as."""
    if coding is not None:
        neg, pos = coding
        if token == str(neg):
            return -1.0
        if token == str(pos):
            return 1.0
        raise LabelError(f"label {token!r} not in coding {coding!r}", line=lineno)
    try:
        label = float(token)
    except ValueError:
        raise LabelError(f"label {token!r} is not numeric", line=lineno) from None
    if label not in (-1.0, 1.0):
        raise LabelError(f"label {token!r} is not -1 or +1", line=lineno)
    return label


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
        label_of[rid] = _label(token, None, lineno)
    ids, sequences = zip(*records)
    for rid in ids:
        if rid not in label_of:
            raise MissingLabel(rid)
    labels = np.array([label_of[rid] for rid in ids])
    return Dataset(x=sequences, labels=labels, ids=ids)
