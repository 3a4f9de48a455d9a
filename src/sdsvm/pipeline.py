"""Trimmed-SVM training pipeline.

Fitting proceeds in stages.  rank builds the kernel matrix and the per-group
outlyingness on each group's own kernel submatrix; neither depends on kappa.
fit_ranked then retains the floor(kappa * group size) least outlying samples
per group, optionally cross-validates the box constraint C, solves the dual
on the retained union, and finally scores every sample (trimmed ones
included, since the outlier map plots them all).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionError,
    GroupEmptyAfterTrim,
    PipelineError,
    SerializationError,
    SingleClassError,
    TooFewSamples,
    run_stage,
)
from .kernels import KernelMatrix, KernelSpec, _frozen, kernel_matrix
from .outlyingness import DirectionPolicy, OutlyingnessReport, outlyingness
from .rng import Stream, check_integer, check_labels, check_real, check_reals, check_seed, derive_key
from .svm import SvmModel, decision_values, sign_labels, solve_dual

# Default C grid when optimization is requested without an explicit grid:
# 11 log-spaced points 2^-5, 2^-3, ..., 2^15.
DEFAULT_C_GRID = tuple(2.0**p for p in range(-5, 16, 2))

# Default fixed box constraint when no cross-validation is requested.
DEFAULT_C = 0.1


def check_kappa(kappa) -> float:
    """kappa, the retained fraction per group, as a float.  Raise ValueError
    unless it is a real number (see check_real) in [0.5, 1]."""
    value = check_real("kappa", kappa)
    if not 0.5 <= value <= 1.0:
        raise ValueError(f"kappa must be in [0.5, 1], got {kappa}")
    return value


def _floor_count(kappa: float, n: int) -> int:
    # The 1e-9 nudge absorbs float noise in decimal kappa * n products
    # (e.g. 0.7 * 30) without changing any mathematically exact case.
    return int(math.floor(kappa * n + 1e-9))


@dataclass(frozen=True)
class TrimPlan:
    """The trim of a labeled dataset: keep the h = floor(kappa * n) least
    outlying samples of each group.

    reports are the (minus, plus) OutlyingnessReports and labels the -1/+1
    label array of the whole dataset.  outlyingness (each sample's value
    within its own group) and the boolean trimmed mask are derived, aligned
    with the dataset.  Ties at the cut are broken by ascending original
    index; +inf outlyingness always sorts last, so such samples are trimmed
    first.  A kappa outside [0.5, 1] or a label other than -1 or +1 is a
    ValueError, reports of other sizes than the groups a DimensionError, and
    a group that keeps no sample GroupEmptyAfterTrim.
    """

    kappa: float
    reports: tuple
    labels: np.ndarray
    outlyingness: np.ndarray = field(init=False)
    trimmed: np.ndarray = field(init=False)

    def __post_init__(self):
        kappa = check_kappa(self.kappa)
        labels = check_labels("sample labels", _frozen(self.labels))
        reports = tuple(self.reports)
        groups = (np.flatnonzero(labels < 0), np.flatnonzero(labels > 0))
        covered, sizes = [report.k for report in reports], [group.size for group in groups]
        if covered != sizes:
            raise DimensionError(f"reports cover {covered} samples but groups have {sizes}")
        h = [_floor_count(kappa, size) for size in sizes]
        if 0 in h:
            raise GroupEmptyAfterTrim(f"h-={h[0]}, h+={h[1]} after flooring kappa={kappa}")

        r_full = np.zeros(labels.shape)
        trimmed = np.ones(labels.shape, dtype=bool)
        for group, report, h_group in zip(groups, reports, h):
            r_full[group] = report.r
            trimmed[group[np.lexsort((group, report.r))[:h_group]]] = False
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "reports", reports)
        object.__setattr__(self, "outlyingness", _frozen(r_full))
        object.__setattr__(self, "trimmed", _frozen(trimmed, bool))

    @property
    def retained(self) -> np.ndarray:
        """Ascending dataset indices of the samples kept."""
        return np.flatnonzero(~self.trimmed)


@dataclass(frozen=True)
class CvConfig:
    """Cross-validation setup for choosing C."""

    folds: int = 10
    grid: tuple = (DEFAULT_C,)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "folds", check_integer("folds", self.folds, 2))
        object.__setattr__(self, "grid", check_reals("grid", self.grid, positive=True))
        object.__setattr__(self, "seed", check_seed(self.seed))


@dataclass(frozen=True)
class CvSelection:
    """The choice of C: the mean CV error per grid point and the folds used.

    c is the C of least error, ties to the smallest C.  A fixed C is the
    one-row table ((C, nan),) with 0 folds; any other table needs >= 2
    folds and a finite error.  Every C must be a positive and finite real
    number and every error nan or in [0, 1] (see check_real); a ValueError
    otherwise.
    """

    table: tuple  # ((C, mean_error), ...) in grid order; error nan if skipped
    folds_used: int
    c: float = field(init=False)

    def __post_init__(self):
        folds = check_integer("folds_used", self.folds_used)
        try:
            table = tuple((check_real("C", c, True), check_real("error", err, nan=True)) for c, err in self.table)
        except (TypeError, ValueError):  # not pairs of a C > 0 and an error: no choice of C
            table = ()
        scored = [(err, c) for c, err in table if not math.isnan(err)]
        fixed = folds == 0 and len(table) == 1 and not scored
        if not (all(0 <= err <= 1 for err, _ in scored) and (fixed or folds >= 2 and scored)):
            raise ValueError(f"folds_used {folds} over the table {self.table} is no choice of C")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "folds_used", folds)
        object.__setattr__(self, "c", table[0][0] if fixed else min(scored)[1])


@dataclass(frozen=True)
class FitResult:
    """Everything the outlier map and downstream reporting need.

    ids and decision_values are aligned with the dataset, as are the plan's
    labels and columns; labels and reports are read from the plan.  The
    model holds the plan's retained samples and labels, in order, has a
    kernel spec and C = cv.c.  Every sample is one the outlier map can
    draw: its label is -1 or +1 (the plan's rule), its outlyingness
    nonnegative (the reports' rule) and not nan (+inf is kept) and its f
    finite.  A ValueError otherwise.
    """

    model: SvmModel
    plan: TrimPlan
    cv: CvSelection
    decision_values: np.ndarray
    ids: tuple

    def __post_init__(self):
        object.__setattr__(self, "decision_values", _frozen(self.decision_values))
        object.__setattr__(self, "ids", tuple(self.ids))
        n = len(self.ids)
        if self.decision_values.shape != (n,) or self.labels.shape != (n,):
            raise ValueError(
                f"{n} ids vs decision values and labels of shapes "
                f"{self.decision_values.shape} and {self.labels.shape}"
            )
        if not (self.plan.outlyingness >= 0.0).all():
            raise ValueError("sample outlyingness must be nonnegative and not nan")
        if not np.isfinite(self.decision_values).all():
            raise ValueError("sample decision values must be finite")
        if self.model.c != self.cv.c:
            raise ValueError(f"model has C={self.model.c!r} but the C choice is {self.cv.c!r}")
        if self.model.spec is None:
            raise ValueError("model has no kernel spec attached")
        retained = self.plan.retained
        if not np.array_equal(self.model.labels, self.labels[retained]):
            raise ValueError(
                f"model's {self.model.n_retained} labels are not those of the plan's "
                f"{retained.size} retained samples"
            )

    @property
    def labels(self) -> np.ndarray:
        return self.plan.labels

    @property
    def reports(self) -> tuple:
        return self.plan.reports

    @property
    def n(self) -> int:
        return len(self.ids)


def _fold_assignment(labels: np.ndarray, folds: int, seed: int):
    """fold id per position, each class dealt round-robin after a seeded shuffle."""
    stream = Stream(derive_key(seed, "cv-folds"))
    assignment = np.zeros(labels.shape[0], dtype=np.intp)
    for members in (np.flatnonzero(labels < 0).tolist(), np.flatnonzero(labels > 0).tolist()):
        for t, pos in enumerate(stream.shuffled(members)):
            assignment[pos] = t % folds
    return assignment


def select_C(omega_t: KernelMatrix, labels_t, cv: CvConfig) -> CvSelection:
    """Mean CV misclassification per grid point, as the CvSelection it picks.

    labels_t is the -1/+1 label array of the retained set.

    Folds are stratified by class from the seed and clamped down to the
    smaller class size when necessary.  Each fold solves the grid in
    ascending C, every solve starting from the last converged solution of
    that fold (alpha seeding).  Grid points whose folds fail to converge are
    recorded as nan and skipped; if every point fails the ConvergenceError
    propagates.

    A fold stops solving once its model at C_t is settled (SvmModel.settled):
    every larger C of that fold gets C_t's error rate, exactly.
    """
    y = np.asarray(labels_t, dtype=np.float64)
    n_minus = int(np.count_nonzero(y < 0))
    n_plus = int(np.count_nonzero(y > 0))
    if n_minus == 0 or n_plus == 0:
        raise SingleClassError("cross-validation needs both classes in the retained set")
    folds = min(cv.folds, n_minus, n_plus)
    if folds < 2:
        raise SingleClassError(
            f"smallest class has {min(n_minus, n_plus)} samples; cannot form 2 folds"
        )
    assignment = _fold_assignment(y, folds, cv.seed)
    entries = omega_t.entries
    ascending = sorted(range(len(cv.grid)), key=lambda t: cv.grid[t])

    rates = [[] for _ in cv.grid]
    failures = {}
    for f in range(folds):
        test_mask = assignment == f
        train_idx = np.flatnonzero(~test_mask)
        test_idx = np.flatnonzero(test_mask)
        omega_f, y_train, y_test = omega_t.take(train_idx), y[train_idx], y[test_idx]
        cross = entries[np.ix_(train_idx, test_idx)]
        start = fixed_rate = None
        for t in ascending:
            if t in failures:
                continue
            if fixed_rate is not None:
                rates[t].append(fixed_rate)
                continue
            try:
                model = solve_dual(omega_f, y_train, cv.grid[t], start=start)
            except ConvergenceError as exc:
                failures[t] = exc
                continue
            start = model.alpha
            wrong = np.count_nonzero(sign_labels(decision_values(model, cross)) != y_test)
            rates[t].append(wrong / y_test.shape[0])
            if model.settled:
                fixed_rate = rates[t][-1]

    if len(failures) == len(cv.grid):
        last = failures[len(cv.grid) - 1]
        raise ConvergenceError(f"every C in the grid failed to converge (last: {last})", last.max_violation)
    errors = [math.nan if t in failures else np.mean(rates[t]) for t in range(len(cv.grid))]
    return CvSelection(tuple(zip(cv.grid, errors)), folds)


@dataclass(frozen=True)
class Ranking:
    """The kappa-independent part of a fit: the kernel matrix of the dataset
    and the (minus, plus) outlyingness reports of its two groups."""

    dataset: object
    spec: KernelSpec
    omega: KernelMatrix
    reports: tuple


def rank(dataset, spec: KernelSpec, policy: DirectionPolicy = DirectionPolicy()) -> Ranking:
    """Kernel matrix and per-group outlyingness (stages validate, kernel, outlyingness).

    The default auto policy resolves per group: exhaustive pairs up to 100
    samples, else 2000 pairs sampled from the policy's seed.
    """
    labels = np.asarray(dataset.labels, dtype=np.float64)
    minus_idx = np.flatnonzero(labels < 0)
    plus_idx = np.flatnonzero(labels > 0)
    if minus_idx.size < 3 or plus_idx.size < 3:
        raise PipelineError(
            "validate",
            TooFewSamples(
                f"each group needs >= 3 samples for outlyingness, got "
                f"n-={minus_idx.size} n+={plus_idx.size}"
            ),
        )

    omega = run_stage("kernel", kernel_matrix, spec, dataset.x)
    reports = run_stage(
        "outlyingness",
        lambda: tuple(outlyingness(omega.take(group), policy) for group in (minus_idx, plus_idx)),
    )
    return Ranking(dataset=dataset, spec=spec, omega=omega, reports=reports)


def fit_ranked(
    ranking: Ranking,
    kappa: float = 0.5,
    cv: CvConfig = CvConfig(),
) -> FitResult:
    """Trim, select C, train and score every sample on a ranked dataset.

    With a single-point C grid (the default {0.1}) the fold evaluation is
    skipped and the value used directly.
    """
    dataset, omega = ranking.dataset, ranking.omega
    plan = run_stage("trim", TrimPlan, kappa, ranking.reports, dataset.labels)

    retained = plan.retained
    labels_t = plan.labels[retained]
    omega_t = omega.take(retained)

    if len(cv.grid) == 1:
        selection = CvSelection(((cv.grid[0], math.nan),), folds_used=0)
    else:
        selection = run_stage("select-c", select_C, omega_t, labels_t, cv)
    model = run_stage("train", solve_dual, omega_t, labels_t, selection.c, spec=ranking.spec)
    del omega_t  # freed before the n_retained x n decision block is gathered

    return FitResult(
        model=model,
        plan=plan,
        cv=selection,
        decision_values=decision_values(model, omega.entries[retained]),
        ids=dataset.ids,
    )


def fit_sdsvm(
    dataset,
    spec: KernelSpec,
    kappa: float = 0.5,
    cv: CvConfig = CvConfig(),
    policy: DirectionPolicy = DirectionPolicy(),
) -> FitResult:
    """Run the full trimmed-SVM fit on a labeled dataset: rank, then fit_ranked."""
    check_kappa(kappa)
    return fit_ranked(rank(dataset, spec, policy), kappa, cv)


_FIT_HEADER = "sdsvm-fit-v1"
_MODEL_HEADER = "sdsvm-model-v1"
_TABLE_HEADER = "id label outlyingness trimmed f"


def _text_ids(ids) -> list:
    """str of each id, or SerializationError naming the first id that is
    empty or holds whitespace (either would break its row)."""
    texts = list(map(str, ids))
    if "" in texts or any(map(str.isspace, "".join(texts))):
        bad = next(t for t in texts if not t or any(map(str.isspace, t)))
        raise SerializationError(f"id {bad!r} contains whitespace" if bad else "an id is empty")
    return texts


def fit_to_text(fit: FitResult) -> str:
    """Single plain-text report: provenance, CV table, model block, samples.

    The model block is the model's one text form: a header with the kernel,
    C and tol, one `id label alpha` row per retained sample and the bias.
    Doubles are shortest round-trip decimals, so a read-back is exact.
    """
    model = fit.model
    ids = _text_ids(fit.ids)
    lines = [
        _FIT_HEADER,
        f"kappa {fit.plan.kappa!r}",
        f"chosen-c {model.c!r}",
        f"folds-used {fit.cv.folds_used}",
        *(f"policy-{side} {report.policy.mode} {report.policy.count} {report.policy.seed}"
          for side, report in zip(("minus", "plus"), fit.reports)),
        f"kernel {model.spec.describe()}",
        f"cv-table {len(fit.cv.table)}",
    ]
    lines.extend(f"{c!r} {err!r}" for c, err in fit.cv.table)
    lines.append(f"model {model.n_retained + 2}")
    lines.append(f"{_MODEL_HEADER} {model.spec.describe()} C={model.c!r} tol={model.tol!r}")
    lines.extend(
        f"{ids[i]} {label} {a!r}"
        for i, label, a in zip(
            fit.plan.retained.tolist(), map(int, model.labels.tolist()), model.alpha.tolist()
        )
    )
    lines.append(f"bias {model.bias!r}")
    lines.append(f"samples {fit.n}")
    lines.append(_TABLE_HEADER)
    lines.extend(
        f"{sid} {label} {r!r} {'true' if cut else 'false'} {f!r}"
        for sid, label, r, cut, f in zip(
            ids,
            map(int, fit.labels.tolist()),
            fit.plan.outlyingness.tolist(),
            fit.plan.trimmed.tolist(),
            fit.decision_values.tolist(),
        )
    )
    return "\n".join(lines) + "\n"


def fit_from_text(text: str) -> FitResult:
    """Rebuild a FitResult from its report.

    The plan is built as a live fit's is, from kappa and the two group
    reports, which hold each group's r and policy with their counters at
    the defaults, as the model has updates 0 and gap nan: none is
    serialized.  The trimmed column is not read into the fit; it must be
    the plan's trim.  Raises SerializationError, and nothing else, on a
    malformed report; on one whose chosen-c or kernel line disagrees with
    its model block, or whose model block names other ids than the rows
    its trimmed column retains; on one whose folds-used, cv-table or
    samples count is negative, or whose samples line is not followed by
    exactly that many rows (blank lines may trail); on one whose trimmed
    column is not the trim of its outlyingness; or on one that is not a
    valid CvSelection, TrimPlan or FitResult.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != _FIT_HEADER:
        raise SerializationError("not a sdsvm fit report")
    pos = 1

    def take():
        nonlocal pos
        line = lines[pos]
        pos += 1
        return line

    def keyed(key):
        line = take()
        head, _, rest = line.partition(" ")
        if head != key:
            raise SerializationError(f"expected {key!r} line, got {line!r}")
        return rest

    def columns(count, width):
        """The next count lines, each of exactly width fields, as width
        tuples of fields."""
        rows = []
        for _ in range(count):
            line = take()
            parts = line.split()
            if len(parts) != width:
                raise SerializationError(f"bad row: {line!r}")
            rows.append(parts)
        return tuple(zip(*rows)) if rows else ((),) * width

    def count(key):
        return check_integer(key, int(keyed(key)), 0)

    def floats(col):
        return np.array(list(map(float, col)), dtype=np.float64)

    try:
        kappa = float(keyed("kappa"))
        chosen_c = float(keyed("chosen-c"))
        folds_used = count("folds-used")
        policies = []
        for key in ("policy-minus", "policy-plus"):
            mode, pairs, seed = keyed(key).split()
            policies.append(DirectionPolicy(mode, int(pairs), int(seed)))
        kernel = keyed("kernel")
        grid, errors = map(floats, columns(count("cv-table"), 2))
        cv = CvSelection(tuple(zip(grid.tolist(), errors.tolist())), folds_used)
        block = int(keyed("model"))
        if block < 2:
            raise SerializationError(f"model block needs a header and a bias line, got {block} lines")
        fields = dict(tok.split("=", 1) for tok in keyed(_MODEL_HEADER).split())
        c, tol = float(fields.pop("C")), float(fields.pop("tol"))
        kind = fields.pop("kind")
        types = {"gamma": float, "degree": int, "coef0": float, "kmer": int}
        spec = KernelSpec(kind=kind, **{name: types[name](value) for name, value in fields.items()})
        if chosen_c != c or kernel != spec.describe():
            raise SerializationError("chosen-c or kernel line disagrees with the model block")
        model_ids, model_labels, alpha = columns(block - 2, 3)
        bias = float(keyed("bias"))
        n = count("samples")
        if take() != _TABLE_HEADER:
            raise SerializationError("fit report missing sample table header")
        ids, labels, r_vals, trimmed, f_vals = columns(n, 5)
        if any(line.strip() for line in lines[pos:]):
            raise SerializationError(f"fit report has lines after its {n} samples")
        labels, r_vals, f_vals = floats(labels), floats(r_vals), floats(f_vals)
        trimmed = [{"true": True, "false": False}[cut] for cut in trimmed]
        if model_ids != tuple(sid for sid, cut in zip(ids, trimmed) if not cut):
            raise SerializationError("model block's ids disagree with the retained rows of the sample table")
        reports = [OutlyingnessReport(r_vals[labels == side], policy) for side, policy in zip((-1, 1), policies)]
        plan = TrimPlan(kappa, reports, labels)
        if plan.trimmed.tolist() != trimmed:
            raise SerializationError("trimmed column is not the trim of the outlyingness column")
        model = SvmModel(floats(alpha), floats(model_labels), bias, c, tol, spec)
        return FitResult(model, plan, cv, decision_values=f_vals, ids=ids)
    except (ValueError, IndexError, KeyError, GroupEmptyAfterTrim) as exc:
        raise SerializationError(f"bad fit report: {exc}") from exc
