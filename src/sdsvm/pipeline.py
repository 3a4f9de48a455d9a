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
from dataclasses import dataclass

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
from .rng import Stream, check_seed, derive_key
from .svm import (
    _INTERIOR_TOL,
    DEFAULT_TOL,
    SvmModel,
    _text_ids,
    decision_values,
    model_from_text,
    model_to_text,
    sign_labels,
    solve_dual,
)

# Default C grid when optimization is requested without an explicit grid:
# 11 log-spaced points 2^-5, 2^-3, ..., 2^15.
DEFAULT_C_GRID = tuple(2.0**p for p in range(-5, 16, 2))

# Default fixed box constraint when no cross-validation is requested.
DEFAULT_C = 0.1


def check_kappa(kappa) -> None:
    """Raise ValueError unless kappa, the retained fraction per group, is in [0.5, 1]."""
    if not 0.5 <= kappa <= 1.0:
        raise ValueError(f"kappa must be in [0.5, 1], got {kappa}")


@dataclass(frozen=True)
class TrimPlan:
    """Which samples survive trimming, and the outlyingness that decided it."""

    kappa: float
    outlyingness: np.ndarray  # within-own-group value, aligned with the dataset
    trimmed: np.ndarray  # bool, aligned with the dataset

    def __post_init__(self):
        check_kappa(self.kappa)
        object.__setattr__(self, "outlyingness", _frozen(self.outlyingness))
        object.__setattr__(self, "trimmed", _frozen(self.trimmed, bool))

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
        if self.folds < 2:
            raise ValueError(f"folds must be >= 2, got {self.folds}")
        grid = tuple(float(c) for c in self.grid)
        if not grid:
            raise ValueError("grid must be nonempty")
        if not all(0 < c < math.inf for c in grid):
            raise ValueError(f"grid must hold positive finite values, got {list(grid)}")
        object.__setattr__(self, "grid", grid)
        check_seed(self.seed)


@dataclass(frozen=True)
class CvSelection:
    """Chosen C plus the per-grid-point mean CV error table."""

    c: float
    table: tuple  # ((C, mean_error), ...) in grid order; error nan if skipped
    folds_used: int


@dataclass(frozen=True)
class FitResult:
    """Everything the outlier map and downstream reporting need."""

    model: SvmModel
    plan: TrimPlan
    cv_table: tuple
    folds_used: int
    decision_values: np.ndarray
    ids: tuple
    labels: np.ndarray
    policy_minus: DirectionPolicy
    policy_plus: DirectionPolicy
    # (minus, plus) outlyingness reports of the fit; not serialized, so a
    # fit read back from text has ().
    reports: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "decision_values", _frozen(self.decision_values))
        object.__setattr__(self, "labels", _frozen(self.labels))
        object.__setattr__(self, "ids", tuple(self.ids))

    @property
    def n(self) -> int:
        return len(self.ids)


def _floor_count(kappa: float, n: int) -> int:
    # The 1e-9 nudge absorbs float noise in decimal kappa * n products
    # (e.g. 0.7 * 30) without changing any mathematically exact case.
    return int(math.floor(kappa * n + 1e-9))


def trim(
    report_minus: OutlyingnessReport,
    report_plus: OutlyingnessReport,
    labels,
    kappa: float,
) -> TrimPlan:
    """Keep the h = floor(kappa * n) least outlying samples of each group.

    labels is the -1/+1 label array of the whole dataset.

    Ties at the cut are broken by ascending original index; +inf outlyingness
    always sorts last, so such samples are trimmed first.
    """
    check_kappa(kappa)
    y = np.asarray(labels, dtype=np.float64)
    minus_idx = np.flatnonzero(y < 0)
    plus_idx = np.flatnonzero(y > 0)
    if report_minus.k != minus_idx.size or report_plus.k != plus_idx.size:
        raise DimensionError(
            f"reports cover {report_minus.k}/{report_plus.k} samples but groups have "
            f"{minus_idx.size}/{plus_idx.size}"
        )
    h_minus = _floor_count(kappa, minus_idx.size)
    h_plus = _floor_count(kappa, plus_idx.size)
    if h_minus == 0 or h_plus == 0:
        raise GroupEmptyAfterTrim(f"h-={h_minus}, h+={h_plus} after flooring kappa={kappa}")

    r_full = np.zeros(y.shape[0])
    trimmed = np.ones(y.shape[0], dtype=bool)
    for group_idx, report, h in (
        (minus_idx, report_minus, h_minus),
        (plus_idx, report_plus, h_plus),
    ):
        r_full[group_idx] = report.r
        trimmed[group_idx[np.lexsort((group_idx, report.r))[:h]]] = False
    return TrimPlan(kappa=float(kappa), outlyingness=r_full, trimmed=trimmed)


def _fold_assignment(labels: np.ndarray, folds: int, seed: int):
    """fold id per position, each class dealt round-robin after a seeded shuffle."""
    stream = Stream(derive_key(seed, "cv-folds"))
    assignment = np.zeros(labels.shape[0], dtype=np.intp)
    for members in (np.flatnonzero(labels < 0).tolist(), np.flatnonzero(labels > 0).tolist()):
        for t, pos in enumerate(stream.shuffled(members)):
            assignment[pos] = t % folds
    return assignment


def select_C(omega_t: KernelMatrix, labels_t, cv: CvConfig) -> CvSelection:
    """Mean CV misclassification per grid point; argmin, ties to smallest C.

    labels_t is the -1/+1 label array of the retained set.

    Folds are stratified by class from the seed and clamped down to the
    smaller class size when necessary.  Each fold solves the grid in
    ascending C, every solve starting from the last converged solution of
    that fold (alpha seeding).  Grid points whose folds fail to converge are
    recorded as nan and skipped; if every point fails the ConvergenceError
    propagates.

    A fold stops solving once a solve at C_t makes 0 pair updates and leaves
    every alpha below C_t - _INTERIOR_TOL (on separable data the path stops
    moving once no alpha is at its bound): every larger C of that fold gets
    C_t's error rate.  This is exact.  With 0 updates the solve returned its
    start, so a solve at C' >= C_t from that alpha validates its start,
    recomputes the same beta and g, builds the same rise/fall candidates (no
    alpha is at C_t, so none is at C'), finds the same gap and again makes 0
    updates, and takes its bias over the same free set (alpha < C_t - tol
    <= C' - tol) or from the same candidates.  The model differs only in c,
    so the rate is the same.
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
            if model.updates == 0 and start.max() < model.c - _INTERIOR_TOL:
                fixed_rate = rates[t][-1]

    table = []
    best = None
    for t, c in enumerate(cv.grid):
        if t in failures:
            table.append((c, math.nan))
            continue
        mean_rate = float(np.mean(rates[t]))
        table.append((c, mean_rate))
        if best is None or mean_rate < best[0] or (mean_rate == best[0] and c < best[1]):
            best = (mean_rate, c)
    if best is None:
        last_failure = failures[len(cv.grid) - 1]
        raise ConvergenceError(
            f"every C in the grid failed to converge (last: {last_failure})",
            max_violation=last_failure.max_violation,
        )
    return CvSelection(c=best[1], table=tuple(table), folds_used=folds)


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
    tol: float = DEFAULT_TOL,
) -> FitResult:
    """Trim, select C, train and score every sample on a ranked dataset.

    With a single-point C grid (the default {0.1}) the fold evaluation is
    skipped and the value used directly.
    """
    dataset, omega = ranking.dataset, ranking.omega
    report_minus, report_plus = ranking.reports
    labels = np.asarray(dataset.labels, dtype=np.float64)
    plan = run_stage("trim", trim, report_minus, report_plus, labels, kappa)

    retained = plan.retained
    labels_t = labels[retained]
    omega_t = omega.take(retained)

    if len(cv.grid) == 1:
        chosen_c = cv.grid[0]
        cv_table = ((chosen_c, math.nan),)
        folds_used = 0
    else:
        selection = run_stage("select-c", select_C, omega_t, labels_t, cv)
        chosen_c = selection.c
        cv_table = selection.table
        folds_used = selection.folds_used

    model = run_stage(
        "train",
        solve_dual,
        omega_t,
        labels_t,
        chosen_c,
        tol,
        spec=ranking.spec,
        ids=tuple(dataset.ids[i] for i in retained),
    )
    del omega_t  # freed before the n_retained x n decision block is gathered

    return FitResult(
        model=model,
        plan=plan,
        cv_table=tuple(cv_table),
        folds_used=folds_used,
        decision_values=decision_values(model, omega.entries[retained]),
        ids=dataset.ids,
        labels=labels,
        policy_minus=report_minus.policy,
        policy_plus=report_plus.policy,
        reports=ranking.reports,
    )


def fit_sdsvm(
    dataset,
    spec: KernelSpec,
    kappa: float = 0.5,
    cv: CvConfig = CvConfig(),
    policy: DirectionPolicy = DirectionPolicy(),
    tol: float = DEFAULT_TOL,
) -> FitResult:
    """Run the full trimmed-SVM fit on a labeled dataset: rank, then fit_ranked."""
    check_kappa(kappa)
    return fit_ranked(rank(dataset, spec, policy), kappa, cv, tol)


_FIT_HEADER = "sdsvm-fit-v1"


def _policy_to_text(policy: DirectionPolicy) -> str:
    return f"{policy.mode} {policy.count} {policy.seed}"


def _policy_from_text(text: str) -> DirectionPolicy:
    mode, count, seed = text.split()
    if mode == "auto":  # a report records the policy auto resolved to
        raise ValueError("policy line must name a resolved mode, got 'auto'")
    return DirectionPolicy(mode=mode, count=int(count), seed=int(seed))


def fit_to_text(fit: FitResult) -> str:
    """Single plain-text report: provenance, CV table, model block, samples."""
    lines = [
        _FIT_HEADER,
        f"kappa {fit.plan.kappa!r}",
        f"chosen-c {float(fit.model.c)!r}",
        f"folds-used {fit.folds_used}",
        f"policy-minus {_policy_to_text(fit.policy_minus)}",
        f"policy-plus {_policy_to_text(fit.policy_plus)}",
        f"kernel {fit.model.spec.describe()}",
        f"cv-table {len(fit.cv_table)}",
    ]
    for c, err in fit.cv_table:
        lines.append(f"{float(c)!r} {float(err)!r}")
    model_block = model_to_text(fit.model).rstrip("\n").splitlines()
    lines.append(f"model {len(model_block)}")
    lines.extend(model_block)
    lines.append(f"samples {fit.n}")
    lines.append("id label outlyingness trimmed f")
    lines.extend(
        f"{sid} {label} {r!r} {'true' if cut else 'false'} {f!r}"
        for sid, label, r, cut, f in zip(
            _text_ids(fit.ids),
            map(int, fit.labels.tolist()),
            fit.plan.outlyingness.tolist(),
            fit.plan.trimmed.tolist(),
            fit.decision_values.tolist(),
        )
    )
    return "\n".join(lines) + "\n"


def fit_from_text(text: str) -> FitResult:
    """Rebuild a FitResult from its report (samples are not serialized).

    Raises SerializationError, and nothing else, on a malformed report, one
    whose chosen-c or kernel line disagrees with its model block, one whose
    samples line is negative or is not followed by exactly that many rows
    (blank lines may trail), or one with a sample the outlier map cannot
    draw: a label other than -1/+1, a negative or nan outlyingness (+inf is
    kept) or a non-finite f.
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

    try:
        kappa = float(keyed("kappa"))
        chosen_c = float(keyed("chosen-c"))
        folds_used = int(keyed("folds-used"))
        policy_minus = _policy_from_text(keyed("policy-minus"))
        policy_plus = _policy_from_text(keyed("policy-plus"))
        kernel = keyed("kernel")
        cv_rows = int(keyed("cv-table"))
        cv_table = []
        for _ in range(cv_rows):
            c_txt, err_txt = take().split()
            cv_table.append((float(c_txt), float(err_txt)))
        model_lines = int(keyed("model"))
        model = model_from_text("\n".join(lines[pos : pos + model_lines]))
        pos += model_lines
        if chosen_c != model.c or kernel != model.spec.describe():
            raise SerializationError("chosen-c or kernel line disagrees with the model block")
        n = int(keyed("samples"))
        if n < 0:
            raise SerializationError(f"sample count must be >= 0, got {n}")
        if take() != "id label outlyingness trimmed f":
            raise SerializationError("fit report missing sample table header")
        ids, labels, r_vals, trimmed, f_vals = [], [], [], [], []
        for _ in range(n):
            parts = take().split()
            if len(parts) != 5:
                raise SerializationError(f"bad sample row: {lines[pos - 1]!r}")
            ids.append(parts[0])
            labels.append(float(parts[1]))
            r_vals.append(float(parts[2]))
            trimmed.append({"true": True, "false": False}[parts[3]])
            f_vals.append(float(parts[4]))
        if any(line.strip() for line in lines[pos:]):
            raise SerializationError(f"fit report has lines after its {n} samples")
        labels, r_vals, f_vals = np.array(labels), np.array(r_vals), np.array(f_vals)
        if not (np.abs(labels) == 1.0).all():
            raise SerializationError("sample labels must be -1 or +1")
        if not (r_vals >= 0.0).all():
            raise SerializationError("sample outlyingness must be nonnegative and not nan")
        if not np.isfinite(f_vals).all():
            raise SerializationError("sample decision values must be finite")
        return FitResult(
            model=model,
            plan=TrimPlan(kappa, r_vals, trimmed),
            cv_table=tuple(cv_table),
            folds_used=folds_used,
            decision_values=f_vals,
            ids=ids,
            labels=labels,
            policy_minus=policy_minus,
            policy_plus=policy_plus,
        )
    except (ValueError, IndexError, KeyError) as exc:
        raise SerializationError(f"bad fit report: {exc}") from exc
