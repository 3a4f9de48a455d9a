"""Trimmed-SVM training pipeline.

Fitting proceeds in stages: per-group outlyingness on each group's own kernel
submatrix, retention of the floor(kappa * group size) least outlying samples
per group, optional cross-validated choice of the box constraint C, a dual
solve on the retained union, and finally decision values for every sample
(trimmed ones included, since the outlier map plots them all).
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
from .kernels import KernelMatrix, KernelSpec, kernel_matrix, parse_spec
from .outlyingness import (
    DirectionPolicy,
    OutlyingnessReport,
    default_policy,
    outlyingness,
)
from .rng import Stream, derive_key
from .svm import (
    DEFAULT_TOL,
    SvmModel,
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


@dataclass(frozen=True)
class TrimPlan:
    """Which samples survive trimming, and the outlyingness that decided it."""

    kappa: float
    h_minus: int
    h_plus: int
    retained_minus: tuple
    retained_plus: tuple
    outlyingness: np.ndarray  # within-own-group value, aligned with the dataset
    trimmed: np.ndarray  # bool, aligned with the dataset

    def __post_init__(self):
        r = np.asarray(self.outlyingness, dtype=np.float64).copy()
        t = np.asarray(self.trimmed, dtype=bool).copy()
        r.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "outlyingness", r)
        object.__setattr__(self, "trimmed", t)
        object.__setattr__(self, "retained_minus", tuple(int(i) for i in self.retained_minus))
        object.__setattr__(self, "retained_plus", tuple(int(i) for i in self.retained_plus))

    @property
    def retained(self) -> tuple:
        return tuple(sorted(self.retained_minus + self.retained_plus))


@dataclass(frozen=True)
class CvConfig:
    """Cross-validation setup for choosing C."""

    folds: int = 10
    grid: tuple = (DEFAULT_C,)
    seed: int = 0
    stratified: bool = True

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError(f"folds must be >= 2, got {self.folds}")
        grid = tuple(float(c) for c in self.grid)
        if not grid:
            raise ValueError("C grid must be nonempty")
        if any(not c > 0 for c in grid):
            raise ValueError("C grid values must be positive")
        object.__setattr__(self, "grid", grid)


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
    chosen_c: float
    cv_table: tuple
    folds_used: int
    decision_values: np.ndarray
    ids: tuple
    labels: np.ndarray
    spec: KernelSpec
    kappa: float
    policy_minus: DirectionPolicy
    policy_plus: DirectionPolicy

    def __post_init__(self):
        f = np.asarray(self.decision_values, dtype=np.float64).copy()
        y = np.asarray(self.labels, dtype=np.float64).copy()
        f.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "decision_values", f)
        object.__setattr__(self, "labels", y)
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
    if not 0.5 <= kappa <= 1.0:
        raise ValueError(f"kappa must be in [0.5, 1], got {kappa}")
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
    retained = {}
    for group_idx, report, h, key in (
        (minus_idx, report_minus, h_minus, "minus"),
        (plus_idx, report_plus, h_plus, "plus"),
    ):
        r_full[group_idx] = report.r
        order = np.lexsort((group_idx, report.r))
        keep = group_idx[order[:h]]
        trimmed[keep] = False
        retained[key] = tuple(int(i) for i in np.sort(keep))
    return TrimPlan(
        kappa=float(kappa),
        h_minus=h_minus,
        h_plus=h_plus,
        retained_minus=retained["minus"],
        retained_plus=retained["plus"],
        outlyingness=r_full,
        trimmed=trimmed,
    )


def _fold_assignment(labels: np.ndarray, folds: int, seed: int, stratified: bool):
    """fold id per position, dealt round-robin after a seeded shuffle."""
    stream = Stream(derive_key(seed, "cv-folds"))
    assignment = np.zeros(labels.shape[0], dtype=np.intp)
    if stratified:
        groups = [np.flatnonzero(labels < 0).tolist(), np.flatnonzero(labels > 0).tolist()]
    else:
        groups = [list(range(labels.shape[0]))]
    for members in groups:
        for t, pos in enumerate(stream.shuffled(members)):
            assignment[pos] = t % folds
    return assignment


def select_C(omega_t: KernelMatrix, labels_t, cv: CvConfig) -> CvSelection:
    """Mean CV misclassification per grid point; argmin, ties to smallest C.

    labels_t is the -1/+1 label array of the retained set.

    Folds are stratified from the seed by default and clamped down to the
    smaller class size when necessary.  Grid points whose folds fail to
    converge are recorded as nan and skipped; if every point fails the
    ConvergenceError propagates.
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
    assignment = _fold_assignment(y, folds, cv.seed, cv.stratified)
    entries = omega_t.entries

    table = []
    best = None
    last_failure = None
    for c in cv.grid:
        rates = []
        try:
            for f in range(folds):
                test_mask = assignment == f
                train_idx = np.flatnonzero(~test_mask)
                test_idx = np.flatnonzero(test_mask)
                model = solve_dual(omega_t.take(train_idx), y[train_idx], c)
                f_vals = decision_values(model, entries[np.ix_(train_idx, test_idx)])
                rates.append(float(np.mean(sign_labels(f_vals) != y[test_idx])))
        except ConvergenceError as exc:
            last_failure = exc
            table.append((c, math.nan))
            continue
        mean_rate = float(np.mean(rates))
        table.append((c, mean_rate))
        if best is None or mean_rate < best[0] or (mean_rate == best[0] and c < best[1]):
            best = (mean_rate, c)
    if best is None:
        raise ConvergenceError(
            f"every C in the grid failed to converge (last: {last_failure})",
            max_violation=getattr(last_failure, "max_violation", None),
        )
    return CvSelection(c=best[1], table=tuple(table), folds_used=folds)


def fit_sdsvm(
    dataset,
    spec: KernelSpec,
    kappa: float = 0.5,
    cv: CvConfig | None = None,
    policy: DirectionPolicy | None = None,
    tol: float = DEFAULT_TOL,
) -> FitResult:
    """Run the full trimmed-SVM fit on a labeled dataset.

    With a single-point C grid (the default {0.1}) the fold evaluation is
    skipped and the value used directly.  A policy of None means the
    per-group default: exhaustive pairs up to 100 samples, else 2000 sampled.
    """
    if not 0.5 <= kappa <= 1.0:
        raise ValueError(f"kappa must be in [0.5, 1], got {kappa}")
    if cv is None:
        cv = CvConfig()
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

    def per_group_reports():
        reports = []
        policies = []
        for group in (minus_idx, plus_idx):
            sub = omega.take(group)
            group_policy = policy if policy is not None else default_policy(sub.k)
            reports.append(outlyingness(sub, group_policy))
            policies.append(group_policy)
        return reports, policies

    (report_minus, report_plus), (policy_minus, policy_plus) = run_stage(
        "outlyingness", per_group_reports
    )
    plan = run_stage("trim", trim, report_minus, report_plus, labels, kappa)

    retained = np.array(plan.retained, dtype=np.intp)
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
        spec=spec,
        ids=tuple(dataset.ids[i] for i in retained),
    )

    return FitResult(
        model=model,
        plan=plan,
        chosen_c=float(chosen_c),
        cv_table=tuple(cv_table),
        folds_used=folds_used,
        decision_values=decision_values(model, omega.entries[retained]),
        ids=dataset.ids,
        labels=labels,
        spec=spec,
        kappa=float(kappa),
        policy_minus=policy_minus,
        policy_plus=policy_plus,
    )


_FIT_HEADER = "sdsvm-fit-v1"


def _policy_to_text(policy: DirectionPolicy) -> str:
    return f"{policy.mode} {policy.count} {policy.seed}"


def _policy_from_text(text: str) -> DirectionPolicy:
    mode, count, seed = text.split()
    return DirectionPolicy(mode=mode, count=int(count), seed=int(seed))


def fit_to_text(fit: FitResult) -> str:
    """Single plain-text report: provenance, CV table, model block, samples."""
    lines = [
        _FIT_HEADER,
        f"kappa {fit.kappa!r}",
        f"chosen-c {fit.chosen_c!r}",
        f"folds-used {fit.folds_used}",
        f"policy-minus {_policy_to_text(fit.policy_minus)}",
        f"policy-plus {_policy_to_text(fit.policy_plus)}",
        f"kernel {fit.spec.describe()}",
        f"cv-table {len(fit.cv_table)}",
    ]
    for c, err in fit.cv_table:
        lines.append(f"{float(c)!r} {float(err)!r}")
    model_block = model_to_text(fit.model).rstrip("\n").splitlines()
    lines.append(f"model {len(model_block)}")
    lines.extend(model_block)
    lines.append(f"samples {fit.n}")
    lines.append("id label outlyingness trimmed f")
    for i in range(fit.n):
        sid = str(fit.ids[i])
        if any(ch.isspace() for ch in sid):
            raise SerializationError(f"id {sid!r} contains whitespace")
        lines.append(
            f"{sid} {int(fit.labels[i])} {float(fit.plan.outlyingness[i])!r} "
            f"{'true' if fit.plan.trimmed[i] else 'false'} {float(fit.decision_values[i])!r}"
        )
    return "\n".join(lines) + "\n"


def fit_from_text(text: str) -> FitResult:
    """Rebuild a FitResult from its report (samples are not serialized).

    Raises SerializationError, and nothing else, on a malformed report.
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
        spec = parse_spec(keyed("kernel"))
        cv_rows = int(keyed("cv-table"))
        cv_table = []
        for _ in range(cv_rows):
            c_txt, err_txt = take().split()
            cv_table.append((float(c_txt), float(err_txt)))
        model_lines = int(keyed("model"))
        model = model_from_text("\n".join(lines[pos : pos + model_lines]))
        pos += model_lines
        n = int(keyed("samples"))
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
            trimmed.append(parts[3] == "true")
            f_vals.append(float(parts[4]))
        labels_arr = np.array(labels)
        trimmed_arr = np.array(trimmed, dtype=bool)
        retained_minus = tuple(
            int(i) for i in np.flatnonzero((labels_arr < 0) & ~trimmed_arr)
        )
        retained_plus = tuple(int(i) for i in np.flatnonzero((labels_arr > 0) & ~trimmed_arr))
        plan = TrimPlan(
            kappa=kappa,
            h_minus=len(retained_minus),
            h_plus=len(retained_plus),
            retained_minus=retained_minus,
            retained_plus=retained_plus,
            outlyingness=np.array(r_vals),
            trimmed=trimmed_arr,
        )
        return FitResult(
            model=model,
            plan=plan,
            chosen_c=chosen_c,
            cv_table=tuple(cv_table),
            folds_used=folds_used,
            decision_values=np.array(f_vals),
            ids=tuple(ids),
            labels=labels_arr,
            spec=spec,
            kappa=kappa,
            policy_minus=policy_minus,
            policy_plus=policy_plus,
        )
    except (ValueError, IndexError, KeyError) as exc:
        raise SerializationError(f"bad fit report: {exc}") from exc
