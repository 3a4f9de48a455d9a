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
from .rng import Stream, check_integer, check_seed, derive_key
from .svm import _INTERIOR_TOL, SvmModel, decision_values, sign_labels, solve_dual

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
        check_integer("folds", self.folds)
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
    """Everything the outlier map and downstream reporting need.

    ids, labels, decision_values and the plan's columns are aligned with
    the dataset; the model holds the plan's retained samples, in order.
    Every sample is one the outlier map can draw: its label is -1 or +1,
    its outlyingness nonnegative and not nan (+inf is kept) and its f
    finite; a ValueError otherwise.
    """

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
        n = len(self.ids)
        columns = (self.labels, self.decision_values, self.plan.outlyingness, self.plan.trimmed)
        if any(column.shape != (n,) for column in columns):
            raise ValueError(
                f"{n} ids vs labels, decision values, outlyingness and trimmed of shapes "
                f"{[column.shape for column in columns]}"
            )
        if not (np.abs(self.labels) == 1.0).all():
            raise ValueError("sample labels must be -1 or +1")
        if not (self.plan.outlyingness >= 0.0).all():
            raise ValueError("sample outlyingness must be nonnegative and not nan")
        if not np.isfinite(self.decision_values).all():
            raise ValueError("sample decision values must be finite")
        if self.model.n_retained != self.plan.retained.size:
            raise ValueError(
                f"model has {self.model.n_retained} samples but the plan retains "
                f"{self.plan.retained.size}"
            )

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
        spec=ranking.spec,
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
) -> FitResult:
    """Run the full trimmed-SVM fit on a labeled dataset: rank, then fit_ranked."""
    check_kappa(kappa)
    return fit_ranked(rank(dataset, spec, policy), kappa, cv)


_FIT_HEADER = "sdsvm-fit-v1"
_MODEL_HEADER = "sdsvm-model-v1"
_TABLE_HEADER = "id label outlyingness trimmed f"


def _text_ids(ids) -> list:
    """str of each id, or SerializationError naming the first id that holds
    whitespace (which would split its row)."""
    texts = list(map(str, ids))
    if any(map(str.isspace, "".join(texts))):
        bad = next(t for t in texts if any(map(str.isspace, t)))
        raise SerializationError(f"id {bad!r} contains whitespace")
    return texts


def _policy_to_text(policy: DirectionPolicy) -> str:
    return f"{policy.mode} {policy.count} {policy.seed}"


def _policy_from_text(text: str) -> DirectionPolicy:
    mode, count, seed = text.split()
    if mode == "auto":  # a report records the policy auto resolved to
        raise ValueError("policy line must name a resolved mode, got 'auto'")
    return DirectionPolicy(mode=mode, count=int(count), seed=int(seed))


def fit_to_text(fit: FitResult) -> str:
    """Single plain-text report: provenance, CV table, model block, samples.

    The model block is the model's one text form: a header with the kernel,
    C and tol, one `id label alpha` row per retained sample and the bias.
    Doubles are shortest round-trip decimals, so a read-back is exact.
    """
    model = fit.model
    if model.spec is None:
        raise SerializationError("model has no kernel spec attached")
    ids = _text_ids(fit.ids)
    lines = [
        _FIT_HEADER,
        f"kappa {fit.plan.kappa!r}",
        f"chosen-c {float(model.c)!r}",
        f"folds-used {fit.folds_used}",
        f"policy-minus {_policy_to_text(fit.policy_minus)}",
        f"policy-plus {_policy_to_text(fit.policy_plus)}",
        f"kernel {model.spec.describe()}",
        f"cv-table {len(fit.cv_table)}",
    ]
    for c, err in fit.cv_table:
        lines.append(f"{float(c)!r} {float(err)!r}")
    lines.append(f"model {model.n_retained + 2}")
    lines.append(f"{_MODEL_HEADER} {model.spec.describe()} C={float(model.c)!r} tol={float(model.tol)!r}")
    lines.extend(
        f"{ids[i]} {label} {a!r}"
        for i, label, a in zip(
            fit.plan.retained.tolist(), map(int, model.labels.tolist()), model.alpha.tolist()
        )
    )
    lines.append(f"bias {float(model.bias)!r}")
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
    """Rebuild a FitResult from its report (samples are not serialized).

    Raises SerializationError, and nothing else, on a malformed report; on
    one whose chosen-c or kernel line disagrees with its model block, or
    whose model block names other ids or labels than the retained rows of
    its sample table; on one whose folds-used, cv-table or samples count
    is negative, or whose samples line is not followed by exactly that many
    rows (blank lines may trail); or on one that is not a valid FitResult,
    such as one with a sample the outlier map cannot draw.
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
        value = int(keyed(key))
        if value < 0:
            raise SerializationError(f"{key} count must be >= 0, got {value}")
        return value

    def floats(col):
        return np.array(list(map(float, col)), dtype=np.float64)

    try:
        kappa = float(keyed("kappa"))
        chosen_c = float(keyed("chosen-c"))
        folds_used = count("folds-used")
        policy_minus = _policy_from_text(keyed("policy-minus"))
        policy_plus = _policy_from_text(keyed("policy-plus"))
        kernel = keyed("kernel")
        grid, errors = columns(count("cv-table"), 2)
        cv_table = tuple(zip(map(float, grid), map(float, errors)))
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
        plan = TrimPlan(kappa, r_vals, trimmed)
        retained = plan.retained.tolist()
        model_labels = floats(model_labels)
        if model_ids != tuple(ids[i] for i in retained) or not np.array_equal(
            model_labels, labels[retained]
        ):
            raise SerializationError(
                "model block's ids or labels disagree with the retained rows of the sample table"
            )
        return FitResult(
            model=SvmModel(floats(alpha), model_labels, bias, c, tol, spec),
            plan=plan,
            cv_table=cv_table,
            folds_used=folds_used,
            decision_values=f_vals,
            ids=ids,
            labels=labels,
            policy_minus=policy_minus,
            policy_plus=policy_plus,
        )
    except (ValueError, IndexError, KeyError) as exc:
        raise SerializationError(f"bad fit report: {exc}") from exc
