"""Soft-margin SVM dual solver and classifier evaluation.

Solves

    max_a  sum a_i - 1/2 sum_ij a_i a_j y_i y_j K(x_i, x_j)
    s.t.   0 <= a_i <= C,   sum a_i y_i = 0

with a two-variable decomposition: each iteration picks the maximal violating
pair (Keerthi, Shevade, Bhattacharyya & Murthy, Neural Computation 13:637-649,
2001) and moves the two coefficients along the equality constraint.  The whole
kernel matrix is held in memory (a few thousand rows at most: the n=2000 RBF
fit solves on 1,500), so no shrinking or row caching is needed.  A solve
starts from alpha = 0, or from a given feasible alpha such as the solution
at a smaller C (alpha seeding along a C grid).

On the small problems of a C grid most of a solve is numpy call overhead,
not arithmetic.  A pair update therefore reads its scalars as Python floats,
adds one step vector in place to both candidate vectors and y times it to
g, and resets only the two updated entries: about a dozen numpy calls on
length-n vectors, against rebuilding both candidate vectors from y * g on
every update.  The pairs, steps and results are those of the rebuild, bit
for bit.  The classifier is

    f(x) = sum_i a_i y_i K(x_i, x) + b,      predicted label = sign(f),

with f == 0 resolving to +1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionError, InvalidModel, SingleClassError
from .kernels import KernelMatrix, KernelSpec, _frozen
from .rng import check_labels, check_real

DEFAULT_TOL = 1e-3
DEFAULT_MAX_ITER = 10_000_000

# Coefficients farther than this from both box edges count as free vectors
# when computing the bias.
_INTERIOR_TOL = 1e-8

# Bound on |sum alpha_i y_i|, relative to C, for a model or a solve's start;
# a solve leaves about 1e-12 * C at most.
_BALANCE_TOL = 1e-9

# Floor for the curvature of a two-variable subproblem (coincident points),
# relative to the pair's scale |K_ii + K_jj| so that the solve does not
# depend on the data's unit; a pair of zero scale keeps the bare value.
_CURVATURE_FLOOR = 1e-12


def _as_model(check, *args):
    """check(*args), its ValueError raised as InvalidModel with the same text."""
    try:
        return check(*args)
    except ValueError as exc:
        raise InvalidModel(str(exc)) from None


@dataclass(frozen=True, eq=False)
class SvmModel:
    """Fitted dual solution over the retained training samples.

    Holds only what a solve could return, checked on construction (an
    InvalidModel otherwise): C and tol positive and finite and bias finite
    (see check_real; stored as floats), every label -1 or +1, every alpha
    in [0, C] and |sum alpha_i y_i| <= 1e-9 * C.
    """

    alpha: np.ndarray
    labels: np.ndarray
    bias: float
    c: float
    tol: float
    spec: KernelSpec | None = None
    updates: int = 0  # pair updates the solver made; not serialized
    gap: float = float("nan")  # final KKT violation; not serialized

    def __post_init__(self):
        object.__setattr__(self, "alpha", _frozen(self.alpha))
        object.__setattr__(self, "labels", _frozen(self.labels))
        a, y = self.alpha, self.labels
        if a.ndim != 1 or y.shape != a.shape:
            raise DimensionError(f"{y.size} labels for alpha of shape {a.shape}")
        object.__setattr__(self, "c", _as_model(check_real, "C", self.c, True))
        object.__setattr__(self, "tol", _as_model(check_real, "tol", self.tol, True))
        object.__setattr__(self, "bias", _as_model(check_real, "bias", self.bias))
        _as_model(check_labels, "labels", y)
        if not ((a >= 0.0) & (a <= self.c)).all():
            raise InvalidModel(f"every alpha must lie in [0, C] with C={self.c!r}")
        balance = float(a @ y)
        if not abs(balance) <= _BALANCE_TOL * self.c:
            raise InvalidModel(f"sum alpha_i y_i must be 0 to within 1e-9 * C, got {balance!r}")

    @property
    def n_retained(self) -> int:
        return self.alpha.shape[0]

    @property
    def settled(self) -> bool:
        """0 pair updates and every alpha below C - _INTERIOR_TOL, as on
        separable data once no alpha is at its bound.  A solve at any C' >= C
        from this alpha then returns this model but for c: it recomputes the
        start's beta, g, rise/fall candidates (no alpha is at C, so none is
        at C') and gap, again makes 0 updates, and takes its bias over the
        same free set (alpha < C - tol <= C' - tol) or the same candidates.
        """
        return self.updates == 0 and bool((self.alpha < self.c - _INTERIOR_TOL).all())


def dual_objective(omega: KernelMatrix, labels, alpha) -> float:
    """Value of the dual objective at a coefficient vector."""
    a = np.asarray(alpha, dtype=np.float64)
    b = np.asarray(labels, dtype=np.float64) * a
    return float(a.sum() - 0.5 * b @ (omega.entries @ b))


def solve_dual(
    omega_t: KernelMatrix,
    labels,
    c: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    spec: KernelSpec | None = None,
    start=None,
) -> SvmModel:
    """Solve the dual on the retained set's kernel matrix and its -1/+1 labels.

    The model records the pair updates made and the final KKT violation.

    `start` is an alpha vector feasible for this C (in [0, C], with
    sum alpha_i y_i = 0), e.g. the solution at a smaller C; the solve
    begins there instead of at alpha = 0.  An infeasible start raises
    ValueError.

    Convergence criterion is the maximal KKT violation m(a) - M(a) <= tol.
    Raises, before any update, DimensionError when the kernel matrix does
    not match the labels in size, SingleClassError when one class is
    absent and InvalidModel (a ValueError) unless C and tol are positive
    and finite; and ConvergenceError (carrying the residual violation)
    when the pair-update cap is hit or the violation turns nan.
    """
    y = check_labels("labels", np.asarray(labels, dtype=np.float64).ravel())
    n = y.shape[0]
    if omega_t.k != n:
        raise DimensionError(f"kernel matrix is {omega_t.k}x{omega_t.k} but {n} labels given")
    n_minus = int(np.count_nonzero(y < 0))
    if n_minus == 0 or n_minus == n:
        raise SingleClassError(f"training needs both classes, got n-={n_minus} n+={n - n_minus}")
    c, tol = _as_model(check_real, "C", c, True), _as_model(check_real, "tol", tol, True)
    kk = omega_t.entries

    # Work in beta = y * alpha: bounds become [A, B] per sample and both
    # selection criteria read off y * g with g = 1 - y * (K beta).
    if start is None:
        beta = np.zeros(n)
        g = np.ones(n)
    else:
        alpha0 = np.asarray(start, dtype=np.float64)
        if alpha0.shape != (n,):
            raise ValueError(f"start has shape {alpha0.shape}, expected ({n},)")
        if not ((alpha0 >= 0.0) & (alpha0 <= c)).all():
            raise ValueError(f"start must lie in [0, C] with C={c}")
        if abs(float(alpha0 @ y)) > _BALANCE_TOL * c:
            raise ValueError("start violates sum alpha_i y_i = 0")
        beta = y * alpha0
        with np.errstate(invalid="ignore", over="ignore"):  # as in the loop below
            g = 1.0 - y * (kk @ beta)
    upper = np.where(y > 0, c, 0.0)
    lower = np.where(y > 0, 0.0, -c)

    # The loop keeps beta, the bounds and the diagonal as Python floats.
    # up and low are the candidate vectors: y * g where beta can still
    # rise / fall, else -inf / +inf.  Their running y * g equals y * g up to
    # the sign of a zero, which argmax and argmin do not see; a zero gap and
    # the bias are read from g.  A masked -inf/+inf entry plus an infinite
    # step turns nan, so a nan gap rebuilds up/low from g first.
    y_l = y.tolist()
    beta_l = beta.tolist()
    upper_l = upper.tolist()
    lower_l = lower.tolist()
    diag = kk.diagonal().tolist()

    def candidates(b):
        yg = y * g
        return np.where(b < upper, yg, -np.inf), np.where(b > lower, yg, np.inf)

    up, low = candidates(beta)
    iterations = 0
    gap = np.inf
    # A non-finite kernel makes g nan; the nan gap raises ConvergenceError,
    # so the arithmetic's own warnings would only repeat it.
    with np.errstate(invalid="ignore", over="ignore"):
        while iterations < max_iter:
            iterations += 1
            i = int(up.argmax())
            j = int(low.argmin())
            gap = up.item(i) - low.item(j)
            if gap == 0.0:
                gap = y_l[i] * g.item(i) - y_l[j] * g.item(j)
            elif gap != gap:
                up[:], low[:] = candidates(np.array(beta_l))
                i = int(up.argmax())
                j = int(low.argmin())
                gap = up.item(i) - low.item(j)
            if not gap > tol:
                if gap != gap:
                    raise ConvergenceError(
                        f"KKT violation became nan after {iterations - 1} pair updates",
                        max_violation=gap,
                    )
                break
            scale = diag[i] + diag[j]
            quad = max(scale - 2.0 * kk.item(i, j), _CURVATURE_FLOOR * abs(scale) or _CURVATURE_FLOOR)
            b_i, b_j = beta_l[i], beta_l[j]
            lam = min(upper_l[i] - b_i, b_j - lower_l[j], gap / quad)
            # Pin to the box exactly so bound membership stays an exact test.
            # beta_l[j] is read after the write to beta_l[i], as when i == j.
            b_i = beta_l[i] = min(upper_l[i], b_i + lam)
            b_j = beta_l[j] = max(lower_l[j], beta_l[j] - lam)
            step = lam * (kk[j] - kk[i])
            up += step
            low += step
            g += y * step
            # i was a candidate to rise and j to fall; either may have
            # reached a bound or left one.
            yg_i, yg_j = up.item(i), low.item(j)
            up[i] = yg_i if b_i < upper_l[i] else -np.inf
            low[i] = yg_i if b_i > lower_l[i] else np.inf
            up[j] = yg_j if b_j < upper_l[j] else -np.inf
            low[j] = yg_j if b_j > lower_l[j] else np.inf
        else:
            raise ConvergenceError(
                f"no convergence after {max_iter} pair updates (KKT violation {gap:.3e})",
                max_violation=gap,
            )

    beta = np.array(beta_l)
    alpha = y * beta
    yg = y * g
    free = (alpha > _INTERIOR_TOL) & (alpha < c - _INTERIOR_TOL)
    if free.any():
        yg_free = yg[free]
        bias = float(yg_free.sum() / yg_free.size)  # np.mean's sum and division
    else:
        up, low = candidates(beta)
        bias = 0.5 * (float(up.max()) + float(low.min()))

    return SvmModel(alpha, y, bias, c, tol, spec, updates=iterations - 1, gap=gap)


def decision_values(model: SvmModel, omega_block) -> np.ndarray:
    """Vectorized f over a (n_retained x m) block of kernel values."""
    block = np.asarray(omega_block, dtype=np.float64)
    if block.ndim != 2 or block.shape[0] != model.n_retained:
        raise DimensionError(
            f"kernel block shape {block.shape} does not match {model.n_retained} retained samples"
        )
    return (model.alpha * model.labels) @ block + model.bias


def sign_labels(f) -> np.ndarray:
    """Predicted labels sign(f) as -1.0/+1.0; f == 0 resolves to +1."""
    return np.where(f >= 0.0, 1.0, -1.0)
