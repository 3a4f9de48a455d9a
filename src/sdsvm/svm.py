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
moves the candidate vectors by the step in place and resets only the two
updated entries: about a dozen numpy calls on length-n vectors, against
rebuilding both candidate vectors from y * g on every update.  The pairs,
steps and results are those of the rebuild, bit for bit.  The classifier is

    f(x) = sum_i a_i y_i K(x_i, x) + b,      predicted label = sign(f),

with f == 0 resolving to +1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionError,
    SerializationError,
    SingleClassError,
)
from .kernels import KernelMatrix, KernelSpec, _frozen, parse_spec

DEFAULT_TOL = 1e-3
DEFAULT_MAX_ITER = 10_000_000

# Coefficients farther than this from both box edges count as free vectors
# when computing the bias.
_INTERIOR_TOL = 1e-8

# Floor for the curvature of a two-variable subproblem (coincident points).
_CURVATURE_FLOOR = 1e-12


@dataclass(frozen=True)
class SvmModel:
    """Fitted dual solution over the retained training samples."""

    alpha: np.ndarray
    labels: np.ndarray
    bias: float
    ids: tuple
    c: float
    tol: float
    spec: KernelSpec | None = None
    updates: int = 0  # pair updates the solver made; not serialized
    gap: float = float("nan")  # final KKT violation; not serialized

    def __post_init__(self):
        object.__setattr__(self, "alpha", _frozen(self.alpha))
        object.__setattr__(self, "labels", _frozen(self.labels))
        object.__setattr__(self, "ids", tuple(self.ids))
        a, y, ids = self.alpha, self.labels, self.ids
        if y.shape != a.shape or a.shape != (len(ids),):
            raise DimensionError(f"{len(ids)} ids and {y.size} labels for alpha of shape {a.shape}")

    @property
    def n_retained(self) -> int:
        return self.alpha.shape[0]


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
    ids=None,
    start=None,
) -> SvmModel:
    """Solve the dual on the retained set's kernel matrix and its -1/+1 labels.

    The model records `ids` for its retained samples, 0..n-1 when none are
    given, and the pair updates made and final KKT violation.

    `start` is an alpha vector feasible for this C (in [0, C], with
    sum alpha_i y_i = 0), e.g. the solution at a smaller C; the solve
    begins there instead of at alpha = 0.  An infeasible start raises
    ValueError.

    Convergence criterion is the maximal KKT violation m(a) - M(a) <= tol.
    Raises DimensionError, before any update, when the kernel matrix or ids
    do not match the labels in size, SingleClassError when one class is
    absent and ConvergenceError (carrying the residual violation) when the
    pair-update cap is hit or the violation turns nan.
    """
    y = np.asarray(labels, dtype=np.float64).ravel()
    n = y.shape[0]
    if not (np.abs(y) == 1.0).all():
        raise ValueError("labels must be -1 or +1")
    if omega_t.k != n:
        raise DimensionError(f"kernel matrix is {omega_t.k}x{omega_t.k} but {n} labels given")
    ids = range(n) if ids is None else tuple(ids)
    if len(ids) != n:
        raise DimensionError(f"{len(ids)} ids given for {n} labels")
    n_minus = int(np.count_nonzero(y < 0))
    if n_minus == 0 or n_minus == n:
        raise SingleClassError(f"training needs both classes, got n-={n_minus} n+={n - n_minus}")
    if not c > 0:
        raise ValueError(f"C must be positive, got {c}")
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
        if abs(float(alpha0 @ y)) > 1e-9 * c:
            raise ValueError("start violates sum alpha_i y_i = 0")
        beta = y * alpha0
        with np.errstate(invalid="ignore", over="ignore"):  # as in the loop below
            g = 1.0 - y * (kk @ beta)
    upper = np.where(y > 0, c, 0.0)
    lower = np.where(y > 0, 0.0, -c)

    # The loop keeps beta, the bounds and the diagonal as Python floats.
    # state holds the candidate vectors up and low (y * g where beta can
    # still rise / fall, else -inf / +inf) and g; a step adds
    # lam * (K_j - K_i) to up and low in place and y times it to g, and only
    # entries i and j are reset.  The running y * g in up/low equals y * g
    # up to the sign of a zero, which argmax and argmin do not see; a zero
    # gap and the bias are read from g.  A masked -inf/+inf entry plus an
    # infinite step turns nan, so a nan gap rebuilds up/low from g first.
    y_l = y.tolist()
    beta_l = beta.tolist()
    upper_l = upper.tolist()
    lower_l = lower.tolist()
    diag = kk.diagonal().tolist()

    def candidates(b):
        yg = y * g
        return np.where(b < upper, yg, -np.inf), np.where(b > lower, yg, np.inf)

    state = np.array((*candidates(beta), g))
    up, low, g = state
    weights = np.ones((3, n))
    weights[2] = y
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
                state[:2] = candidates(np.array(beta_l))
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
            quad = max(diag[i] + diag[j] - 2.0 * kk.item(i, j), _CURVATURE_FLOOR)
            b_i, b_j = beta_l[i], beta_l[j]
            lam = min(upper_l[i] - b_i, b_j - lower_l[j], gap / quad)
            # Pin to the box exactly so bound membership stays an exact test.
            # beta_l[j] is read after the write to beta_l[i], as when i == j.
            b_i = beta_l[i] = min(upper_l[i], b_i + lam)
            b_j = beta_l[j] = max(lower_l[j], beta_l[j] - lam)
            step = kk[j] - kk[i]
            step *= lam
            state += weights * step
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

    return SvmModel(
        alpha=alpha,
        labels=y,
        bias=bias,
        ids=ids,
        c=float(c),
        tol=float(tol),
        spec=spec,
        updates=iterations - 1,
        gap=float(gap),
    )


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


_MODEL_HEADER = "sdsvm-model-v1"


def _text_ids(ids) -> list:
    """str of each id, or SerializationError naming the first id that holds
    whitespace (which would split its row)."""
    texts = list(map(str, ids))
    if any(map(str.isspace, "".join(texts))):
        bad = next(t for t in texts if any(map(str.isspace, t)))
        raise SerializationError(f"id {bad!r} contains whitespace")
    return texts


def model_to_text(model: SvmModel) -> str:
    """Versioned plain-text form; doubles use shortest round-trip decimals."""
    if model.spec is None:
        raise SerializationError("model has no kernel spec attached")
    lines = [f"{_MODEL_HEADER} {model.spec.describe()} C={float(model.c)!r} tol={float(model.tol)!r}"]
    lines.extend(
        f"{sid} {label} {a!r}"
        for sid, label, a in zip(
            _text_ids(model.ids), map(int, model.labels.tolist()), model.alpha.tolist()
        )
    )
    lines.append(f"bias {float(model.bias)!r}")
    return "\n".join(lines) + "\n"


def model_from_text(text: str) -> SvmModel:
    """Inverse of model_to_text (samples and solver statistics are not serialized).

    Raises SerializationError, and nothing else, on a malformed block.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith(_MODEL_HEADER + " "):
        raise SerializationError("not a sdsvm model block")
    try:
        header = lines[0][len(_MODEL_HEADER) + 1 :]
        fields = dict(tok.split("=", 1) for tok in header.split())
        c = float(fields.pop("C"))
        tol = float(fields.pop("tol"))
        spec = parse_spec(" ".join(f"{k}={v}" for k, v in fields.items()))
        if not lines[-1].startswith("bias "):
            raise SerializationError("model block missing bias line")
        bias = float(lines[-1].split(" ", 1)[1])
        ids, labels, alpha = [], [], []
        for ln in lines[1:-1]:
            parts = ln.split()
            if len(parts) != 3:
                raise SerializationError(f"bad model sample line: {ln!r}")
            ids.append(parts[0])
            labels.append(float(parts[1]))
            alpha.append(float(parts[2]))
        return SvmModel(
            alpha=np.array(alpha),
            labels=np.array(labels),
            bias=bias,
            ids=tuple(ids),
            c=c,
            tol=tol,
            spec=spec,
        )
    except (ValueError, IndexError, KeyError) as exc:
        raise SerializationError(f"bad model block: {exc}") from exc
