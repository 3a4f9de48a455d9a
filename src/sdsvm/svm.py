"""Soft-margin SVM dual solver and classifier evaluation.

Solves

    max_a  sum a_i - 1/2 sum_ij a_i a_j y_i y_j K(x_i, x_j)
    s.t.   0 <= a_i <= C,   sum a_i y_i = 0

with a two-variable decomposition: each iteration picks the maximal violating
pair and moves the two coefficients along the equality constraint.  The whole
kernel matrix is held in memory (problems here are at most a few hundred
rows), so no shrinking or row caching is needed.  The classifier is

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
from .kernels import KernelMatrix, KernelSpec, parse_spec

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

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=np.float64).copy()
        y = np.asarray(self.labels, dtype=np.float64).copy()
        a.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "ids", tuple(self.ids))

    @property
    def n_retained(self) -> int:
        return self.alpha.shape[0]


def dual_objective(omega: KernelMatrix, labels, alpha) -> float:
    """Value of the dual objective at a coefficient vector."""
    a = np.asarray(alpha, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    q = np.outer(y, y) * omega.entries
    return float(a.sum() - 0.5 * a @ q @ a)


def solve_dual(
    omega_t: KernelMatrix,
    labels,
    c: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    spec: KernelSpec | None = None,
    ids=None,
) -> SvmModel:
    """Solve the dual on the retained set's kernel matrix and its -1/+1 labels.

    The model records `ids` for its retained samples, 0..n-1 when none are
    given.

    Convergence criterion is the maximal KKT violation m(a) - M(a) <= tol.
    Raises SingleClassError when one class is absent and ConvergenceError
    (carrying the residual violation) when the pair-update cap is hit or the
    violation turns nan.
    """
    y = np.asarray(labels, dtype=np.float64).ravel()
    n = y.shape[0]
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if omega_t.k != n:
        raise DimensionError(f"kernel matrix is {omega_t.k}x{omega_t.k} but {n} labels given")
    n_minus = int(np.count_nonzero(y < 0))
    if n_minus == 0 or n_minus == n:
        raise SingleClassError(f"training needs both classes, got n-={n_minus} n+={n - n_minus}")
    if not c > 0:
        raise ValueError(f"C must be positive, got {c}")
    kk = omega_t.entries

    # Work in beta = y * alpha: bounds become [A, B] per sample and both
    # selection criteria read off y * g with g = 1 - y * (K beta).
    beta = np.zeros(n)
    g = np.ones(n)
    upper = np.where(y > 0, c, 0.0)
    lower = np.where(y > 0, 0.0, -c)

    iterations = 0
    gap = np.inf
    while iterations < max_iter:
        iterations += 1
        yg = y * g
        up_vals = np.where(beta < upper, yg, -np.inf)
        low_vals = np.where(beta > lower, yg, np.inf)
        i = int(np.argmax(up_vals))
        j = int(np.argmin(low_vals))
        gap = up_vals[i] - low_vals[j]
        if not gap > tol:
            if np.isnan(gap):
                raise ConvergenceError(
                    f"KKT violation became nan after {iterations - 1} pair updates",
                    max_violation=float(gap),
                )
            break
        quad = max(kk[i, i] + kk[j, j] - 2.0 * kk[i, j], _CURVATURE_FLOOR)
        lam = min(upper[i] - beta[i], beta[j] - lower[j], gap / quad)
        # Pin to the box exactly so bound membership stays an exact test.
        beta[i] = min(upper[i], beta[i] + lam)
        beta[j] = max(lower[j], beta[j] - lam)
        g += y * lam * (kk[j] - kk[i])
    else:
        raise ConvergenceError(
            f"no convergence after {max_iter} pair updates (KKT violation {gap:.3e})",
            max_violation=float(gap),
        )

    alpha = y * beta
    yg = y * g
    free = (alpha > _INTERIOR_TOL) & (alpha < c - _INTERIOR_TOL)
    if np.any(free):
        bias = float(np.mean(yg[free]))
    else:
        lo = float(np.max(np.where(beta < upper, yg, -np.inf)))
        hi = float(np.min(np.where(beta > lower, yg, np.inf)))
        bias = 0.5 * (lo + hi)

    return SvmModel(
        alpha=alpha,
        labels=y,
        bias=bias,
        ids=range(n) if ids is None else ids,
        c=float(c),
        tol=float(tol),
        spec=spec,
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


def decision_value(model: SvmModel, omega_row) -> float:
    """f(x) from the kernel values K(x_i, x) against the retained set."""
    column = np.asarray(omega_row, dtype=np.float64).reshape(-1, 1)
    return float(decision_values(model, column)[0])


def predict(model: SvmModel, omega_row) -> int:
    """Predicted label sign(f); f == 0 resolves to +1."""
    return int(sign_labels(decision_value(model, omega_row)))


_MODEL_HEADER = "sdsvm-model-v1"


def model_to_text(model: SvmModel) -> str:
    """Versioned plain-text form; doubles use shortest round-trip decimals."""
    if model.spec is None:
        raise SerializationError("model has no kernel spec attached")
    lines = [f"{_MODEL_HEADER} {model.spec.describe()} C={float(model.c)!r} tol={float(model.tol)!r}"]
    for sid, label, a in zip(model.ids, model.labels, model.alpha):
        text_id = str(sid)
        if any(ch.isspace() for ch in text_id):
            raise SerializationError(f"id {text_id!r} contains whitespace")
        lines.append(f"{text_id} {int(label)} {float(a)!r}")
    lines.append(f"bias {float(model.bias)!r}")
    return "\n".join(lines) + "\n"


def model_from_text(text: str) -> SvmModel:
    """Inverse of model_to_text (samples are not serialized).

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
