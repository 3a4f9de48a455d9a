"""Kernel evaluation on numeric vectors or strings, and Gram matrix assembly.

Feature vectors are never materialized: every downstream computation consumes
only the kernel matrix.  Supported kernels:

  linear       K(a, b) = <a, b>
  rbf          K(a, b) = exp(-gamma * ||a - b||^2)
  polynomial   K(a, b) = (gamma * <a, b> + coef0) ** degree
  spectrum     K(a, b) = <kmer counts of a, kmer counts of b>   (strings)
  precomputed  K(a, b) = M[index(a), index(b)] for a user-supplied Gram M
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, EmptyInput, KernelTypeError

KINDS = ("linear", "rbf", "polynomial", "spectrum", "precomputed")

# Above this many distinct k-mers the dense count table is replaced by
# sparse dictionaries.
_DENSE_KMER_LIMIT = 2**20


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel to use and its hyperparameters.

    The only place kernel identity lives; passed around immutably.  For the
    precomputed kind, `matrix` holds the full Gram matrix and samples are
    keys into it: integer row indices or (when `ids` is given) string ids.
    """

    kind: str = "linear"
    gamma: float = 1.0
    degree: int = 3
    coef0: float = 0.0
    kmer: int = 3
    matrix: np.ndarray | None = field(default=None, repr=False)
    ids: tuple | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; expected one of {KINDS}")
        if self.kind in ("rbf", "polynomial") and not self.gamma > 0:
            raise ValueError(f"{self.kind} kernel requires gamma > 0, got {self.gamma}")
        if self.kind == "polynomial" and (int(self.degree) != self.degree or self.degree < 1):
            raise ValueError(f"polynomial kernel requires integer degree >= 1, got {self.degree}")
        if self.kind == "spectrum" and (int(self.kmer) != self.kmer or self.kmer < 1):
            raise ValueError(f"spectrum kernel requires integer kmer >= 1, got {self.kmer}")
        if self.kind == "precomputed":
            m = self.matrix
            if m is None:
                raise ValueError("precomputed kernel requires a matrix")
            m = np.asarray(m, dtype=np.float64)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"precomputed matrix must be square, got shape {m.shape}")
            if not np.array_equal(m, m.T):
                raise ValueError("precomputed matrix must be symmetric")
            m = m.copy()
            m.flags.writeable = False
            object.__setattr__(self, "matrix", m)
            if self.ids is not None and len(self.ids) != m.shape[0]:
                raise ValueError("ids length must match matrix size")

    def describe(self) -> str:
        """Stable single-line rendering used by the serialization formats."""
        if self.kind == "rbf":
            return f"kind=rbf gamma={self.gamma!r}"
        if self.kind == "polynomial":
            return f"kind=polynomial gamma={self.gamma!r} degree={self.degree} coef0={self.coef0!r}"
        if self.kind == "spectrum":
            return f"kind=spectrum kmer={self.kmer}"
        return f"kind={self.kind}"


def parse_spec(text: str) -> "KernelSpec":
    """Inverse of KernelSpec.describe (precomputed loses its matrix)."""
    fields = dict(tok.split("=", 1) for tok in text.split())
    kind = fields.pop("kind")
    if kind == "precomputed":
        # The matrix itself never goes through text serialization; a
        # placeholder identity keeps the spec constructible for bookkeeping.
        return KernelSpec(kind="precomputed", matrix=np.zeros((0, 0)))
    kwargs = {}
    if "gamma" in fields:
        kwargs["gamma"] = float(fields["gamma"])
    if "degree" in fields:
        kwargs["degree"] = int(fields["degree"])
    if "coef0" in fields:
        kwargs["coef0"] = float(fields["coef0"])
    if "kmer" in fields:
        kwargs["kmer"] = int(fields["kmer"])
    return KernelSpec(kind=kind, **kwargs)


@dataclass(frozen=True)
class KernelMatrix:
    """Symmetric k x k Gram matrix; the sole stand-in for feature space."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionError(f"kernel matrix must be square, got shape {arr.shape}")
        if not np.array_equal(arr, arr.T):
            raise DimensionError("kernel matrix must be exactly symmetric")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def k(self) -> int:
        return self.entries.shape[0]

    def take(self, indices) -> "KernelMatrix":
        """Principal submatrix for the given sample indices (order kept).

        A principal submatrix of an exactly symmetric matrix is exactly
        symmetric, so the fresh copy skips the constructor's checks.
        """
        idx = np.asarray(indices, dtype=np.intp)
        sub = self.entries[np.ix_(idx, idx)]
        sub.flags.writeable = False
        out = object.__new__(KernelMatrix)
        object.__setattr__(out, "entries", sub)
        return out


def _kmer_vocabulary(strings, kmer):
    """Sorted tuple of every distinct k-mer occurring in the strings."""
    vocab = set()
    for s in strings:
        for i in range(len(s) - kmer + 1):
            vocab.add(s[i : i + kmer])
    return tuple(sorted(vocab))


def _kmer_count_rows(strings, kmer):
    """Count matrix (n_strings x n_distinct_kmers) over the joint vocabulary.

    A dense table is used while the vocabulary stays small (the usual case for
    biological alphabets); beyond _DENSE_KMER_LIMIT distinct k-mers the counts
    go through per-string dictionaries instead.
    """
    vocab = _kmer_vocabulary(strings, kmer)
    if len(vocab) <= _DENSE_KMER_LIMIT:
        index = {w: i for i, w in enumerate(vocab)}
        rows = np.zeros((len(strings), max(len(vocab), 1)))
        for r, s in enumerate(strings):
            for i in range(len(s) - kmer + 1):
                rows[r, index[s[i : i + kmer]]] += 1.0
        return rows
    counts = []
    for s in strings:
        d = {}
        for i in range(len(s) - kmer + 1):
            w = s[i : i + kmer]
            d[w] = d.get(w, 0) + 1
        counts.append(d)
    return counts


def _kmer_dot(c1, c2) -> float:
    small, large = (c1, c2) if len(c1) <= len(c2) else (c2, c1)
    return float(sum(v * large.get(w, 0) for w, v in small.items()))


def _mirror_upper(m: np.ndarray) -> np.ndarray:
    """Keep the i <= j entries and mirror them in place, making symmetry exact.

    The values are those of triu(m) + triu(m, 1).T, -0.0 turning into 0.0.
    """
    m += 0.0
    np.copyto(m, m.T, where=np.tri(m.shape[0], k=-1, dtype=bool))
    return m


def _vectors(spec: KernelSpec, x) -> np.ndarray:
    """x as a C-contiguous (n, d) float64 array, without a copy if it is one."""
    if isinstance(x, np.ndarray) and x.ndim == 2:
        return np.ascontiguousarray(x, dtype=np.float64)
    rows = list(x)
    for pos, row in enumerate(rows):
        if np.ndim(row) != 1:
            raise KernelTypeError(
                f"{spec.kind} kernel requires vectors; sample {pos} is a {type(row).__name__}"
            )
        if len(row) != len(rows[0]):
            raise DimensionError(f"sample {pos} has dimension {len(row)}, expected {len(rows[0])}")
    return np.array(rows, dtype=np.float64)


def _strings(x) -> list:
    strings = list(x)
    for pos, s in enumerate(strings):
        if not isinstance(s, str):
            raise KernelTypeError(
                f"spectrum kernel requires strings; sample {pos} is a {type(s).__name__}"
            )
    return strings


def _matrix_rows(spec: KernelSpec, keys) -> np.ndarray:
    """Rows of the precomputed matrix for integer indices or ids from spec.ids."""
    row_of = {}
    for i, key in enumerate(spec.ids or ()):
        row_of.setdefault(key, i)  # the first row carrying an id wins
    size = spec.matrix.shape[0]
    rows = []
    for key in keys:
        if isinstance(key, str):
            if key not in row_of:
                raise KernelTypeError(f"key {key!r} not among the precomputed ids")
            rows.append(row_of[key])
        elif isinstance(key, (int, np.integer)):
            if not 0 <= key < size:
                raise DimensionError(f"precomputed index {key} outside matrix of size {size}")
            rows.append(int(key))
        else:
            raise KernelTypeError("precomputed kernel requires integer-index or id keys")
    return np.array(rows, dtype=np.intp)


def _block(spec: KernelSpec, a, b=None) -> np.ndarray:
    """K(a_i, b_j) over two sample collections; b=None means the square block.

    The single place that branches on the kernel kind.  The square block
    keeps the arithmetic its exactness rests on: one x @ x.T product (the
    symmetric BLAS path), RBF norms read from the Gram diagonal with the
    distance diagonal pinned to zero (so exp(0) == 1 exactly), and one k-mer
    count table for spectrum.  The inputs are never written to.
    """
    square = b is None
    if len(a) == 0 or (not square and len(b) == 0):
        raise EmptyInput("a kernel block needs at least one sample on each side")
    if spec.kind == "spectrum":
        na = len(a)
        rows = _kmer_count_rows(_strings(a) if square else _strings(a) + _strings(b), spec.kmer)
        if isinstance(rows, np.ndarray):
            return rows @ rows.T if square else rows[:na] @ rows[na:].T
        rows_b = rows if square else rows[na:]
        out = np.zeros((na, len(rows_b)))
        for i in range(na):
            for j in range(len(rows_b)):
                out[i, j] = _kmer_dot(rows[i], rows_b[j])
        return out
    if spec.kind == "precomputed":
        ia = _matrix_rows(spec, a)
        ib = ia if square else _matrix_rows(spec, b)
        return spec.matrix[np.ix_(ia, ib)]
    xa = _vectors(spec, a)
    xb = xa if square else _vectors(spec, b)
    if xa.shape[1] != xb.shape[1]:
        raise DimensionError(f"dimension {xa.shape[1]} on one side, {xb.shape[1]} on the other")
    gram = xa @ xb.T
    if spec.kind == "linear":
        return gram
    if spec.kind == "polynomial":
        return (spec.gamma * gram + spec.coef0) ** spec.degree
    if square:
        sq_a = sq_b = np.diag(gram)
    else:
        sq_a, sq_b = np.sum(xa * xa, axis=1), np.sum(xb * xb, axis=1)
    # exp(-gamma * max(sq_a + sq_b - 2 gram, 0)), step by step in place so
    # that no more than two blocks are alive at once.  The square norms view
    # the Gram diagonal, so d2 is formed before gram is scaled.
    d2 = sq_a[:, None] + sq_b[None, :]
    gram *= 2.0
    d2 -= gram
    np.maximum(d2, 0.0, out=d2)
    if square:
        np.fill_diagonal(d2, 0.0)
    d2 *= -spec.gamma
    return np.exp(d2, out=d2)


def kernel_matrix(spec: KernelSpec, x) -> KernelMatrix:
    """Gram matrix over a nonempty (n, d) array, sequence of strings, or of precomputed keys.

    Each unordered pair is represented by its upper-triangle value and
    mirrored, so entries[i, j] == entries[j, i] holds exactly.
    """
    return KernelMatrix(_mirror_upper(_block(spec, x)))


def kernel_cross(spec: KernelSpec, a, b) -> np.ndarray:
    """Rectangular block K(a_i, b_j); used for scoring new samples."""
    return _block(spec, a, b)


def eval_kernel(spec: KernelSpec, a, b) -> float:
    """K(a, b) for a single pair of samples, through the square block."""
    return float(kernel_matrix(spec, [a, b]).entries[0, 1])
