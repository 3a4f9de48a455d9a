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
    precomputed kind, `matrix` holds the full Gram matrix and samples carry
    either integer row indices or (when `ids` is given) string ids as payload.
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
class Sample:
    """One observation: an opaque id plus a vector or string payload."""

    id: object
    payload: object

    def __post_init__(self):
        p = self.payload
        if isinstance(p, str):
            return
        if isinstance(p, (int, np.integer)):
            return  # row index into a precomputed matrix
        arr = np.asarray(p, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"vector payload must be 1-D, got shape {arr.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "payload", arr)

    @property
    def kind(self) -> str:
        if isinstance(self.payload, str):
            return "string"
        if isinstance(self.payload, (int, np.integer)):
            return "index"
        return "vector"


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
        """Principal submatrix for the given sample indices (order kept)."""
        idx = np.asarray(indices, dtype=np.intp)
        return KernelMatrix(self.entries[np.ix_(idx, idx)])


def _require_vectors(spec, samples):
    for pos, s in enumerate(samples):
        if s.kind != "vector":
            raise KernelTypeError(
                f"{spec.kind} kernel requires vector payloads; sample {pos} (id {s.id!r}) is {s.kind}"
            )
    first = samples[0].payload.shape[0]
    for pos, s in enumerate(samples):
        if s.payload.shape[0] != first:
            raise DimensionError(
                f"sample {pos} (id {s.id!r}) has dimension {s.payload.shape[0]}, expected {first}"
            )


def _require_strings(spec, samples):
    for pos, s in enumerate(samples):
        if s.kind != "string":
            raise KernelTypeError(
                f"spectrum kernel requires string payloads; sample {pos} (id {s.id!r}) is {s.kind}"
            )


def _precomputed_index(spec, sample):
    if isinstance(sample.payload, str):
        if spec.ids is None:
            raise KernelTypeError("precomputed kernel got a string payload but spec has no ids")
        try:
            return spec.ids.index(sample.payload)
        except ValueError:
            raise KernelTypeError(f"payload {sample.payload!r} not among precomputed ids") from None
    if isinstance(sample.payload, (int, np.integer)):
        idx = int(sample.payload)
        if not 0 <= idx < spec.matrix.shape[0]:
            raise DimensionError(f"precomputed index {idx} outside matrix of size {spec.matrix.shape[0]}")
        return idx
    raise KernelTypeError("precomputed kernel requires integer-index or id payloads")


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


def _block(spec: KernelSpec, samples_a, samples_b=None) -> np.ndarray:
    """K(a_i, b_j) over two sample lists; samples_b=None means the square block.

    The single place that branches on the kernel kind.  The square block
    keeps the arithmetic its exactness rests on: one x @ x.T product (the
    symmetric BLAS path), RBF norms read from the Gram diagonal with the
    distance diagonal pinned to zero (so exp(0) == 1 exactly), and one k-mer
    count table for spectrum.
    """
    square = samples_b is None
    a = list(samples_a)
    b = a if square else list(samples_b)
    if not a or not b:
        raise EmptyInput("a kernel block needs at least one sample on each side")
    both = a if square else a + b
    if spec.kind == "spectrum":
        _require_strings(spec, both)
        rows = _kmer_count_rows([s.payload for s in both], spec.kmer)
        na = len(a)
        if isinstance(rows, np.ndarray):
            return rows @ rows.T if square else rows[:na] @ rows[na:].T
        rows_b = rows if square else rows[na:]
        out = np.zeros((na, len(b)))
        for i in range(na):
            for j in range(len(b)):
                out[i, j] = _kmer_dot(rows[i], rows_b[j])
        return out
    if spec.kind == "precomputed":
        ia = np.array([_precomputed_index(spec, s) for s in a], dtype=np.intp)
        ib = ia if square else np.array([_precomputed_index(spec, s) for s in b], dtype=np.intp)
        return spec.matrix[np.ix_(ia, ib)]
    _require_vectors(spec, both)
    xa = np.vstack([s.payload for s in a])
    xb = xa if square else np.vstack([s.payload for s in b])
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


def kernel_matrix(spec: KernelSpec, samples) -> KernelMatrix:
    """Gram matrix over a nonempty list of homogeneous samples.

    Each unordered pair is represented by its upper-triangle value and
    mirrored, so entries[i, j] == entries[j, i] holds exactly.
    """
    return KernelMatrix(_mirror_upper(_block(spec, samples)))


def kernel_cross(spec: KernelSpec, samples_a, samples_b) -> np.ndarray:
    """Rectangular block K(a_i, b_j); used for scoring new samples."""
    return _block(spec, samples_a, samples_b)


def eval_kernel(spec: KernelSpec, a: Sample, b: Sample) -> float:
    """K(a, b) for a single pair of samples, through the square block."""
    return float(kernel_matrix(spec, (a, b)).entries[0, 1])
