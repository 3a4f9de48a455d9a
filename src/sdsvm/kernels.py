"""Kernel evaluation on numeric vectors or strings, and Gram matrix assembly.

Feature vectors are never materialized: every downstream computation consumes
only the kernel matrix.  Supported kernels:

  linear       K(a, b) = <a, b>
  rbf          K(a, b) = exp(-gamma * ||a - b||^2)
  polynomial   K(a, b) = (gamma * <a, b> + coef0) ** degree
  spectrum     K(a, b) = <kmer counts of a, kmer counts of b>   (strings)
  precomputed  K(z_i, z_j) = G[i, j]; the data is the n x n Gram G itself
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError, EmptyInput, KernelTypeError
from .rng import check_integer, check_real

# The fields each kernel kind reads, in the order its description prints them.
_KIND_FIELDS = dict(
    linear=(), rbf=("gamma",), polynomial=("gamma", "degree", "coef0"), spectrum=("kmer",), precomputed=()
)
KINDS = tuple(_KIND_FIELDS)

# Vocabulary columns per k-mer count chunk: a chunk is n x this many
# float64s.  At 600 strings, 512 and 2048 took the same time; 512 peaked
# lower.
_KMER_CHUNK = 512

# Rows per block in the in-place passes over an n x n block (RBF distances,
# mirroring): the temporaries stay this many rows instead of n, and a 64-row
# block's five RBF passes run in cache.  At n = 2000, d = 20 (2 vCPUs)
# kernel_matrix took 46-51 ms with 64 rows against 56-61 ms with 512.
_ROW_BLOCK = 64

# Rows of the one scratch buffer per RBF build that holds sq_i + sq_j for a
# row block.  It is sized for 512 rows although a block has 64, because
# glibc's malloc raises its mmap threshold to the largest mmapped block
# freed, and that threshold sets where later arrays live.  With 8 MB freed
# here, as the earlier 512-row temporaries did, the cli-rbf-2000 benchmark
# peaks at 205 MB RSS; with a 64-row buffer, or fresh 64- to 256-row
# temporaries, at 233 MB.  With the threshold pinned (MALLOC_MMAP_THRESHOLD_)
# both read 203 MB.
_SCRATCH_ROWS = 512


def _frozen(values, dtype=np.float64) -> np.ndarray:
    """A read-only, C-ordered copy of values as a dtype array.

    The frozen dataclasses store their array fields through this, so a
    caller's later writes to its own array never reach a stored field.
    """
    arr = np.array(values, dtype=dtype, order="C")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel to use and its hyperparameters.

    The only place kernel identity lives; passed around immutably.  The
    numeric fields must be valid for every kind, used or not, and are stored
    as Python floats and ints; a field the kind does not read is stored at
    its default, so two specs of the same kernel compare equal.  For the
    precomputed kind the data is the Gram matrix itself (see kernel_matrix).
    """

    kind: str = "linear"
    gamma: float = 1.0
    degree: int = 3
    coef0: float = 0.0
    kmer: int = 3

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind {self.kind!r} is an unknown kernel kind; expected one of {KINDS}")
        object.__setattr__(self, "gamma", check_real("gamma", self.gamma, positive=True))
        object.__setattr__(self, "coef0", check_real("coef0", self.coef0))
        for name in ("degree", "kmer"):
            object.__setattr__(self, name, check_integer(name, getattr(self, name), 1))
        for unread in fields(self):
            if unread.name not in ("kind", *_KIND_FIELDS[self.kind]):
                object.__setattr__(self, unread.name, unread.default)

    def describe(self) -> str:
        """The fit report's stable one-line rendering: the kind and the fields it reads."""
        read = (f"{name}={getattr(self, name)!r}" for name in _KIND_FIELDS[self.kind])
        return " ".join((f"kind={self.kind}", *read))


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Symmetric k x k Gram matrix; the sole stand-in for feature space."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _frozen(self.entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionError(f"kernel matrix must be square, got shape {arr.shape}")
        if not np.array_equal(arr, arr.T):
            raise DimensionError("kernel matrix must be exactly symmetric")
        object.__setattr__(self, "entries", arr)

    @property
    def k(self) -> int:
        return self.entries.shape[0]

    def take(self, indices) -> "KernelMatrix":
        """Principal submatrix for the given sample indices (order kept).

        The entries of entries[np.ix_(idx, idx)], gathered as whole rows
        and then columns, one row block at a time: 1,500 of 2,000 rows took
        8 ms against 13-14 ms.  The indices are resolved first (IndexError
        outside the matrix, negative ones counted from the end), so the
        column gather can write straight into the result (mode="clip" is
        unbuffered and never clips).  A principal submatrix of an exactly
        symmetric matrix is exactly symmetric, so the fresh copy skips the
        constructor's checks.
        """
        idx = np.arange(self.k)[np.asarray(indices, dtype=np.intp)]
        out = np.empty((idx.size, idx.size))
        for s in range(0, idx.size, _ROW_BLOCK):
            rows = self.entries[idx[s : s + _ROW_BLOCK]]
            np.take(rows, idx, axis=1, out=out[s : s + _ROW_BLOCK], mode="clip")
        return KernelMatrix._wrap(out)

    @staticmethod
    def _wrap(entries: np.ndarray) -> "KernelMatrix":
        """Freeze and wrap a fresh, exactly symmetric float64 array, unchecked."""
        entries.flags.writeable = False
        out = object.__new__(KernelMatrix)
        object.__setattr__(out, "entries", entries)
        return out


@functools.cache
def _openblas_library():
    """numpy's bundled OpenBLAS (numpy.libs/libscipy_openblas64_*.so) as a
    ctypes library, or None when this numpy ships none; loaded once per
    process."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    path = min(libs.glob("libscipy_openblas64_*.so"), default=None)
    try:
        return None if path is None else ctypes.CDLL(str(path))
    except OSError:  # not loadable
        return None


def openblas_function(name: str, *argtypes):
    """The void function name(*argtypes) of numpy's bundled OpenBLAS, or None
    when this numpy ships no such library or symbol."""
    function = getattr(_openblas_library(), name, None)
    if function is not None:
        function.argtypes, function.restype = argtypes, None
    return function


# cblas_dsyrk(order, uplo, trans, n, k, alpha, a, lda, beta, c, ldc) of the
# 64-bit-integer build: the CBLAS enums are C ints, the sizes int64.
_INT, _LONG, _DOUBLE, _POINTER = ctypes.c_int, ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
_DSYRK_ARGS = (_INT, _INT, _INT, _LONG, _LONG, _DOUBLE, _POINTER, _LONG, _DOUBLE, _POINTER, _LONG)
_ROW_MAJOR, _UPPER, _NO_TRANS = 101, 121, 111


def _plain(a: np.ndarray) -> bool:
    """Whether BLAS can take a's memory as is: aligned, C-ordered float64."""
    return a.dtype == np.float64 and a.flags.c_contiguous and a.flags.aligned


def _upper_gram(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x @ x.T for an (n, d) array x, or out += x @ x.T for an n x n out:
    exact on and above the diagonal only, the rest is left undefined.

    numpy computes x @ x.T with one cblas_dsyrk call for the upper triangle
    and then copies it into the lower one element by element, most of the
    product's time (12 of 15 ms at 2000 x 20).  This makes the same call on
    the same library, so the upper triangle keeps its bits, without the
    copy.  Fewer than 2 samples (where numpy takes its dot path), no
    features (which OpenBLAS rejects), arrays BLAS cannot take as they are,
    or no bundled OpenBLAS take x @ x.T itself.
    """
    n, d = x.shape
    dsyrk = openblas_function("scipy_cblas_dsyrk64_", *_DSYRK_ARGS)
    fits = out is None or (_plain(out) and out.shape == (n, n) and out.flags.writeable)
    if dsyrk is None or n < 2 or d == 0 or not (_plain(x) and fits):
        return x @ x.T if out is None else np.add(out, x @ x.T, out=out)
    beta = 0.0 if out is None else 1.0
    out = np.empty((n, n)) if out is None else out
    dsyrk(_ROW_MAJOR, _UPPER, _NO_TRANS, n, d, 1.0, x.ctypes.data, d, beta, out.ctypes.data, n)
    return out


def _spectrum_block(a: list, b: list | None, kmer: int) -> np.ndarray:
    """Shared k-mer counts between strings a_i and b_j (b=None: a with itself,
    on and above the diagonal only).

    Every k-mer occurrence becomes its string's row and its k-mer's column in
    the sorted joint vocabulary, and the block accumulates C C^T over chunks
    of _KMER_CHUNK columns of the count table C.  Counts are integers, so
    every entry is exact below 2**53 however the columns are chunked.
    """
    strings = a if b is None else a + b
    na = len(a)
    out = np.zeros((na, na if b is None else len(b)))
    lengths = np.array([len(s) for s in strings])
    spans = np.maximum(lengths - kmer + 1, 0)
    rows = np.repeat(np.arange(len(strings)), spans)
    if not rows.size:
        return out
    offsets = np.cumsum(lengths) - lengths  # of each string in the joined strings
    firsts = np.cumsum(spans) - spans  # index of each string's first occurrence
    starts = offsets[rows] + np.arange(rows.size) - firsts[rows]
    # One uint32 code point per character; each k-mer's kmer code points
    # are read back as one fixed-width numpy string.
    codes = np.array("".join(strings)).reshape(1).view(np.uint32)
    words = sliding_window_view(codes, kmer)[starts].view(f"U{kmer}").ravel()
    vocab, cols = np.unique(words, return_inverse=True)
    order = np.argsort(cols)
    rows, cols = rows[order], cols[order]
    for start in range(0, vocab.size, _KMER_CHUNK):
        lo, hi = np.searchsorted(cols, (start, start + _KMER_CHUNK))
        counts = np.zeros((len(strings), _KMER_CHUNK))
        np.add.at(counts, (rows[lo:hi], cols[lo:hi] - start), 1.0)
        if b is None:
            _upper_gram(counts, out)
        else:
            out += counts[:na] @ counts[na:].T
    return out


def _mirror_upper(m: np.ndarray) -> np.ndarray:
    """Keep the i <= j entries and mirror them in place, making symmetry exact.

    The values are those of triu(m) + triu(m, 1).T, -0.0 turning into 0.0.
    Rows go block by block, so no copy of the whole matrix is made: a
    block's diagonal corner is mirrored first, then its rows from the
    diagonal on are normalized and checked (DimensionError when an entry is
    not finite), and their transpose is written once to the column strip
    below.  The entries below the diagonal are never read, so they may hold
    anything.
    """
    n = m.shape[0]
    for s in range(0, n, _ROW_BLOCK):
        e = min(s + _ROW_BLOCK, n)
        corner = m[s:e, s:e]
        lower = np.tri(e - s, k=-1, dtype=bool)
        corner[lower] = corner.T[lower]
        kept = m[s:e, s:]
        kept += 0.0
        _check_finite(kept)
        m[e:, s:e] = m[s:e, e:].T
    return m


def _vectors(spec: KernelSpec, x) -> np.ndarray:
    """x as a C-contiguous (n, d) float64 array, without a copy if it is
    one; KernelTypeError when a sample is not a vector of numbers."""
    if not (isinstance(x, np.ndarray) and x.ndim == 2):
        x = list(x)
        for pos, row in enumerate(x):
            if np.ndim(row) != 1:
                raise KernelTypeError(
                    f"{spec.kind} kernel requires vectors; sample {pos} is a {type(row).__name__}"
                )
            if len(row) != len(x[0]):
                raise DimensionError(f"sample {pos} has dimension {len(row)}, expected {len(x[0])}")
    try:
        return np.ascontiguousarray(x, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise KernelTypeError(f"{spec.kind} kernel requires numbers: {exc}") from None


def _sized(spec: KernelSpec, x):
    """x itself, or KernelTypeError when it is not a sized collection of samples."""
    try:
        len(x)
    except TypeError:
        raise KernelTypeError(
            f"{spec.kind} kernel requires a sequence of samples, got {type(x).__name__}"
        ) from None
    return x


def _strings(x) -> list:
    strings = list(x)
    for pos, s in enumerate(strings):
        if not isinstance(s, str):
            raise KernelTypeError(
                f"spectrum kernel requires strings; sample {pos} is a {type(s).__name__}"
            )
    return strings


@np.errstate(over="ignore", invalid="ignore")
def _block(spec: KernelSpec, a, b=None) -> np.ndarray:
    """K(a_i, b_j) over two sample collections; b=None means the square block.

    The single place that branches on a computed kernel's kind (a given
    Gram never comes here: kernel_matrix checks it, kernel_cross rejects
    it).  The square block keeps the arithmetic its exactness rests on: the
    upper triangle of one symmetric BLAS product (_upper_gram), RBF norms
    read from the Gram diagonal with the distance diagonal pinned to zero
    (so exp(0) == 1 exactly), and exact integer k-mer counts for spectrum.
    Only the square block's entries on and above the diagonal are defined:
    kernel_matrix mirrors them, so the RBF and polynomial passes skip the
    rest.  Overflow stays quiet here; callers check the entries they keep.
    The inputs are never written to.
    """
    square = b is None
    if len(a) == 0 or (not square and len(b) == 0):
        raise EmptyInput("a kernel block needs at least one sample on each side")
    if spec.kind == "spectrum":
        return _spectrum_block(_strings(a), None if square else _strings(b), spec.kmer)
    xa = _vectors(spec, a)
    xb = xa if square else _vectors(spec, b)
    if xa.shape[1] != xb.shape[1]:
        raise DimensionError(f"dimension {xa.shape[1]} on one side, {xb.shape[1]} on the other")
    gram = _upper_gram(xa) if square else xa @ xb.T
    if spec.kind == "linear":
        return gram
    # The passes run in place on gram, one row block at a time.  The square
    # block computes only the columns from its block's first row on:
    # kernel_matrix mirrors the upper triangle over the rest.
    n_rows, n_cols = gram.shape
    blocks = [(s, s if square else 0) for s in range(0, n_rows, _ROW_BLOCK)]
    if spec.kind == "polynomial":
        for s, first in blocks:
            rows = gram[s : s + _ROW_BLOCK, first:]
            rows *= spec.gamma
            rows += spec.coef0
            rows **= spec.degree
        return gram
    if square:
        sq_a = sq_b = np.diag(gram).copy()  # gram is overwritten below
    else:
        sq_a, sq_b = np.sum(xa * xa, axis=1), np.sum(xb * xb, axis=1)
    # exp(-gamma * max(sq_a + sq_b - 2 gram, 0)) step by step, with
    # sq_a + sq_b in one scratch buffer.
    scratch = np.empty(min(_SCRATCH_ROWS, n_rows) * n_cols)
    for s, first in blocks:
        rows = gram[s : s + _ROW_BLOCK, first:]
        sums = scratch[: rows.size].reshape(rows.shape)
        np.add(sq_a[s : s + _ROW_BLOCK, None], sq_b[None, first:], out=sums)
        rows *= 2.0
        np.subtract(sums, rows, out=rows)
        np.maximum(rows, 0.0, out=rows)
        if square:
            np.fill_diagonal(rows, 0.0)
        rows *= -spec.gamma
        np.exp(rows, out=rows)
    return gram


def _check_finite(block: np.ndarray) -> np.ndarray:
    """block itself, or DimensionError when an entry is inf or nan.

    Huge finite inputs (1e200) overflow the products; the overflow is
    reported here rather than as numpy warnings and a failure further on.
    """
    if not np.all(np.isfinite(block)):
        raise DimensionError("kernel block has non-finite entries")
    return block


def kernel_matrix(spec: KernelSpec, x) -> KernelMatrix:
    """Gram matrix over a nonempty (n, d) array or sequence of strings.

    Each unordered pair is represented by its upper-triangle value and
    mirrored, so entries[i, j] == entries[j, i] holds exactly.  Raises
    DimensionError when an entry is not finite.  For the precomputed kind x
    is the n x n Gram itself, copied but never mirrored: DimensionError when
    it is not square, not finite or not exactly symmetric, KernelTypeError
    when it does not hold numbers or is not a sequence.
    """
    x = _sized(spec, x)
    if spec.kind == "precomputed":
        return KernelMatrix(_check_finite(_vectors(spec, x)))
    return KernelMatrix._wrap(_mirror_upper(_block(spec, x)))


def kernel_cross(spec: KernelSpec, a, b) -> np.ndarray:
    """Rectangular block K(a_i, b_j); used for scoring new samples.

    Raises DimensionError when an entry is not finite, and KernelTypeError
    for the precomputed kind, whose one Gram holds no new samples, or when
    a or b is not a sequence.
    """
    if spec.kind == "precomputed":
        raise KernelTypeError("precomputed kernel has no cross block: its samples are rows of one Gram")
    return _check_finite(_block(spec, _sized(spec, a), _sized(spec, b)))
