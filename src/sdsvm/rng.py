"""Deterministic counter-based random streams.

Every random draw in this package comes from a keyed counter stream so that
results depend only on user-supplied seeds, never on call order, thread
scheduling or process state.  The construction is small enough to re-implement
from this description alone:

  mix64(x):   x ^= x >> 30;  x *= 0xBF58476D1CE4E5B9
              x ^= x >> 27;  x *= 0x94D049BB133111EB
              x ^= x >> 31           (all mod 2**64)

  key derivation:  key0 = mix64(seed + GOLDEN)
                   key  = mix64(key ^ mix64(word + GOLDEN))   per extra word,
                   where string words are first folded to 64 bits with FNV-1a.

  output c of a stream:  mix64(key + (c + 1) * GOLDEN)    c = 0, 1, 2, ...
  uniform in [0, 1):     top 53 bits / 2**53
  normals:               Box-Muller on consecutive uniform pairs (u0, u1):
                         r = sqrt(-2 ln(1 - u0));  z0 = r cos(2 pi u1),
                         z1 = r sin(2 pi u1)

GOLDEN = 0x9E3779B97F4A7C15.  Streams derived from distinct word tuples are
independent for practical purposes and can be consumed in any order.

Output c is a pure function of (key, c), so any block of outputs can be made
on its own from its first counter.  Stream.normals makes its pairs in blocks
of _NORMAL_BLOCK, in order, on the calling thread, and the values are those
of one pass over all pairs.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U_GOLDEN = np.uint64(_GOLDEN)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)
_U11, _U27, _U30, _U31 = (np.uint64(s) for s in (11, 27, 30, 31))

# Box-Muller pairs per block of Stream.normals.
_NORMAL_BLOCK = 16_384


def _mix64(x: int) -> int:
    x &= _MASK64
    x ^= x >> 30
    x = (x * _MIX1) & _MASK64
    x ^= x >> 27
    x = (x * _MIX2) & _MASK64
    x ^= x >> 31
    return x


def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & _MASK64
    return h


def check_integer(name: str, value, least: int | None = None) -> int:
    """value as an int.  Raise ValueError, its message starting with name,
    unless value is a Python or numpy integer, not a bool, and >= least
    when least is given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


def check_real(name: str, value, positive: bool = False, nan: bool = False) -> float:
    """value as a float.  Raise ValueError, its message starting with name,
    unless value is a Python or numpy real number, not a bool, that is
    finite (and > 0 if positive) or, if nan, nan."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf if value > 0 else -math.inf
    if not (0 < number < math.inf if positive else math.isfinite(number) or nan and math.isnan(number)):
        rule = "positive and finite" if positive else "finite"
        raise ValueError(f"{name} must be {rule}, got {value}")
    return number


def check_reals(name: str, values, positive: bool = False) -> tuple:
    """values as a nonempty tuple of floats, each one checked by check_real
    under name; a ValueError, its message starting with name, for anything
    else (a string, a number, an empty sequence)."""
    try:
        items = () if isinstance(values, (str, bytes)) else tuple(values)
    except TypeError:
        items = ()
    if not items:
        raise ValueError(f"{name} must be a nonempty sequence of real numbers, got {values!r}")
    return tuple(check_real(name, value, positive) for value in items)


def check_seed(seed) -> int:
    """seed as an int.  Raise ValueError unless seed is an integer (see
    check_integer) in [0, 2^64), the seeds derive_key tells apart."""
    seed = check_integer("seed", seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    return seed


def check_labels(name: str, labels: np.ndarray) -> np.ndarray:
    """labels, a float array.  Raise ValueError, its message starting with
    name, unless every entry is -1 or +1."""
    if not (np.abs(labels) == 1.0).all():
        raise ValueError(f"{name} must be -1 or +1")
    return labels


def derive_key(seed: int, *words) -> int:
    """Fold a seed and a tuple of ints/strings into a 64-bit stream key."""
    key = _mix64((int(seed) + _GOLDEN) & _MASK64)
    for word in words:
        value = _fnv1a64(word) if isinstance(word, str) else int(word) & _MASK64
        key = _mix64(key ^ _mix64((value + _GOLDEN) & _MASK64))
    return key


def _uniforms(x, steps, base, scratch):
    """The uniforms of outputs base + steps[j], written in scratch's memory.

    base + steps[j] is key + (c + 1) * GOLDEN (mod 2**64) for the counter c
    of value j.  The mix runs in x, with scratch (uint64, x's size) for the
    shifts; scratch may be steps itself.  No array of x's size is allocated.
    """
    np.add(steps, base, out=x)
    np.right_shift(x, _U30, scratch)
    x ^= scratch
    x *= _U_MIX1
    np.right_shift(x, _U27, scratch)
    x ^= scratch
    x *= _U_MIX2
    np.right_shift(x, _U31, scratch)
    x ^= scratch
    x >>= _U11
    u = scratch.view(np.float64)
    np.copyto(u, x.view(np.int64), casting="unsafe")  # exact: x < 2**53
    u *= 2.0**-53
    return u


def _steps(n: int) -> np.ndarray:
    """(j + 1) * GOLDEN mod 2**64 for j < n: the offsets of n consecutive outputs."""
    steps = np.arange(1, n + 1, dtype=np.uint64)
    steps *= _U_GOLDEN
    return steps


def _box_muller(z, steps, base, shifted, trig):
    """Fill z (an even number of doubles) with the normal pairs of the uniform
    pairs at outputs base + steps[j], in z's own memory.

    shifted (uint64) and trig (float64) are scratch of at least z.size and
    z.size / 2 values; a call allocates no array of z's size.
    """
    u = _uniforms(z.view(np.uint64), steps[: z.size], base, shifted[: z.size])
    u0, u1 = u[0::2], u[1::2]
    z0, z1 = z[0::2], z[1::2]
    radius = trig[: u1.size]
    np.subtract(1.0, u0, out=radius)  # 1 - u0 in (0, 1]: keeps log() finite
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    u1 *= 2.0 * np.pi  # angle
    np.cos(u1, out=z0)
    np.sin(u1, out=z1)
    z0 *= radius
    z1 *= radius


class Stream:
    """Sequential consumer of one keyed counter stream."""

    def __init__(self, key: int):
        self.key = int(key) & _MASK64
        self._counter = 0

    def _take(self, n: int) -> int:
        """Consume n outputs; key + GOLDEN * (first counter) mod 2**64, the
        base that _steps offsets."""
        base = (self.key + self._counter * _GOLDEN) & _MASK64
        self._counter += n
        return base

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles uniform in [0, 1)."""
        steps = _steps(n)
        return _uniforms(np.empty(n, dtype=np.uint64), steps, np.uint64(self._take(n)), steps)

    def normals(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """n standard normal doubles via Box-Muller on uniform pairs.

        Fills and returns out, a C-contiguous float64 array of n values, or
        a fresh array.  The pairs are made _NORMAL_BLOCK at a time, in order,
        in the array's own memory, with one steps table and one scratch set
        of a block's size; a block depends only on its first counter, so the
        values are those of one pass over all pairs.  For an odd n the last
        pair's second value is dropped, and the stream continues past it.
        """
        if out is None:
            out = np.empty(n)
        elif out.dtype != np.float64 or out.size != n or not out.flags.c_contiguous:
            raise ValueError(f"out must be a C-contiguous float64 array of {n} values")
        z = out.reshape(-1)
        pairs = n // 2
        width = min(_NORMAL_BLOCK, pairs)
        steps, base = _steps(2 * width), self._take(2 * pairs)
        shifted, trig = np.empty(2 * width, dtype=np.uint64), np.empty(width)
        for first in range(0, pairs, _NORMAL_BLOCK):
            block = z[2 * first : 2 * min(first + _NORMAL_BLOCK, pairs)]
            offset = np.uint64((base + 2 * first * _GOLDEN) & _MASK64)
            _box_muller(block, steps, offset, shifted, trig)
        if n % 2:
            z[-1] = self.normals(2)[0]
        return out

    def integers(self, n: int, bound: int) -> np.ndarray:
        """n ints uniform on [0, bound); bias < bound * 2**-53 is ignored."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return np.minimum((self.uniforms(n) * bound).astype(np.int64), bound - 1)

    def shuffled(self, items: list) -> list:
        """Fisher-Yates shuffle of a copy of items.

        Position t = n-1, ..., 1 swaps with integers(1, t + 1); all n - 1
        uniforms are drawn in one call, which consumes the same counters.
        """
        out = list(items)
        bounds = np.arange(len(out), 1, -1)  # t + 1 for t = n-1, ..., 1
        swaps = np.minimum((self.uniforms(bounds.size) * bounds).astype(np.int64), bounds - 1)
        for t, s in zip(range(len(out) - 1, 0, -1), swaps.tolist()):
            out[t], out[s] = out[s], out[t]
        return out
