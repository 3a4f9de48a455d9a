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
"""

from __future__ import annotations

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


def check_integer(name: str, value) -> None:
    """Raise ValueError, its message starting with name, unless value is a
    Python or numpy integer and not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_seed(seed) -> None:
    """Raise ValueError unless seed is an integer (see check_integer) in
    [0, 2^64), the seeds derive_key tells apart."""
    check_integer("seed", seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")


def derive_key(seed: int, *words) -> int:
    """Fold a seed and a tuple of ints/strings into a 64-bit stream key."""
    key = _mix64((int(seed) + _GOLDEN) & _MASK64)
    for word in words:
        value = _fnv1a64(word) if isinstance(word, str) else int(word) & _MASK64
        key = _mix64(key ^ _mix64((value + _GOLDEN) & _MASK64))
    return key


class Stream:
    """Sequential consumer of one keyed counter stream."""

    def __init__(self, key: int):
        self.key = int(key) & _MASK64
        self._counter = 0

    def _raw(self, n: int) -> np.ndarray:
        x = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        # mix64(key + c * GOLDEN) in place, with one shift buffer; uint64
        # arithmetic wraps mod 2**64.
        x *= _U_GOLDEN
        x += np.uint64(self.key)
        shifted = np.empty_like(x)
        np.right_shift(x, _U30, shifted)
        x ^= shifted
        x *= _U_MIX1
        np.right_shift(x, _U27, shifted)
        x ^= shifted
        x *= _U_MIX2
        np.right_shift(x, _U31, shifted)
        x ^= shifted
        return x

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles uniform in [0, 1)."""
        top = self._raw(n)
        top >>= _U11
        # Converted and scaled in top's own memory.
        return np.multiply(top, 2.0**-53, top.view(np.float64))

    def normals(self, n: int) -> np.ndarray:
        """n standard normal doubles via Box-Muller on uniform pairs.

        The pairs are made _NORMAL_BLOCK at a time, so the temporaries of a
        block stay in cache; the counters run on across blocks, so the
        values are those of one pass over all pairs.
        """
        pairs = (n + 1) // 2
        z = np.empty((pairs, 2))
        for first in range(0, pairs, _NORMAL_BLOCK):
            block = z[first : first + _NORMAL_BLOCK]
            u = self.uniforms(2 * block.shape[0]).reshape(-1, 2)
            radius = np.log(1.0 - u[:, 0])  # 1 - u0 in (0, 1]: keeps log() finite
            radius *= -2.0
            np.sqrt(radius, out=radius)
            angle = (2.0 * np.pi) * u[:, 1]
            trig = np.cos(angle)
            np.multiply(radius, trig, out=block[:, 0])
            np.sin(angle, out=trig)
            np.multiply(radius, trig, out=block[:, 1])
        return z.reshape(-1)[:n]

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
