"""Stahel-Donoho outlyingness in an arbitrary kernel-induced feature space.

For samples z_1..z_k with kernel matrix O, the direction through the feature
images of samples i and j projects every sample l to

    v[l] = (O[i, l] - O[j, l]) / sqrt(O[i, i] - 2 O[i, j] + O[j, j]),

and the outlyingness of sample l is the maximum over directions of

    |v[l] - median(v)| / mad(v).

Only the kernel matrix is touched; feature vectors stay implicit.  Directions
come from unordered index pairs: all k(k-1)/2 of them for small data sets, a
seeded random subset otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoValidDirections, TooFewSamples
from .kernels import KernelMatrix, _frozen
from .rng import Stream, check_integer, check_seed, derive_key

# A pair whose squared feature-space distance is at or below this fraction
# of its own scale |d_i + d_j| is treated as coincident points: far above the
# rounding noise of d_i + d_j - 2 O[i, j], and the same for data in any unit.
DEGENERACY_TOL = 1e-12

# Policy defaults: enumerate everything up to this many samples, then fall
# back to a fixed-size random subset.
EXHAUSTIVE_LIMIT = 100
DEFAULT_SAMPLED_COUNT = 2000

# Directions per median/MAD chunk.  On 1000-sample groups 128 and 256 were
# the fastest measured; 256 keeps small exhaustive groups to few chunks.
_PAIR_CHUNK = 256

# Candidate pairs per stream call of the sampler: at least what is still
# missing, so the usual case finishes in one or two calls.
_MIN_DRAW_BLOCK = 64
_MAX_DRAW_BLOCK = 1 << 16


@dataclass(frozen=True)
class DirectionPolicy:
    """How projection directions are chosen.

    "auto" (the default) is resolved per group by default_policy from the
    group size and seed; "exhaustive" scans every pair; "sampled" draws
    count pairs from seed.
    """

    mode: str = "auto"
    count: int = DEFAULT_SAMPLED_COUNT
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("auto", "exhaustive", "sampled"):
            raise ValueError(f"mode must be 'auto', 'exhaustive' or 'sampled', got {self.mode!r}")
        object.__setattr__(self, "count", check_integer("count", self.count, 1))
        object.__setattr__(self, "seed", check_seed(self.seed))


def default_policy(k: int, seed: int = 0) -> DirectionPolicy:
    """Exhaustive (seed 0) for k <= 100, otherwise 2000 pairs sampled from seed."""
    if k <= EXHAUSTIVE_LIMIT:
        return DirectionPolicy(mode="exhaustive")
    return DirectionPolicy(mode="sampled", count=DEFAULT_SAMPLED_COUNT, seed=seed)


@dataclass(frozen=True)
class OutlyingnessReport:
    """Per-sample outlyingness plus the resolved direction policy (not
    "auto") that produced it."""

    r: np.ndarray
    policy: DirectionPolicy
    degenerate_pairs: int = 0
    directions: int = 0  # pairs enumerated, degenerate ones included
    draws: int = 0  # candidates the sampler drew up to its stop; 0 when scanned exhaustively

    def __post_init__(self):
        arr = _frozen(self.r)
        if arr.ndim != 1:
            raise ValueError("r must be a 1-D array")
        if np.any(arr < 0):
            raise ValueError("outlyingness values must be nonnegative")
        if self.policy.mode == "auto":
            raise ValueError("a report's policy must be resolved, got mode 'auto'")
        object.__setattr__(self, "r", arr)

    @property
    def k(self) -> int:
        return self.r.shape[0]


def _pair_norms(entries, i_idx, j_idx):
    """(sq, bound): each pair's squared feature-space distance and the bound
    at or below which it counts as degenerate, DEGENERACY_TOL * |d_i + d_j|.

    Relative to the pair's own scale, so scaling every sample by a power of
    two decides every pair alike.  (d_i + d_j) first: addition commutes
    exactly, so neither value depends on pair orientation.  Huge hand-built
    entries overflow to an inf or nan norm, which the callers' tests handle;
    the warning would only repeat it.
    """
    diag = np.diag(entries)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = diag[i_idx] + diag[j_idx]
        return scale - 2.0 * entries[i_idx, j_idx], DEGENERACY_TOL * np.abs(scale)


@dataclass(frozen=True, eq=False)
class Directions:
    """The pairs the outlyingness scans, under the resolved policy.

    Pair t joins samples lo[t] < hi[t] (intp, in scan order), whose squared
    feature-space distance sq[t] is above its degeneracy bound (see
    _pair_norms); len() counts them.
    `degenerate` counts the enumerated pairs left out, nan norms included;
    `draws` the candidates the sampler drew up to its stop, 0 when scanned
    exhaustively.
    """

    policy: DirectionPolicy
    lo: np.ndarray
    hi: np.ndarray
    sq: np.ndarray
    degenerate: int
    draws: int

    def __len__(self) -> int:
        return self.lo.size


def enumerate_directions(omega: KernelMatrix, policy: DirectionPolicy = DirectionPolicy()) -> Directions:
    """The non-degenerate index pairs of omega's samples that the
    outlyingness scans; NoValidDirections when none is left.

    Auto mode resolves through default_policy, from omega.k and policy.seed.
    Exhaustive mode, and a sampled count of k(k-1)/2 or more, scan every
    pair; a smaller count the pairs that a loop drawing one pair at a time
    from the ("directions",) stream would accept (see _sample_pairs); nan
    norms are counted as degenerate.
    """
    k = omega.k
    if policy.mode == "auto":
        policy = default_policy(k, policy.seed)
    entries = omega.entries
    if policy.mode == "exhaustive" or policy.count >= k * (k - 1) // 2:
        (lo, hi), draws = np.triu_indices(k, 1), 0
    else:
        lo, hi, draws = _sample_pairs(k, policy, entries)
    sq, bound = _pair_norms(entries, lo, hi)
    ok = sq > bound
    if not np.any(ok):
        raise NoValidDirections(f"no non-degenerate direction among {lo.size} enumerated pairs")
    return Directions(policy, lo[ok], hi[ok], sq[ok], lo.size - int(np.count_nonzero(ok)), draws)


def _sample_pairs(k: int, policy: DirectionPolicy, entries: np.ndarray):
    """(lo, hi, draws): the sampled pairs as index arrays, in draw order.

    Candidate pairs are drawn in blocks, each one stream.integers call whose
    counters continue where the previous block's ended, so the candidates
    are exactly those of one-pair-at-a-time draws.  A candidate is accepted
    when i != j, the pair is not degenerate and it is the pair's first
    non-degenerate occurrence; the block is cut where the one-at-a-time loop
    would stop: count accepted or more than 100 * count rejections.  draws
    counts the candidates up to that stop.
    """
    stream = Stream(derive_key(policy.seed, "directions"))
    count = policy.count
    limit = 100 * count
    seen = np.empty(0, dtype=np.int64)  # lo * k + hi of every accepted pair
    lo_parts, hi_parts = [], []
    accepted = rejections = draws = 0
    while accepted < count and rejections <= limit:
        block = min(max(count - accepted, _MIN_DRAW_BLOCK), _MAX_DRAW_BLOCK)
        ij = stream.integers(2 * block, k)
        lo = np.minimum(ij[0::2], ij[1::2])
        hi = np.maximum(ij[0::2], ij[1::2])
        code = lo * k + hi
        sq, bound = _pair_norms(entries, lo, hi)
        # ~(sq <= bound), not sq > bound: a nan norm is accepted, as in the loop.
        candidate = np.flatnonzero((lo != hi) & ~(sq <= bound))
        _, first = np.unique(code[candidate], return_index=True)
        first = candidate[first]
        fresh = np.zeros(block, dtype=bool)
        fresh[first[~np.isin(code[first], seen)]] = True
        accepted_after = accepted + np.cumsum(fresh)
        rejected_after = rejections + np.cumsum(~fresh)
        stops = np.flatnonzero((accepted_after >= count) | (rejected_after > limit))
        end = int(stops[0]) + 1 if stops.size else block
        keep = np.flatnonzero(fresh[:end])
        lo_parts.append(lo[keep])
        hi_parts.append(hi[keep])
        seen = np.concatenate((seen, code[keep]))
        accepted = int(accepted_after[end - 1])
        rejections = int(rejected_after[end - 1])
        draws += end
    return np.concatenate(lo_parts), np.concatenate(hi_parts), draws


def _row_medians(v: np.ndarray) -> np.ndarray:
    """np.median(v, axis=1), from one partition per row.

    np.median partitions at both middle order statistics plus the last one
    for its nan check.  Here one partition places order statistic m =
    (k - 1) // 2.  Because nan sorts last, a row holding a nan has one in
    part[m + 1:], so a minimum taken there or over part[m:] is nan for it.
    Odd k: the median is min(part[m:]), which is part[m] otherwise.  Even k:
    the upper middle is min(part[m + 1:]), and the halving (a + b) / 2.0 is
    np.mean's arithmetic on two values, up to the sign of a zero median,
    which |v - med| does not see.
    """
    k = v.shape[1]
    m = (k - 1) // 2
    part = np.partition(v, m, axis=1)
    if k % 2:
        return part[:, m:].min(axis=1)
    return (part[:, m] + part[:, m + 1 :].min(axis=1)) / 2.0


def outlyingness(omega: KernelMatrix, policy: DirectionPolicy = DirectionPolicy()) -> OutlyingnessReport:
    """Stahel-Donoho outlyingness of every sample from the kernel matrix.

    Directions with mad(v) == 0 contribute 0 to samples sitting exactly at
    the median and +inf to the rest; degenerate pairs are skipped and counted.
    """
    k = omega.k
    if k < 3:
        raise TooFewSamples(f"outlyingness needs at least 3 samples, got {k}")
    directions = enumerate_directions(omega, policy)
    entries = omega.entries
    r = np.zeros(k)
    for start in range(0, len(directions), _PAIR_CHUNK):
        chunk = slice(start, start + _PAIR_CHUNK)
        # Huge hand-built entries overflow to inf and nan here, and those
        # samples end at r = inf; mad == 0 rows divide by zero and are
        # repaired below.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            v = entries[directions.lo[chunk]]
            v -= entries[directions.hi[chunk]]
            v /= np.sqrt(directions.sq[chunk])[:, None]
            # v becomes |v - med|, then |v - med| / mad, in place.
            v -= _row_medians(v)[:, None]
            np.abs(v, out=v)
            mad = _row_medians(v)
            no_spread = np.flatnonzero(~(mad > 0.0))  # mad 0 or nan
            repaired = np.where(v[no_spread] == 0.0, 0.0, np.inf)
            v /= mad[:, None]
        v[no_spread] = repaired
        np.maximum(r, v.max(axis=0), out=r)
    return OutlyingnessReport(
        r=r,
        policy=directions.policy,
        degenerate_pairs=directions.degenerate,
        directions=len(directions) + directions.degenerate,
        draws=directions.draws,
    )
