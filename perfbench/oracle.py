"""Reference results that every benchmark op is checked against.

Written from the documented behaviour of sdsvm (README.md: the counter-based
generator, the simulation design, the kernels, Stahel-Donoho outlyingness
over pairwise directions, trimming to floor(kappa * n) per group) without
importing the package, so a refactor of the library cannot move the
reference with it.

Kernel and outlyingness follow the package's floating-point recipe (Gram via
x @ x.T, upper triangle mirrored, RBF diagonal pinned to exp(0)), so
outlyingness and trimming are compared exactly.  The dual problem is solved
here to a tolerance far below the package's, and solver-dependent results
(decision values, test errors, the cross-validated C) are compared within a
band derived from the package's solver tolerance; see DECISION_BAND.
"""

from __future__ import annotations

import math

import numpy as np

# The package's dual-solver tolerance (svm.DEFAULT_TOL; the fit report's
# model header repeats it).  Simulation output does not carry it.
SOLVER_TOL = 1e-3

# Band around f = 0 inside which a score may legitimately fall on either side
# when the solver stops at a KKT violation of SOLVER_TOL instead of 0.  It is
# 10 * tol: 40x the largest score deviation measured between the package at
# tol=1e-3 and this module's solver (2.4e-4 over 1,344 simulation, fold and
# C-grid problems, seeds 0-9 and 14-17).
DECISION_BAND = 10.0 * SOLVER_TOL
ORACLE_TOL = 1e-5

# Recomputed KKT violation of a reported model may exceed the solver's own
# figure only by accumulated rounding; 5% of tol is far above that.
KKT_SLACK = 1.05

DEGENERACY_TOL = 1e-12
_CHUNK = 1024

# --- counter-based generator (README "Determinism") ---------------------

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def _mix(x: int) -> int:
    x &= _MASK
    x ^= x >> 30
    x = (x * _M1) & _MASK
    x ^= x >> 27
    x = (x * _M2) & _MASK
    return x ^ (x >> 31)


def stream_key(seed: int, *words) -> int:
    key = _mix(int(seed) + _GOLDEN)
    for word in words:
        if isinstance(word, str):
            value = 0xCBF29CE484222325
            for byte in word.encode("utf-8"):
                value = ((value ^ byte) * 0x100000001B3) & _MASK
        else:
            value = int(word) & _MASK
        key = _mix(key ^ _mix(value + _GOLDEN))
    return key


class Stream:
    def __init__(self, key: int):
        self.key = key
        self.used = 0

    def uniforms(self, n: int) -> np.ndarray:
        c = np.arange(self.used + 1, self.used + n + 1, dtype=np.uint64)
        self.used += n
        x = np.uint64(self.key) + c * np.uint64(_GOLDEN)
        x ^= x >> np.uint64(30)
        x = x * np.uint64(_M1)
        x ^= x >> np.uint64(27)
        x = x * np.uint64(_M2)
        x ^= x >> np.uint64(31)
        return (x >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def normals(self, n: int) -> np.ndarray:
        pairs = (n + 1) // 2
        u = self.uniforms(2 * pairs)
        radius = np.sqrt(-2.0 * np.log(1.0 - u[0::2]))
        z = np.empty(2 * pairs)
        z[0::2] = radius * np.cos(2.0 * np.pi * u[1::2])
        z[1::2] = radius * np.sin(2.0 * np.pi * u[1::2])
        return z[:n]

    def integers(self, n: int, bound: int) -> np.ndarray:
        return np.minimum((self.uniforms(n) * bound).astype(np.int64), bound - 1)


# --- data, kernels, outlyingness, trimming ------------------------------


def simulation(seed, contaminated, n=25, d=1000, shift=0.18, outliers=4, test_size=600):
    """(x_train, y_train, x_test, y_test) of run 0 of `sdsvm simulate --seed seed`."""

    def rows(name, count):
        return Stream(stream_key(seed, "sim", 0, name)).normals(count * d).reshape(count, d)

    blocks = [rows("train-minus", n), rows("train-plus", n) + shift]
    labels = [-np.ones(n), np.ones(n)]
    if contaminated:
        blocks += [rows("outliers-minus", outliers) + 3.0, rows("outliers-plus", outliers) + -3.0]
        labels += [-np.ones(outliers), np.ones(outliers)]
    half = test_size // 2
    x_test = np.vstack([rows("test-minus", half), rows("test-plus", test_size - half) + shift])
    y_test = np.concatenate([-np.ones(half), np.ones(test_size - half)])
    return np.vstack(blocks), np.concatenate(labels), x_test, y_test


def _mirror_upper(m):
    return np.triu(m) + np.triu(m, 1).T


def linear_gram(x):
    return _mirror_upper(x @ x.T)


def rbf_gram(x, gamma):
    gram = x @ x.T
    sq = np.diag(gram)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * gram, 0.0)
    np.fill_diagonal(d2, 0.0)
    return _mirror_upper(np.exp(-gamma * d2))


def rbf_cross(xa, xb, gamma):
    d2 = np.sum(xa * xa, axis=1)[:, None] + np.sum(xb * xb, axis=1)[None, :] - 2.0 * (xa @ xb.T)
    return np.exp(-gamma * np.maximum(d2, 0.0))


def direction_pairs(entries, sampled_count=None, seed=0):
    """Index pairs scanned: all of them, or the seeded rejection sample."""
    k = entries.shape[0]
    if sampled_count is None:
        return np.triu_indices(k, 1)
    stream = Stream(stream_key(seed, "directions"))
    diag = np.diag(entries)
    pairs, seen = [], set()
    rejections, limit = 0, 100 * sampled_count
    while len(pairs) < sampled_count and rejections <= limit:
        # One draw is two consecutive integers on [0, k); drawing a block at
        # once consumes the stream in the same order.
        block = stream.integers(2 * sampled_count, k).tolist()
        for t in range(0, len(block), 2):
            if len(pairs) >= sampled_count or rejections > limit:
                break
            i, j = block[t], block[t + 1]
            if i > j:
                i, j = j, i
            if i == j or (i, j) in seen or (diag[i] + diag[j]) - 2.0 * entries[i, j] <= DEGENERACY_TOL:
                rejections += 1
                continue
            seen.add((i, j))
            pairs.append((i, j))
    arr = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    return arr[:, 0], arr[:, 1]


def outlyingness(entries, sampled_count=None, seed=0):
    i_all, j_all = direction_pairs(entries, sampled_count, seed)
    diag = np.diag(entries)
    r = np.zeros(entries.shape[0])
    for start in range(0, i_all.size, _CHUNK):
        ii, jj = i_all[start : start + _CHUNK], j_all[start : start + _CHUNK]
        sq = (diag[ii] + diag[jj]) - 2.0 * entries[ii, jj]
        ok = sq > DEGENERACY_TOL
        v = (entries[ii[ok]] - entries[jj[ok]]) / np.sqrt(sq[ok])[:, None]
        dev = np.abs(v - np.median(v, axis=1, keepdims=True))
        mad = np.median(dev, axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(mad > 0.0, dev / mad, np.where(dev == 0.0, 0.0, np.inf))
        if ratio.size:
            r = np.maximum(r, ratio.max(axis=0))
    return r


def group_outlyingness(entries, y, sampled_count=None, seed=0):
    """Within-own-group outlyingness aligned with the samples."""
    r = np.zeros(y.shape[0])
    for group in (np.flatnonzero(y < 0), np.flatnonzero(y > 0)):
        r[group] = outlyingness(entries[np.ix_(group, group)], sampled_count, seed)
    return r


def keep_count(kappa, n):
    return int(math.floor(kappa * n + 1e-9))


def retained(r, y, kappa):
    """Sorted indices of the floor(kappa * n_g) least outlying per group."""
    keep = []
    for group in (np.flatnonzero(y < 0), np.flatnonzero(y > 0)):
        order = np.lexsort((group, r[group]))
        keep.append(group[order[: keep_count(kappa, group.size)]])
    return np.sort(np.concatenate(keep))


# --- dual solver ---------------------------------------------------------


def solve_dual(kk, y, c, start=None, tol=ORACLE_TOL, max_iter=2_000_000):
    """(beta = y * alpha, bias) by second-order working-set SMO.

    `start` is a solution for a smaller C, feasible for this one.
    """
    n = y.shape[0]
    beta = np.zeros(n) if start is None else start.copy()
    g = 1.0 - y * (kk @ beta)
    upper = np.where(y > 0, c, 0.0)
    lower = np.where(y > 0, 0.0, -c)
    diag = np.diag(kk)
    for _ in range(max_iter):
        yg = y * g
        up = np.where(beta < upper, yg, -np.inf)
        low = np.where(beta > lower, yg, np.inf)
        i = int(np.argmax(up))
        if up[i] - low.min() <= tol:
            break
        b = up[i] - low
        a = np.maximum(diag[i] + diag - 2.0 * kk[i], 1e-12)
        with np.errstate(invalid="ignore"):
            score = np.where(b > 0, -(b * b) / a, np.inf)
        j = int(np.argmin(score))
        lam = min(upper[i] - beta[i], beta[j] - lower[j], b[j] / a[j])
        beta[i] = min(upper[i], beta[i] + lam)
        beta[j] = max(lower[j], beta[j] - lam)
        g += y * lam * (kk[j] - kk[i])
    else:
        raise RuntimeError("reference solver did not converge")
    yg = y * g
    alpha = y * beta
    free = (alpha > 1e-8) & (alpha < c - 1e-8)
    if np.any(free):
        bias = float(np.mean(yg[free]))
    else:
        bias = 0.5 * (np.max(np.where(beta < upper, yg, -np.inf)) + np.min(np.where(beta > lower, yg, np.inf)))
    return beta, bias


def error_interval(f, y):
    """(lowest, highest) misclassification rate of scores f within the band."""
    sure = np.abs(f) > DECISION_BAND
    wrong = np.where(f >= 0.0, 1.0, -1.0) != y
    lo = np.count_nonzero(sure & wrong)
    hi = lo + np.count_nonzero(~sure)
    return lo / y.size, hi / y.size


def _fold_assignment(y, folds, seed):
    stream = Stream(stream_key(seed, "cv-folds"))
    assignment = np.zeros(y.size, dtype=np.intp)
    for members in (np.flatnonzero(y < 0).tolist(), np.flatnonzero(y > 0).tolist()):
        for t in range(len(members) - 1, 0, -1):
            s = int(stream.integers(1, t + 1)[0])
            members[t], members[s] = members[s], members[t]
        for t, pos in enumerate(members):
            assignment[pos] = t % folds
    return assignment


def admissible_c(kk, y, grid, folds, seed):
    """Grid values that a solver within SOLVER_TOL could pick by CV.

    Mirrors the package's selection rule (stratified seeded folds, mean
    fold error, ties to the smallest C) with every fold score inside the
    decision band counted as either right or wrong.
    """
    folds = min(folds, int(np.sum(y < 0)), int(np.sum(y > 0)))
    assignment = _fold_assignment(y, folds, seed)
    lo_sum = np.zeros(len(grid))
    hi_sum = np.zeros(len(grid))
    for f in range(folds):
        test = assignment == f
        tr, te = np.flatnonzero(~test), np.flatnonzero(test)
        kk_tr, cross = kk[np.ix_(tr, tr)], kk[np.ix_(tr, te)]
        beta = None
        for t in np.argsort(grid, kind="stable"):
            beta, bias = solve_dual(kk_tr, y[tr], grid[t], start=beta)
            lo, hi = error_interval(beta @ cross + bias, y[te])
            lo_sum[t] += lo
            hi_sum[t] += hi
    return [c for c, lo in zip(grid, lo_sum) if lo <= hi_sum.min()]


def simulation_expectation(seed, contaminated, kappas, c_grid, folds=10):
    """kappa -> list of (lo, hi) test-error intervals any correct run lands in."""
    x, y, x_test, y_test = simulation(seed, contaminated)
    kk = linear_gram(x)
    cross = x @ x_test.T
    r = group_outlyingness(kk, y)
    expected = {}
    for kappa in kappas:
        keep = retained(r, y, kappa)
        kk_t, y_t = kk[np.ix_(keep, keep)], y[keep]
        grid = c_grid if len(c_grid) == 1 else admissible_c(kk_t, y_t, c_grid, folds, seed)
        intervals = []
        for c in grid:
            beta, bias = solve_dual(kk_t, y_t, c)
            intervals.append(error_interval(beta @ cross[keep] + bias, y_test))
        expected[kappa] = intervals
    return expected
