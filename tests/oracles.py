"""Independent oracles for the test suite.

Everything here recomputes expected values by a different route than the
library: explicit coordinates instead of kernel matrices, hand-rolled sorting
medians instead of numpy, and exhaustive active-set enumeration instead of
an iterative dual solver.
"""

import itertools

import numpy as np


def median_sorted(values):
    """Median via explicit sorting (independent of numpy.median)."""
    v = sorted(float(x) for x in values)
    n = len(v)
    mid = n // 2
    if n % 2:
        return v[mid]
    return 0.5 * (v[mid - 1] + v[mid])


def mad_sorted(values):
    m = median_sorted(values)
    return median_sorted([abs(x - m) for x in values])


def sd_outlyingness_input_space(x, pairs):
    """Stahel-Donoho outlyingness from explicit coordinates.

    Directions are (x_i - x_j) / ||x_i - x_j|| for the given index pairs;
    degenerate pairs (zero difference) are skipped, mirroring the library's
    rule.  mad == 0 contributes 0 at the median and +inf elsewhere.
    """
    x = np.asarray(x, dtype=np.float64)
    k = x.shape[0]
    r = [0.0] * k
    for i, j in pairs:
        diff = x[i] - x[j]
        norm_sq = float(diff @ diff)
        if norm_sq <= 1e-12:
            continue
        a = diff / np.sqrt(norm_sq)
        proj = [float(a @ x[l]) for l in range(k)]
        med = median_sorted(proj)
        mad = mad_sorted(proj)
        for l in range(k):
            dev = abs(proj[l] - med)
            if mad > 0.0:
                contribution = dev / mad
            else:
                contribution = 0.0 if dev == 0.0 else float("inf")
            if contribution > r[l]:
                r[l] = contribution
    return np.array(r)


def sd_outlyingness_kernel_brute(omega, pairs):
    """Eq-by-eq recomputation from a kernel matrix with python loops."""
    omega = np.asarray(omega, dtype=np.float64)
    k = omega.shape[0]
    r = [0.0] * k
    for i, j in pairs:
        norm_sq = omega[i, i] - 2.0 * omega[i, j] + omega[j, j]
        if norm_sq <= 1e-12:
            continue
        proj = [(omega[i, l] - omega[j, l]) / np.sqrt(norm_sq) for l in range(k)]
        med = median_sorted(proj)
        mad = mad_sorted(proj)
        for l in range(k):
            dev = abs(proj[l] - med)
            if mad > 0.0:
                contribution = dev / mad
            else:
                contribution = 0.0 if dev == 0.0 else float("inf")
            if contribution > r[l]:
                r[l] = contribution
    return np.array(r)


def dual_qp_oracle(kernel, labels, c):
    """Global maximum of the SVM dual by active-set enumeration.

    Each coefficient is assigned to {lower bound, upper bound, free}; for
    every assignment the equality-constrained stationary point on the free
    block is solved and feasible candidates are compared.  Exact up to linear
    solve precision for n small enough to enumerate 3^n assignments.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    n = y.shape[0]
    q = np.outer(y, y) * kernel

    def objective(a):
        return float(a.sum() - 0.5 * a @ q @ a)

    best_value = 0.0
    best_alpha = np.zeros(n)
    for assign in itertools.product((0, 1, 2), repeat=n):
        a = np.zeros(n)
        for i, s in enumerate(assign):
            if s == 1:
                a[i] = c
        free = [i for i, s in enumerate(assign) if s == 2]
        if free:
            f = np.array(free)
            m = len(f)
            system = np.zeros((m + 1, m + 1))
            system[:m, :m] = q[np.ix_(f, f)]
            system[:m, m] = y[f]
            system[m, :m] = y[f]
            rhs = np.concatenate([1.0 - q[f] @ a, [-(y @ a)]])
            solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
            if not np.allclose(system @ solution, rhs, atol=1e-8):
                continue  # inconsistent face
            a_free = solution[:m]
            if np.any(a_free < -1e-10) or np.any(a_free > c + 1e-10):
                continue
            a[f] = np.clip(a_free, 0.0, c)
        if abs(a @ y) > 1e-9 * max(1.0, c):
            continue
        value = objective(a)
        if value > best_value:
            best_value = value
            best_alpha = a.copy()
    return best_value, best_alpha


def kmer_counts_brute(text, k):
    counts = {}
    for i in range(len(text) - k + 1):
        w = text[i : i + k]
        counts[w] = counts.get(w, 0) + 1
    return counts


def spectrum_dot_brute(s1, s2, k):
    c1 = kmer_counts_brute(s1, k)
    c2 = kmer_counts_brute(s2, k)
    return float(sum(v * c2.get(w, 0) for w, v in c1.items()))


def gram_double_loop(x):
    """Plain python double loop Gram matrix for the linear kernel."""
    x = np.asarray(x, dtype=np.float64)
    k = x.shape[0]
    out = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            out[i, j] = sum(float(x[i, t]) * float(x[j, t]) for t in range(x.shape[1]))
    return out


def kernel_block_recipe(kind, a, b=None, gamma=1.0, degree=3, coef0=0.0, kmer=3, matrix=None):
    """A kernel block by its documented arithmetic, for exact comparison.

    `a` and `b` are arrays of row vectors, lists of strings (spectrum) or
    lists of row indices (precomputed).  b=None is the square block: one
    x @ x.T product, RBF squared norms from its diagonal with the distance
    diagonal set to zero, one k-mer count table, and the upper triangle
    mirrored.  The rectangular block takes RBF norms as row sums of squares.
    """
    square = b is None
    if kind == "precomputed":
        block = np.asarray(matrix)[np.ix_(a, a if square else b)]
    elif kind == "spectrum":
        strings = list(a) if square else list(a) + list(b)
        counts = [kmer_counts_brute(s, kmer) for s in strings]
        vocab = sorted(set().union(*counts)) or [""]
        rows = np.array([[float(c.get(w, 0)) for w in vocab] for c in counts])
        block = rows @ rows.T if square else rows[: len(a)] @ rows[len(a) :].T
    else:
        xa = np.asarray(a, dtype=np.float64)
        xb = xa if square else np.asarray(b, dtype=np.float64)
        gram = xa @ xb.T
        if kind == "linear":
            block = gram
        elif kind == "polynomial":
            block = (gamma * gram + coef0) ** degree
        else:
            if square:
                sq_a = sq_b = np.diag(gram)
            else:
                sq_a, sq_b = (xa * xa).sum(axis=1), (xb * xb).sum(axis=1)
            d2 = np.maximum(sq_a[:, None] + sq_b[None, :] - 2.0 * gram, 0.0)
            if square:
                np.fill_diagonal(d2, 0.0)
            block = np.exp(-gamma * d2)
    if square:
        block = np.triu(block) + np.triu(block, 1).T
    return block
