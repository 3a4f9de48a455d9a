"""Independent oracles for the test suite.

Everything here recomputes expected values by a different route than the
library: explicit coordinates instead of kernel matrices, hand-rolled sorting
medians instead of numpy, and exhaustive active-set enumeration instead of
an iterative dual solver.  select_c_cold is the per-C cold-start loop that
the warm-started C path in pipeline.select_C must reproduce;
sample_pairs_one_at_a_time and outlyingness_np_median are the scalar sampler
and the np.median chunk loop that sdsvm.outlyingness must match bit for bit,
and policy_pairs the unfiltered pair list of a policy built from them;
solve_dual_reference is the whole-vector dual loop that svm.solve_dual must
match bit for bit, and stream_uniforms_reference/stream_normals_reference and
shuffled_one_at_a_time the fresh-array and per-draw forms of the counter
stream that sdsvm.rng must match byte for byte.  rbf_gram_reference and the
*_to_text and map_to_* references are the full-matrix and per-cell forms of
the RBF Gram matrix and the text writers, which the library's triangle and
column forms must match byte for byte; map_rows is the per-sample form of
the map's columns.  load_csv_reference is data.load_csv with every cell
stripped before it is read and each label rule written out in place;
load_csv must give its Dataset bytes or its error.  parse_csv, the inverse
of outliermap.map_to_csv, is the round-trip reference for the map CSV; no
program path reads one.  fit_from_rows builds the FitResult of a table of
samples.  robust_location, robust_scale and
projection_vector, with the two errors it raises, and kernel_entry are
helpers that only the tests use.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from sdsvm.errors import (
    ConvergenceError,
    DimensionError,
    EmptyInput,
    InvalidModel,
    LabelError,
    NoValidDirections,
    ParseError,
    SdsvmError,
    SerializationError,
    SingleClassError,
)
from sdsvm.data import Dataset
from sdsvm.kernels import KernelSpec, kernel_matrix
from sdsvm.outliermap import CSV_HEADER
from sdsvm.outlyingness import DEGENERACY_TOL, DirectionPolicy, OutlyingnessReport
from sdsvm.pipeline import CvSelection, FitResult, TrimPlan, _fold_assignment
from sdsvm.rng import Stream, derive_key
from sdsvm.svm import (
    _CURVATURE_FLOOR,
    _INTERIOR_TOL,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    SvmModel,
    decision_values,
    sign_labels,
    solve_dual,
)


class InvalidPair(SdsvmError):
    """A projection direction was requested through a single point (i == j)."""


class DegenerateDirection(SdsvmError):
    """The two chosen samples coincide in feature space (zero norm)."""


@dataclass(frozen=True)
class ProjectionVector:
    """Projections of all samples onto the direction through one pair."""

    values: np.ndarray
    pair: tuple

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "pair", (int(self.pair[0]), int(self.pair[1])))


def robust_location(v) -> float:
    """Median; for even length the mean of the two middle order statistics."""
    arr = np.asarray(v, dtype=np.float64).ravel()
    if arr.size == 0:
        raise EmptyInput("robust_location of empty vector")
    return float(np.median(arr))


def robust_scale(v) -> float:
    """Median absolute deviation from the median, without consistency factor."""
    arr = np.asarray(v, dtype=np.float64).ravel()
    if arr.size == 0:
        raise EmptyInput("robust_scale of empty vector")
    return float(np.median(np.abs(arr - np.median(arr))))


def projection_vector(omega, i: int, j: int) -> ProjectionVector:
    """Unit-direction projections for the pair (i, j) of sample indices."""
    if i == j:
        raise InvalidPair(f"projection direction needs two distinct samples, got ({i}, {j})")
    entries = omega.entries
    scale = entries[i, i] + entries[j, j]
    sq = scale - 2.0 * entries[i, j]
    if sq <= DEGENERACY_TOL * abs(scale):
        raise DegenerateDirection(
            f"samples {i} and {j} coincide in feature space (squared norm {sq:.3e})"
        )
    values = (entries[i] - entries[j]) / math.sqrt(sq)
    return ProjectionVector(values=values, pair=(i, j))


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
    degenerate pairs (a squared difference at most DEGENERACY_TOL times
    |x_i|^2 + |x_j|^2) are skipped, mirroring the library's rule.  mad == 0
    contributes 0 at the median and +inf elsewhere.
    """
    x = np.asarray(x, dtype=np.float64)
    k = x.shape[0]
    r = [0.0] * k
    for i, j in pairs:
        diff = x[i] - x[j]
        norm_sq = float(diff @ diff)
        if norm_sq <= DEGENERACY_TOL * float(x[i] @ x[i] + x[j] @ x[j]):
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
        if norm_sq <= DEGENERACY_TOL * abs(omega[i, i] + omega[j, j]):
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


def sample_pairs_one_at_a_time(k, count, seed, entries):
    """(pairs, draws) of the sampled direction policy, one stream draw per pair.

    Rejects i == j, repeated and degenerate pairs and gives up after
    100 * count rejections; draws counts every candidate pair drawn.
    """
    stream = Stream(derive_key(seed, "directions"))
    pairs = []
    seen = set()
    rejections = 0
    draws = 0
    limit = 100 * count
    while len(pairs) < count and rejections <= limit:
        i, j = (int(v) for v in stream.integers(2, k))
        draws += 1
        if i == j:
            rejections += 1
            continue
        if i > j:
            i, j = j, i
        if (i, j) in seen:
            rejections += 1
            continue
        with np.errstate(over="ignore", invalid="ignore"):  # huge test matrices
            scale = entries[i, i] + entries[j, j]
            sq = scale - 2.0 * entries[i, j]
        if sq <= DEGENERACY_TOL * abs(scale):
            rejections += 1
            continue
        seen.add((i, j))
        pairs.append((i, j))
    if not pairs:
        raise NoValidDirections("no non-degenerate direction found while sampling")
    return pairs, draws


def policy_pairs(policy, entries):
    """(pairs, draws) an exhaustive or sampled policy enumerates, degenerate
    pairs included: every i < j in order, also for a sampled count of
    k(k-1)/2 or more, or else the one-at-a-time sampler's."""
    k = entries.shape[0]
    if policy.mode == "exhaustive" or policy.count >= k * (k - 1) // 2:
        return list(itertools.combinations(range(k), 2)), 0
    return sample_pairs_one_at_a_time(k, policy.count, policy.seed, entries)


def outlyingness_np_median(entries, pairs, chunk=1024):
    """(r, degenerate pairs) from np.median over chunks of projections."""
    k = entries.shape[0]
    i_all = np.array([p[0] for p in pairs], dtype=np.intp)
    j_all = np.array([p[1] for p in pairs], dtype=np.intp)
    diag = np.diag(entries)
    r = np.zeros(k)
    degenerate = 0
    # Huge test matrices overflow to inf and nan; mad == 0 divides by zero.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for start in range(0, len(pairs), chunk):
            i_idx = i_all[start : start + chunk]
            j_idx = j_all[start : start + chunk]
            scale = diag[i_idx] + diag[j_idx]
            sq = scale - 2.0 * entries[i_idx, j_idx]
            ok = sq > DEGENERACY_TOL * np.abs(scale)
            degenerate += int(np.count_nonzero(~ok))
            if not np.any(ok):
                continue
            v = (entries[i_idx[ok]] - entries[j_idx[ok]]) / np.sqrt(sq[ok])[:, None]
            med = np.median(v, axis=1, keepdims=True)
            dev = np.abs(v - med)
            mad = np.median(dev, axis=1, keepdims=True)
            ratio = dev / mad
            ratio = np.where(mad > 0.0, ratio, np.where(dev == 0.0, 0.0, np.inf))
            r = np.maximum(r, ratio.max(axis=0))
    return r, degenerate


def shuffled_one_at_a_time(stream, items):
    """Stream.shuffled as a Fisher-Yates loop with one integers draw per position."""
    out = list(items)
    for t in range(len(out) - 1, 0, -1):
        s = int(stream.integers(1, t + 1)[0])
        out[t], out[s] = out[s], out[t]
    return out


def stream_uniforms_reference(key, counter, n):
    """Stream.uniforms(n) from a stream whose counter stands at `counter`,
    with one fresh array per mix64 step."""
    counters = np.arange(counter + 1, counter + n + 1, dtype=np.uint64)
    x = np.uint64(key) + counters * np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x = x * np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x = x * np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return (x >> np.uint64(11)).astype(np.float64) * 2.0**-53


def stream_normals_reference(key, counter, n):
    """Stream.normals(n) at `counter`: Box-Muller over strided slices."""
    pairs = (n + 1) // 2
    u = stream_uniforms_reference(key, counter, 2 * pairs)
    u0 = 1.0 - u[0::2]
    u1 = u[1::2]
    radius = np.sqrt(-2.0 * np.log(u0))
    z = np.empty(2 * pairs)
    z[0::2] = radius * np.cos(2.0 * np.pi * u1)
    z[1::2] = radius * np.sin(2.0 * np.pi * u1)
    return z[:n]


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


def select_c_cold(omega_t, labels_t, cv):
    """pipeline.select_C as one cold-start solve per (C, fold), in grid order."""
    y = np.asarray(labels_t, dtype=np.float64)
    folds = min(cv.folds, int(np.sum(y < 0)), int(np.sum(y > 0)))
    assignment = _fold_assignment(y, folds, cv.seed)
    entries = omega_t.entries
    table = []
    for c in cv.grid:
        rates = []
        try:
            for f in range(folds):
                test_mask = assignment == f
                train_idx = np.flatnonzero(~test_mask)
                test_idx = np.flatnonzero(test_mask)
                model = solve_dual(omega_t.take(train_idx), y[train_idx], c)
                f_vals = decision_values(model, entries[np.ix_(train_idx, test_idx)])
                rates.append(float(np.mean(sign_labels(f_vals) != y[test_idx])))
        except ConvergenceError:
            table.append((c, math.nan))
            continue
        table.append((c, float(np.mean(rates))))
    return CvSelection(table=tuple(table), folds_used=folds)


def solve_dual_reference(
    omega_t, labels, c, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, spec=None, start=None
):
    """svm.solve_dual as whole-vector numpy steps: every pair update rebuilds
    y * g and both masked candidate vectors.  The library's loop must give
    the same model bit for bit (alpha, bias, updates, gap) or raise the same
    exception."""
    y = np.asarray(labels, dtype=np.float64).ravel()
    n = y.shape[0]
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if omega_t.k != n:
        raise DimensionError(f"kernel matrix is {omega_t.k}x{omega_t.k} but {n} labels given")
    n_minus = int(np.count_nonzero(y < 0))
    if n_minus == 0 or n_minus == n:
        raise SingleClassError(f"training needs both classes, got n-={n_minus} n+={n - n_minus}")
    for name, value in (("C", c), ("tol", tol)):
        if not 0 < value < math.inf:
            raise InvalidModel(f"{name} must be positive and finite, got {value!r}")
    kk = omega_t.entries
    if start is None:
        beta = np.zeros(n)
        g = np.ones(n)
    else:
        alpha0 = np.asarray(start, dtype=np.float64)
        if alpha0.shape != (n,):
            raise ValueError(f"start has shape {alpha0.shape}, expected ({n},)")
        if not np.all((alpha0 >= 0.0) & (alpha0 <= c)):
            raise ValueError(f"start must lie in [0, C] with C={c}")
        if abs(float(alpha0 @ y)) > 1e-9 * c:
            raise ValueError("start violates sum alpha_i y_i = 0")
        beta = y * alpha0
        g = 1.0 - y * (kk @ beta)
    upper = np.where(y > 0, c, 0.0)
    lower = np.where(y > 0, 0.0, -c)

    iterations = 0
    gap = np.inf
    with np.errstate(invalid="ignore", over="ignore"):
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
            floor = _CURVATURE_FLOOR * abs(kk[i, i] + kk[j, j]) or _CURVATURE_FLOOR
            quad = max(kk[i, i] + kk[j, j] - 2.0 * kk[i, j], floor)
            lam = min(upper[i] - beta[i], beta[j] - lower[j], gap / quad)
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
        c=float(c),
        tol=float(tol),
        spec=spec,
        updates=iterations - 1,
        gap=float(gap),
    )


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


def kernel_entry(spec, a, b) -> float:
    """K(a, b) for one pair of samples, read off their 2 x 2 Gram matrix."""
    return float(kernel_matrix(spec, [a, b]).entries[0, 1])


def kernel_block_recipe(kind, a, b=None, gamma=1.0, degree=3, coef0=0.0, kmer=3):
    """A kernel block by its documented arithmetic, for exact comparison.

    `a` and `b` are arrays of row vectors or lists of strings (spectrum).
    b=None is the square block: one x @ x.T product, RBF squared norms from
    its diagonal with the distance diagonal set to zero, one k-mer count
    table, and the upper triangle mirrored.  The rectangular block takes RBF
    norms as row sums of squares.
    """
    square = b is None
    if kind == "spectrum":
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


# --------------------------------------------------------------------------
# Per-cell and full-matrix forms of the rewritten writers and the RBF Gram
# matrix.  The library's column and triangle forms must give the same bytes
# or errors.


def rbf_gram_reference(x, gamma):
    """kernel_matrix(KernelSpec("rbf", gamma), x).entries computed over the
    full matrix: every RBF pass on every entry in 512-row blocks, then the
    whole block checked for finiteness, normalized by += 0.0 and its upper
    triangle mirrored."""
    xa = np.ascontiguousarray(x, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = xa @ xa.T
        sq = np.diag(gram).copy()
        for s in range(0, gram.shape[0], 512):
            rows = gram[s : s + 512]
            rows *= 2.0
            np.subtract(sq[s : s + 512, None] + sq[None, :], rows, out=rows)
            np.maximum(rows, 0.0, out=rows)
            np.fill_diagonal(rows[:, s:], 0.0)
            rows *= -gamma
            np.exp(rows, out=rows)
    if not np.all(np.isfinite(gram)):
        raise DimensionError("kernel block has non-finite entries")
    gram += 0.0
    n = gram.shape[0]
    for s in range(0, n, 512):
        e = min(s + 512, n)
        gram[s:e, :s] = gram[:s, s:e].T
        corner = gram[s:e, s:e]
        lower = np.tri(e - s, k=-1, dtype=bool)
        corner[lower] = corner.T[lower]
    return gram


def model_to_text_reference(model, ids):
    """The model block of pipeline.fit_to_text, one formatted sample at a
    time; ids are the text ids of the retained samples."""
    lines = [f"sdsvm-model-v1 {model.spec.describe()} C={float(model.c)!r} tol={float(model.tol)!r}"]
    for sid, label, a in zip(ids, model.labels, model.alpha):
        lines.append(f"{sid} {int(label)} {float(a)!r}")
    lines.append(f"bias {float(model.bias)!r}")
    return "\n".join(lines) + "\n"


def fit_to_text_reference(fit):
    """pipeline.fit_to_text, one formatted sample at a time."""
    ids = []
    for sid in fit.ids:
        text_id = str(sid)
        if text_id == "":
            raise SerializationError("an id is empty")
        if any(ch.isspace() for ch in text_id):
            raise SerializationError(f"id {text_id!r} contains whitespace")
        ids.append(text_id)
    lines = [
        "sdsvm-fit-v1",
        f"kappa {fit.plan.kappa!r}",
        f"chosen-c {float(fit.model.c)!r}",
        f"folds-used {fit.cv.folds_used}",
    ]
    for side, report in (("minus", fit.reports[0]), ("plus", fit.reports[1])):
        policy = report.policy
        lines.append(f"policy-{side} {policy.mode} {policy.count} {policy.seed}")
    lines.append(f"kernel {fit.model.spec.describe()}")
    lines.append(f"cv-table {len(fit.cv.table)}")
    for c, err in fit.cv.table:
        lines.append(f"{float(c)!r} {float(err)!r}")
    retained_ids = [ids[i] for i in range(fit.n) if not fit.plan.trimmed[i]]
    model_block = model_to_text_reference(fit.model, retained_ids).rstrip("\n").splitlines()
    lines.append(f"model {len(model_block)}")
    lines.extend(model_block)
    lines.append(f"samples {fit.n}")
    lines.append("id label outlyingness trimmed f")
    for i in range(fit.n):
        lines.append(
            f"{ids[i]} {int(fit.labels[i])} {float(fit.plan.outlyingness[i])!r} "
            f"{'true' if fit.plan.trimmed[i] else 'false'} {float(fit.decision_values[i])!r}"
        )
    return "\n".join(lines) + "\n"


def fit_from_rows(rows, kappa=1.0):
    """A FitResult whose samples are rows of (id, label, f, r), trimmed at
    kappa (by default, none is).

    The model holds the retained samples at alpha = 0 and bias 0 (a solve's
    start), so it agrees with any rows, and each group's report holds its
    rows' r under the exhaustive policy; a row FitResult, its plan or a
    report rejects raises its ValueError.
    """
    ids, labels, f, r = zip(*rows) if rows else ((),) * 4
    labels = np.array(labels, dtype=np.float64)
    r = np.array(r, dtype=np.float64)
    exhaustive = DirectionPolicy(mode="exhaustive")
    reports = tuple(OutlyingnessReport(r[labels == side], exhaustive) for side in (-1.0, 1.0))
    plan = TrimPlan(kappa, reports, labels)
    kept = labels[plan.retained]
    return FitResult(
        model=SvmModel(np.zeros(kept.size), kept, 0.0, 1.0, DEFAULT_TOL, KernelSpec()),
        plan=plan,
        cv=CvSelection(table=((1.0, math.nan),), folds_used=0),
        decision_values=np.array(f, dtype=np.float64),
        ids=ids,
    )


def map_rows(fit):
    """(id, label, f, r, trimmed, misclassified) of each sample of a fit, one
    indexed sample at a time; f == 0 predicts +1."""
    return [
        (
            fit.ids[i],
            int(fit.labels[i]),
            float(fit.decision_values[i]),
            float(fit.plan.outlyingness[i]),
            bool(fit.plan.trimmed[i]),
            bool((1 if fit.decision_values[i] >= 0.0 else -1) != fit.labels[i]),
        )
        for i in range(fit.n)
    ]


def map_to_csv_reference(fit):
    """outliermap.map_to_csv, one formatted sample at a time."""
    lines = ["id,label,f,outlyingness,trimmed,misclassified"]
    for sid in map(str, fit.ids):
        if '"' in sid:
            raise SerializationError(f"id {sid!r} contains a double quote")
        if "," in sid or any(ch in sid for ch in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"):
            raise SerializationError(f"id {sid!r} contains a comma or a line break")
    for sid, label, f, r, trimmed, misclassified in map_rows(fit):
        lines.append(
            f"{sid},{label},{repr(f)},{repr(r)},"
            f"{'true' if trimmed else 'false'},{'true' if misclassified else 'false'}"
        )
    return "\n".join(lines) + "\n"


def _label_index_reference(label_col, width: int) -> int:
    if label_col == "last":
        return width - 1
    if label_col == "first":
        return 0
    return int(label_col)


def load_csv_reference(lines, label_col, coding) -> Dataset:
    """load_csv one line at a time, raising for the first bad line."""
    rows = []
    labels = []
    width = None
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        cells = [c.strip() for c in raw.split(",")]
        if width is None:
            width = len(cells)
            if width < 2:
                raise ParseError("need at least one feature column and one label column", line=lineno)
            col = _label_index_reference(label_col, width)
            if not 0 <= col < width:
                raise ParseError(f"label column {col} outside row of width {width}", line=lineno)
        elif len(cells) != width:
            raise ParseError(f"ragged row: {len(cells)} cells, expected {width}", line=lineno)
        token = cells[col]
        if coding is not None:
            neg, pos = coding
            if token == str(neg):
                label = -1.0
            elif token == str(pos):
                label = 1.0
            else:
                raise LabelError(f"label {token!r} not in coding {coding!r}", line=lineno)
        else:
            try:
                label = float(token)
            except ValueError:
                raise LabelError(f"label {token!r} is not numeric", line=lineno) from None
            if label not in (-1.0, 1.0):
                raise LabelError(f"label {token!r} is not -1 or +1", line=lineno)
        try:
            row = [float(c) for c in cells[:col] + cells[col + 1 :]]
        except ValueError as exc:
            raise ParseError(f"non-numeric cell: {exc}", line=lineno) from None
        if not all(map(math.isfinite, row)):
            raise ParseError("non-finite cell (nan or inf)", line=lineno)
        rows.append(row)
        labels.append(label)
    if not rows:
        raise ParseError("no data rows", line=1)
    return Dataset(x=np.array(rows), labels=np.array(labels))


def parse_csv(text: str, kappa):
    """Inverse of outliermap.map_to_csv: the fit (built by fit_from_rows at
    kappa, which a map CSV does not hold) of a map CSV's text.

    A malformed row, one that FitResult rejects (such as a non-finite f),
    one whose misclassified flag disagrees with its label and f, or one
    whose trimmed flag is not the trim at kappa raises ParseError with its
    line number.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ParseError(f"expected header {CSV_HEADER!r}", line=1)
    rows, flags = [], []
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != 6:
            raise ParseError(f"expected 6 columns, got {len(parts)}", line=lineno)
        try:
            trimmed, misclassified = ({"true": True, "false": False}[cell] for cell in parts[4:])
            row = (parts[0], int(parts[1]), float(parts[2]), float(parts[3]))
            # The row beside one sample of the other label, both kept.
            derived = map_rows(fit_from_rows([row, ("", -row[1], 0.0, 0.0)]))[0][5]
        except (ValueError, KeyError) as exc:
            raise ParseError(f"bad row: {exc}", line=lineno) from exc
        if misclassified != derived:
            raise ParseError("misclassified flag disagrees with label and f", line=lineno)
        rows.append(row)
        flags.append(trimmed)
    fit = fit_from_rows(rows, kappa)
    for lineno, flag, cut in zip(itertools.count(2), flags, fit.plan.trimmed.tolist()):
        if flag != cut:
            raise ParseError(f"trimmed flag is not the trim at kappa {kappa}", line=lineno)
    return fit


def map_to_svg_reference(fit, label_top=5, threshold=None):
    """outliermap.map_to_svg with a formatting call per number and a tuple
    sort key.  Valid while 2 * 1.05 * max|f| is finite; beyond it this form
    draws nan."""
    points = map_rows(fit)

    def num(x):
        return f"{x:.2f}"

    w, h, m = 640, 480, 4.0
    ml, mr, mt, mb = 64, 20, 24, 48
    max_abs_f = max((abs(p[2]) for p in points), default=0.0)
    x_max = 1.05 * max_abs_f if max_abs_f > 0 else 1.0
    finite_r = [p[3] for p in points if math.isfinite(p[3])]
    max_r = max(finite_r) if finite_r else 0.0
    y_max = 1.05 * max_r if max_r > 0 else 1.0

    def px(f):
        return ml + (f + x_max) / (2.0 * x_max) * (w - ml - mr)

    def py(r):
        y = (h - mb) - r / y_max * (h - mb - mt)
        return y if math.isfinite(y) else float(mt)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">\n',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="white"/>\n',
        f'<line x1="{ml}" y1="{h - mb}" x2="{w - mr}" y2="{h - mb}" stroke="black" stroke-width="1"/>\n',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{h - mb}" stroke="black" stroke-width="1"/>\n',
    ]
    zero_x = num(px(0.0))
    out.append(
        f'<line x1="{zero_x}" y1="{mt}" x2="{zero_x}" y2="{h - mb}" stroke="black" stroke-width="1.5"/>\n'
    )
    if threshold is not None:
        ty = num(py(threshold))
        out.append(
            f'<line x1="{ml}" y1="{ty}" x2="{w - mr}" y2="{ty}" '
            f'stroke="black" stroke-width="1" stroke-dasharray="6 4"/>\n'
        )
    for f_tick in (-max_abs_f, 0.0, max_abs_f) if max_abs_f > 0 else (0.0,):
        out.append(
            f'<text x="{num(px(f_tick))}" y="{h - mb + 16}" font-size="11" '
            f'text-anchor="middle" font-family="monospace">{f_tick:.3g}</text>\n'
        )
    for r_tick in (0.0, max_r) if max_r > 0 else (0.0,):
        out.append(
            f'<text x="{ml - 6}" y="{num(py(r_tick) + 4)}" font-size="11" '
            f'text-anchor="end" font-family="monospace">{r_tick:.3g}</text>\n'
        )
    out.append(
        f'<text x="{num((ml + w - mr) / 2)}" y="{h - 12}" font-size="13" '
        f'text-anchor="middle" font-family="sans-serif">f(x)</text>\n'
    )
    out.append(
        f'<text x="16" y="{num((mt + h - mb) / 2)}" font-size="13" '
        f'text-anchor="middle" font-family="sans-serif" '
        f'transform="rotate(-90 16 {num((mt + h - mb) / 2)})">'
        f"Stahel–Donoho outlyingness</text>\n"
    )
    for _, label, f, r, _, _ in points:
        x, y = px(f), py(r)
        if math.isinf(r):
            out.append(
                f'<path d="M {num(x)} {num(y - m)} L {num(x - m)} {num(y + m)} '
                f'L {num(x + m)} {num(y + m)} Z" fill="black" class="marker-inf"/>\n'
            )
        elif label == 1:
            out.append(
                f'<circle cx="{num(x)}" cy="{num(y)}" r="{num(m)}" '
                f'fill="none" stroke="black" stroke-width="1.2" class="marker-plus"/>\n'
            )
        else:
            out.append(
                f'<path d="M {num(x - m)} {num(y - m)} L {num(x + m)} {num(y + m)} '
                f'M {num(x - m)} {num(y + m)} L {num(x + m)} {num(y - m)}" '
                f'stroke="black" stroke-width="1.2" class="marker-minus"/>\n'
            )
    order = sorted(range(len(points)), key=lambda i: (-points[i][3], i))
    labeled = set(order[: max(label_top, 0)])
    labeled.update(i for i, p in enumerate(points) if p[5])
    for i in sorted(labeled):
        sid, _, f, r, _, _ = points[i]
        x, y = px(f), py(r)
        escaped = str(sid).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        out.append(
            f'<text x="{num(x + m + 1)}" y="{num(y - m - 1)}" font-size="10" '
            f'font-family="monospace">{escaped}</text>\n'
        )
    out.append("</svg>\n")
    return "".join(out)
