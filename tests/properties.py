"""Hypothesis properties for every module's invariants.

Defined as prop_* functions (each wrapped by @given) rather than test_*
functions: the acceptance suite runs them all, one visible case per property,
at 200 examples each.  Keeping them out of direct collection avoids running
the whole set twice in a full pytest invocation.
"""

import itertools
import math

import numpy as np
from hypothesis import assume, given, strategies as st
from hypothesis.extra import numpy as npst

from sdsvm import (
    CvConfig,
    Dataset,
    DirectionPolicy,
    KernelSpec,
    SimulationSpec,
    decision_values,
    dual_objective,
    fit_sdsvm,
    gen_simulation,
    kernel_cross,
    kernel_matrix,
    outlyingness,
    run_simulation,
    solve_dual,
    trim,
)
from sdsvm.errors import NoValidDirections
from sdsvm.outliermap import map_to_csv

from oracles import (
    dual_qp_oracle,
    fit_from_rows,
    kernel_entry,
    parse_csv,
    projection_vector,
    sd_outlyingness_input_space,
    spectrum_dot_brute,
)

LINEAR = KernelSpec(kind="linear")

finite = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False, width=64)

# Quarter-unit grid in [-5, 5]: dot products of such vectors are exact in
# float64, which keeps the outlyingness equivariance properties away from
# catastrophic-cancellation corner cases that no finite tolerance survives.
grid_value = st.integers(-20, 20).map(lambda v: v / 4.0)


def matrix_st(k_min=3, k_max=8, d_min=1, d_max=4, elements=finite):
    return st.integers(k_min, k_max).flatmap(
        lambda k: st.integers(d_min, d_max).flatmap(
            lambda d: npst.arrays(np.float64, (k, d), elements=elements)
        )
    )


def _directions_well_conditioned(om, min_sq=1e-3, min_mad=1e-2):
    """All exhaustive directions exist and have healthy spread."""
    entries = om.entries
    diag = np.diag(entries)
    i_idx, j_idx = np.triu_indices(om.k, 1)
    sq = (diag[i_idx] + diag[j_idx]) - 2.0 * entries[i_idx, j_idx]
    if np.any(sq < min_sq):
        return False
    v = (entries[i_idx] - entries[j_idx]) / np.sqrt(sq)[:, None]
    med = np.median(v, axis=1, keepdims=True)
    mad = np.median(np.abs(v - med), axis=1)
    return bool(np.all(mad > min_mad))


def samples_of(rows):
    return np.asarray(rows, dtype=np.float64)


def labels_st(n):
    return (
        npst.arrays(np.float64, n, elements=st.sampled_from([-1.0, 1.0]))
        .filter(lambda y: (y < 0).any() and (y > 0).any())
    )


def kernel_spec_st():
    return st.one_of(
        st.just(KernelSpec(kind="linear")),
        st.floats(0.05, 3.0).map(lambda g: KernelSpec(kind="rbf", gamma=g)),
        st.tuples(st.floats(0.1, 2.0), st.integers(1, 4), st.floats(0.0, 2.0)).map(
            lambda t: KernelSpec(kind="polynomial", gamma=t[0], degree=t[1], coef0=t[2])
        ),
    )


# ---------------------------------------------------------------- kernel ----


@given(matrix_st(k_min=2, k_max=8, d_max=5))
def prop_kernel_linear_gram_matches_double_loop(rows):
    from oracles import gram_double_loop

    ours = kernel_matrix(LINEAR, samples_of(rows)).entries
    np.testing.assert_allclose(ours, gram_double_loop(rows), rtol=1e-12, atol=1e-12)


@given(kernel_spec_st(), matrix_st(k_min=2, k_max=7, d_max=4))
def prop_kernel_cauchy_schwarz(spec, rows):
    om = kernel_matrix(spec, samples_of(rows)).entries
    diag = np.diag(om)
    assert np.all(om**2 <= np.outer(diag, diag) + 1e-9)


@given(
    st.integers(1, 4),
    st.text(alphabet="ACGT", max_size=50),
    st.text(alphabet="ACGT", max_size=50),
)
def prop_kernel_spectrum_matches_brute_force(kmer, s1, s2):
    spec = KernelSpec(kind="spectrum", kmer=kmer)
    forward = kernel_entry(spec, s1, s2)
    backward = kernel_entry(spec, s2, s1)
    assert forward == backward
    assert forward == spectrum_dot_brute(s1, s2, kmer)
    om = kernel_matrix(spec, [s1, s2]).entries
    assert om[0, 1] == forward
    assert om[0, 1] ** 2 <= om[0, 0] * om[1, 1] + 1e-9


# ---------------------------------------------------------- outlyingness ----


def _exhaustive_report(rows):
    om = kernel_matrix(LINEAR, samples_of(rows))
    try:
        return om, outlyingness(om, DirectionPolicy(mode="exhaustive"))
    except NoValidDirections:
        assume(False)


@given(matrix_st(k_min=3, k_max=12, d_max=5, elements=grid_value))
def prop_outly_kernel_trick_matches_input_space(rows):
    om = kernel_matrix(LINEAR, samples_of(rows))
    assume(_directions_well_conditioned(om))
    report = outlyingness(om, DirectionPolicy(mode="exhaustive"))
    expected = sd_outlyingness_input_space(rows, itertools.combinations(range(om.k), 2))
    np.testing.assert_allclose(report.r, expected, rtol=1e-10, atol=1e-12)


@given(matrix_st(k_min=3, k_max=8, d_max=4), st.data())
def prop_outly_pair_orientation_irrelevant(rows, data):
    om = kernel_matrix(LINEAR, samples_of(rows))
    k = om.k
    i = data.draw(st.integers(0, k - 1))
    j = data.draw(st.integers(0, k - 1).filter(lambda v: v != i))
    sq = om.entries[i, i] - 2 * om.entries[i, j] + om.entries[j, j]
    assume(sq > 1e-12)
    forward = projection_vector(om, i, j).values
    backward = projection_vector(om, j, i).values
    assert np.array_equal(backward, -forward)
    med_f = np.median(forward)
    med_b = np.median(backward)
    assert np.array_equal(np.abs(forward - med_f), np.abs(backward - med_b))


@given(matrix_st(k_min=4, k_max=10, d_max=4), st.integers(0, 2**32 - 1))
def prop_outly_exhaustive_dominates_sampled(rows, seed):
    om, exhaustive = _exhaustive_report(rows)
    sampled = outlyingness(om, DirectionPolicy(mode="sampled", count=3, seed=seed))
    assert np.all(exhaustive.r >= sampled.r)


@given(
    kernel_spec_st(),
    matrix_st(k_min=3, k_max=10, d_max=3, elements=grid_value),
    st.integers(0, 9),
    st.one_of(st.integers(0, 3), st.integers(0, 10**12)),
    st.integers(0, 2**64 - 1),
)
def prop_outly_full_count_is_exhaustive(spec, rows, copies, extra, seed):
    """A sampled count of k(k-1)/2 or more scans every pair: r is the
    exhaustive r bit for bit, nothing is drawn, and the policy stays."""
    rows[rows.shape[0] - copies :] = rows[0]  # up to 9 copies of sample 0
    om = kernel_matrix(spec, samples_of(rows))
    pairs = om.k * (om.k - 1) // 2
    policy = DirectionPolicy(mode="sampled", count=pairs + extra, seed=seed)

    def report(policy):
        try:
            return outlyingness(om, policy)
        except NoValidDirections:
            return None

    exhaustive, sampled = report(DirectionPolicy(mode="exhaustive")), report(policy)
    if exhaustive is None:
        assert sampled is None
        return
    assert sampled.r.tobytes() == exhaustive.r.tobytes()
    assert (sampled.directions, sampled.degenerate_pairs) == (pairs, exhaustive.degenerate_pairs)
    assert sampled.draws == 0
    assert sampled.policy == policy


@given(
    matrix_st(k_min=3, k_max=8, d_max=3, elements=grid_value),
    npst.arrays(np.float64, 3, elements=grid_value),
)
def prop_outly_translation_invariance(rows, offset):
    om1 = kernel_matrix(LINEAR, samples_of(rows))
    assume(_directions_well_conditioned(om1))
    report1 = outlyingness(om1, DirectionPolicy(mode="exhaustive"))
    shifted = rows + offset[: rows.shape[1]]
    om2 = kernel_matrix(LINEAR, samples_of(shifted))
    report2 = outlyingness(om2, DirectionPolicy(mode="exhaustive"))
    assert np.all(np.abs(report1.r - report2.r) < 1e-8)


# Values whose products and sums stay normal floats under a 2**p scaling
# for p in [-40, 40], so that the scaling is exact.
unit_free = finite.filter(lambda v: v == 0.0 or abs(v) >= 1e-100)


@given(matrix_st(k_min=3, k_max=9, d_max=4, elements=unit_free), st.integers(-40, 40))
def prop_outly_power_of_two_scaling_changes_no_bit(rows, p):
    """Scaling the samples by 2**p scales each linear-kernel projection by
    2**p exactly, so r, and every pair's degeneracy, stay bit-identical."""

    def report(x):
        try:
            return outlyingness(kernel_matrix(LINEAR, samples_of(x)), DirectionPolicy(mode="exhaustive"))
        except NoValidDirections:
            return None

    plain, scaled = report(rows), report(rows * 2.0**p)
    if plain is None:
        assert scaled is None
        return
    assert scaled.r.tobytes() == plain.r.tobytes()
    assert scaled.degenerate_pairs == plain.degenerate_pairs


@given(matrix_st(k_min=3, k_max=8, d_max=3, elements=grid_value), st.floats(0.05, 50.0))
def prop_outly_scale_invariance(rows, factor):
    om1 = kernel_matrix(LINEAR, samples_of(rows))
    assume(_directions_well_conditioned(om1))
    report1 = outlyingness(om1, DirectionPolicy(mode="exhaustive"))
    om2 = kernel_matrix(LINEAR, samples_of(rows * factor))
    report2 = outlyingness(om2, DirectionPolicy(mode="exhaustive"))
    scale = np.maximum(np.abs(report1.r), 1.0)
    assert np.all(np.abs(report1.r - report2.r) / scale < 1e-8)


# ------------------------------------------------------------------- svm ----


def svm_instance_st(n_max=6, d_max=3, c_max=30.0, elements=finite):
    return st.integers(2, n_max).flatmap(
        lambda n: st.tuples(
            st.integers(1, d_max).flatmap(
                lambda d: npst.arrays(np.float64, (n, d), elements=elements)
            ),
            labels_st(n),
            st.floats(0.01, c_max),
        )
    )


@given(svm_instance_st())
def prop_svm_objective_reaches_oracle(instance):
    rows, y, c = instance
    om = kernel_matrix(LINEAR, samples_of(rows))
    model = solve_dual(om, y, c, tol=1e-8)
    ours = dual_objective(om, y, model.alpha)
    oracle, _ = dual_qp_oracle(om.entries, y, c)
    assert ours >= -1e-12
    assert ours >= oracle - 1e-6
    assert abs(ours - oracle) <= 1e-6 * max(1.0, abs(oracle))


@given(svm_instance_st(n_max=10, d_max=4))
def prop_svm_complementary_slackness(instance):
    rows, y, c = instance
    om = kernel_matrix(LINEAR, samples_of(rows))
    tol = 1e-6
    model = solve_dual(om, y, c, tol)
    margins = y * decision_values(model, om.entries)
    slack = tol + 1e-9
    for i in range(len(y)):
        if model.alpha[i] <= 1e-12:
            assert margins[i] >= 1.0 - slack
        elif model.alpha[i] >= c - 1e-12:
            assert margins[i] <= 1.0 + slack


@given(svm_instance_st(n_max=10, d_max=4, c_max=10.0, elements=grid_value))
def prop_svm_label_flip_antisymmetry(instance):
    rows, y, c = instance
    om = kernel_matrix(LINEAR, samples_of(rows))
    model_pos = solve_dual(om, y, c, tol=1e-10)
    model_neg = solve_dual(om, -y, c, tol=1e-10)
    f_pos = decision_values(model_pos, om.entries)
    f_neg = decision_values(model_neg, om.entries)
    assert np.all(np.abs(f_pos + f_neg) < 1e-8)


@given(
    svm_instance_st(n_max=8, d_max=3, c_max=10.0, elements=grid_value),
    st.randoms(use_true_random=False),
)
def prop_svm_permutation_invariance(instance, rng):
    rows, y, c = instance
    n = len(y)
    perm = list(range(n))
    rng.shuffle(perm)
    grid = np.linspace(-2.0, 2.0, 5)[:, None] * np.ones(rows.shape[1])[None, :]
    grid_samples = samples_of(grid)

    def fit_and_score(order):
        ordered = rows[order]
        om = kernel_matrix(LINEAR, samples_of(ordered))
        model = solve_dual(om, y[order], c, tol=1e-10)
        block = kernel_cross(LINEAR, samples_of(ordered), grid_samples)
        return decision_values(model, block)

    baseline = fit_and_score(np.arange(n))
    permuted = fit_and_score(np.array(perm))
    assert np.all(np.abs(baseline - permuted) < 1e-8)


# -------------------------------------------------------------- pipeline ----


def dataset_st(n_group_min=3, n_group_max=6, d_max=3):
    def build(args):
        n_minus, n_plus, d, seed_rows = args
        rows = seed_rows[: n_minus + n_plus]
        labels = np.concatenate([-np.ones(n_minus), np.ones(n_plus)])
        return Dataset(x=rows, labels=labels)

    return st.tuples(
        st.integers(n_group_min, n_group_max),
        st.integers(n_group_min, n_group_max),
        st.integers(1, d_max),
    ).flatmap(
        lambda t: npst.arrays(np.float64, (t[0] + t[1], t[2]), elements=grid_value).map(
            lambda rows: build((t[0], t[1], t[2], rows))
        )
    )


def _fit_quietly(ds, kappa, c=0.5):
    from sdsvm.errors import PipelineError

    try:
        return fit_sdsvm(ds, LINEAR, kappa=kappa, cv=CvConfig(grid=(c,)))
    except PipelineError:
        assume(False)


@given(dataset_st(n_group_min=6, n_group_max=9), st.sampled_from([0.5, 0.7, 0.9, 1.0]))
def prop_pipeline_trim_idempotent(ds, kappa):
    fit1 = _fit_quietly(ds, kappa)
    retained = list(fit1.plan.retained)
    reduced = Dataset(x=ds.x[retained], labels=ds.labels[retained])
    fit2 = _fit_quietly(reduced, 1.0, c=fit1.model.c)
    assert not fit2.plan.trimmed.any()
    assert np.all(np.abs(fit2.decision_values - fit1.decision_values[retained]) < 1e-6)


@given(dataset_st(), st.randoms(use_true_random=False), st.sampled_from([0.5, 0.8, 1.0]))
def prop_pipeline_trim_is_within_group(ds, rng, kappa):
    fit1 = _fit_quietly(ds, kappa)
    plus_positions = [i for i in range(len(ds)) if ds.labels[i] > 0]
    shuffled = list(plus_positions)
    rng.shuffle(shuffled)
    reordered = list(range(len(ds)))
    for original, new in zip(plus_positions, shuffled):
        reordered[original] = new
    ds2 = Dataset(x=ds.x[reordered], labels=ds.labels[np.array(reordered)])
    fit2 = _fit_quietly(ds2, kappa)
    # the untouched negative group keeps its exact retained set and values
    minus_positions = np.array([i for i in range(len(ds)) if ds.labels[i] < 0])
    assert np.array_equal(fit1.plan.trimmed[minus_positions], fit2.plan.trimmed[minus_positions])
    assert np.array_equal(
        fit1.plan.outlyingness[minus_positions], fit2.plan.outlyingness[minus_positions]
    )


@given(dataset_st(), st.floats(0.1, 20.0))
def prop_pipeline_kappa_one_is_plain_svm(ds, c):
    # kappa 1 retains everything, so both routes hand the solver the same
    # inputs; agreement holds at the default tolerance already.
    fit = _fit_quietly(ds, 1.0, c=c)
    om = kernel_matrix(LINEAR, ds.x)
    plain = solve_dual(om, ds.labels, c, tol=1e-3)
    assert np.all(
        np.abs(fit.decision_values - decision_values(plain, om.entries)) < 1e-8
    )


@given(
    dataset_st(n_group_min=4, n_group_max=8),
    st.sampled_from([0.5, 0.6, 0.75]),
    st.sampled_from([0.8, 0.9, 1.0]),
)
def prop_pipeline_monotone_retention(ds, kappa_small, kappa_big):
    om = kernel_matrix(LINEAR, ds.x)
    minus = np.flatnonzero(ds.labels < 0)
    plus = np.flatnonzero(ds.labels > 0)
    try:
        report_minus = outlyingness(om.take(minus), DirectionPolicy(mode="exhaustive"))
        report_plus = outlyingness(om.take(plus), DirectionPolicy(mode="exhaustive"))
    except NoValidDirections:
        assume(False)
    plan_small = trim(report_minus, report_plus, ds.labels, kappa_small)
    plan_big = trim(report_minus, report_plus, ds.labels, kappa_big)
    assert set(plan_small.retained) <= set(plan_big.retained)


# ------------------------------------------------------------ outlier map ----


@given(dataset_st(n_group_min=3, n_group_max=6))
def prop_map_copies_fit_exactly(ds):
    fit = _fit_quietly(ds, 0.5)
    back = parse_csv(map_to_csv(fit))
    assert back.decision_values.tolist() == fit.decision_values.tolist()
    assert back.plan.outlyingness.tolist() == fit.plan.outlyingness.tolist()
    assert int(np.sum(back.decision_values < 0)) == int(np.sum(fit.decision_values < 0))


_row_st = st.tuples(
    st.text(
        alphabet=st.characters(min_codepoint=33, max_codepoint=126, exclude_characters=","),
        min_size=1,
        max_size=8,
    ),
    st.sampled_from([-1, 1]),
    finite,
    st.one_of(st.floats(0.0, 50.0), st.just(math.inf)),
    st.booleans(),
)


@given(st.lists(_row_st, max_size=20))
def prop_map_csv_round_trip(rows):
    # Each cell prints exactly (floats as their round-trip repr), so equal
    # text means equal columns.
    text = map_to_csv(fit_from_rows(rows))
    assert map_to_csv(parse_csv(text)) == text


# ------------------------------------------------------------------ data ----


def small_sim_spec_st():
    return st.builds(
        SimulationSpec,
        n_per_group=st.integers(3, 5),
        dim=st.integers(1, 6),
        shift=st.floats(0.0, 2.0),
        outliers_per_group=st.sampled_from([0, 2]),
        test_size=st.integers(2, 10),
        runs=st.just(1),
        kappas=st.just((1.0,)),
        seed=st.integers(0, 2**32 - 1),
    )


@given(small_sim_spec_st(), st.integers(0, 10))
def prop_data_generators_are_pure(spec, run):
    first_train, first_test = gen_simulation(spec, run)
    second_train, second_test = gen_simulation(spec, run)
    for a, b in ((first_train, second_train), (first_test, second_test)):
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.x, b.x)


@given(small_sim_spec_st())
def prop_data_error_fractions_quantized(spec):
    result = run_simulation(spec, LINEAR)
    for row in result.rows:
        if math.isnan(row.error):
            continue
        scaled = row.error * spec.test_size
        assert abs(scaled - round(scaled)) < 1e-9


ALL_PROPERTIES = [
    value
    for name, value in sorted(globals().items())
    if name.startswith("prop_") and callable(value)
]
