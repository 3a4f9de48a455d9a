import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from hypothesis.extra import numpy as npst

import sdsvm.pipeline
from sdsvm import (
    CvConfig,
    KernelMatrix,
    Dataset,
    DirectionPolicy,
    KernelSpec,
    OutlyingnessReport,
    decision_values,
    fit_from_text,
    fit_ranked,
    fit_sdsvm,
    fit_to_text,
    gen_simulation,
    gen_toy,
    kernel_matrix,
    rank,
    run_simulation,
    select_C,
    solve_dual,
    TrimPlan,
)
from sdsvm.data import SimulationSpec
from sdsvm.errors import (
    ConvergenceError,
    DimensionError,
    SdsvmError,
    GroupEmptyAfterTrim,
    PipelineError,
    SerializationError,
    TooFewSamples,
)
from sdsvm.pipeline import DEFAULT_C_GRID, CvSelection

from oracles import select_c_cold

LINEAR = KernelSpec(kind="linear")
EXHAUSTIVE = DirectionPolicy(mode="exhaustive")


def report(values):
    return OutlyingnessReport(r=np.asarray(values, dtype=np.float64), policy=EXHAUSTIVE)


class TestTrim:
    def test_half_of_four(self):
        labels = [-1, -1, -1, -1, 1, 1, 1, 1]
        plan = TrimPlan(0.5, (report([3.0, 1.0, 2.0, 4.0]), report([1.0, 2.0, 3.0, 4.0])), labels)
        assert plan.retained.dtype == np.intp
        assert plan.retained.tolist() == [1, 2, 4, 5]

    def test_kappa_one_keeps_everything(self):
        labels = [-1, -1, -1, 1, 1, 1]
        plan = TrimPlan(1.0, (report([5.0, 1.0, 9.0]), report([2.0, 2.0, 2.0])), labels)
        assert plan.retained.tolist() == [0, 1, 2, 3, 4, 5]
        assert not plan.trimmed.any()

    def test_tie_at_cut_broken_by_index(self):
        labels = [1, 1, 1, 1, -1, -1, -1, -1]
        plan = TrimPlan(0.75, (report([1.0, 1.0, 1.0, 1.0]), report([0.0, 5.0, 5.0, 9.0])), labels)
        # positive group sits at dataset indices 0-3; the lower-index 5 stays
        assert plan.retained[plan.retained < 4].tolist() == [0, 1, 2]
        assert plan.trimmed[3]

    def test_infinite_outlyingness_trimmed_first(self):
        labels = [-1, -1, -1, 1, 1, 1]
        plan = TrimPlan(0.5, (report([np.inf, 0.5, 1.0]), report([1.0, 1.0, 1.0])), labels)
        assert 0 not in plan.retained.tolist()

    def test_empty_group_after_floor(self):
        labels = [-1, 1, 1]
        with pytest.raises(GroupEmptyAfterTrim):
            TrimPlan(0.5, (report([1.0]), report([1.0, 2.0])), labels)

    def test_kappa_range_validated(self):
        labels = [-1, 1]
        for bad in (0.4, 1.2):
            with pytest.raises(ValueError, match="kappa"):
                TrimPlan(bad, (report([1.0]), report([1.0])), labels)

    @pytest.mark.parametrize(
        "kappa,n,expected",
        [(0.5, 4, 2), (0.5, 25, 12), (0.7, 25, 17), (0.9, 29, 26), (0.7, 30, 21), (1.0, 25, 25)],
    )
    def test_floor_counts(self, kappa, n, expected):
        labels = [-1] * n + [1] * n
        plan = TrimPlan(kappa, (report(np.arange(n)), report(np.arange(n))), labels)
        assert np.count_nonzero(~plan.trimmed[:n]) == expected


def wide_margin_dataset():
    """Two tight clusters far apart: separable at any reasonable C."""
    offsets = np.array([[dx, dy] for dx in (-0.1, 0.0, 0.1) for dy in (-0.1, 0.0, 0.1)])
    neg = offsets + [-5.0, 0.0]
    pos = offsets + [5.0, 0.0]
    rows = np.vstack([neg, pos])
    labels = np.concatenate([-np.ones(9), np.ones(9)])
    return Dataset(x=rows, labels=labels)


class TestSelectC:
    def test_singleton_grid(self):
        ds = wide_margin_dataset()
        om = kernel_matrix(LINEAR, ds.x)
        selection = select_C(om, ds.labels, CvConfig(folds=3, grid=(0.1,)))
        assert selection.c == 0.1
        assert len(selection.table) == 1
        assert selection.table[0][0] == 0.1
        assert math.isfinite(selection.table[0][1])

    def test_wide_margin_reaches_zero_error(self):
        ds = wide_margin_dataset()
        om = kernel_matrix(LINEAR, ds.x)
        selection = select_C(om, ds.labels, CvConfig(folds=3, grid=(0.01, 1.0, 100.0)))
        errors = dict(selection.table)
        assert errors[selection.c] == 0.0

    def test_same_seed_same_table(self):
        ds = wide_margin_dataset()
        om = kernel_matrix(LINEAR, ds.x)
        cv = CvConfig(folds=4, grid=(0.01, 0.1, 1.0), seed=9)
        first = select_C(om, ds.labels, cv)
        second = select_C(om, ds.labels, cv)
        assert first == second

    def test_ties_prefer_smallest_c(self):
        ds = wide_margin_dataset()
        om = kernel_matrix(LINEAR, ds.x)
        selection = select_C(om, ds.labels, CvConfig(folds=3, grid=(10.0, 0.5, 2.0)))
        errors = [err for _, err in selection.table]
        assert errors.count(min(errors)) >= 2  # wide margin: many zeros
        assert selection.c == 0.5

    def test_folds_clamped_to_min_class(self):
        ds = wide_margin_dataset()
        om = kernel_matrix(LINEAR, ds.x)
        selection = select_C(om, ds.labels, CvConfig(folds=10, grid=(0.1, 1.0)))
        assert selection.folds_used == 9


class TestCvSelection:
    """The record of the C choice derives its C from its table."""

    @pytest.mark.parametrize(
        "table, c",
        [
            (((10.0, 0.2), (0.5, 0.1), (2.0, 0.1)), 0.5),  # a tie goes to the smallest C
            (((0.1, math.nan), (1.0, 0.3), (10.0, 0.4)), 1.0),  # a failed C is skipped
            (((1.0, 0.0), (1.0, 0.0)), 1.0),  # a grid may repeat a C
        ],
    )
    def test_c_is_least_error_ties_to_smallest(self, table, c):
        assert CvSelection(table, folds_used=3).c == c

    def test_fixed_c_is_one_nan_row_and_no_folds(self):
        selection = CvSelection(((0.25, math.nan),), folds_used=0)
        assert selection.c == 0.25 and selection.folds_used == 0

    @pytest.mark.parametrize(
        "table, folds",
        [
            (((0.1, math.nan),), 9),  # folds over a fixed C
            (((0.1, 0.3),), 0),  # an error on a fixed C
            (((0.1, math.nan), (1.0, math.nan)), 0),  # a fixed C is one row
            ((), 0),
            ((), 3),
            (((0.1, math.nan), (1.0, math.nan)), 3),  # no C converged
            (((0.1, 0.3),), 1),  # one fold is no cross-validation
            (((0.1, 0.3),), -2),
            (((0.1, 0.0), (-5.0, 0.5)), 3),  # a C no grid holds
            (((0.1, 0.0), (math.inf, 0.5)), 3),
            (((0.1, 0.0), (1.0, 7.5)), 3),  # an error rate above 1
            (((0.1, -0.5), (1.0, 0.5)), 3),
            (((0.0, math.nan),), 0),
        ],
    )
    def test_any_other_table_or_fold_count_raises(self, table, folds):
        with pytest.raises(ValueError, match="is no choice of C"):
            CvSelection(table, folds_used=folds)

    def test_folds_used_must_be_an_integer(self):
        with pytest.raises(ValueError, match="folds_used must be an integer"):
            CvSelection(((0.1, 0.3),), folds_used=2.5)


def toy_retained(spec):
    """Kernel matrix and labels of the set a kappa=0.5 toy fit trains on."""
    ds = gen_toy(1)
    retained = np.array(fit_sdsvm(ds, spec).plan.retained)
    return kernel_matrix(spec, ds.x).take(retained), ds.labels[retained]


class TestWarmCPath:
    """select_C solves each fold's grid in ascending C from the last solution."""

    @pytest.mark.parametrize(
        "spec, cv",
        [
            (LINEAR, CvConfig(folds=5, grid=(10.0, 0.5, 2.0))),
            (LINEAR, CvConfig(folds=5, grid=DEFAULT_C_GRID)),
            (KernelSpec(kind="rbf", gamma=0.5), CvConfig(folds=5, grid=DEFAULT_C_GRID)),
            (LINEAR, CvConfig(folds=4, grid=(0.01, 0.1, 1.0, 10.0), seed=3)),
        ],
    )
    def test_matches_cold_start_loop(self, spec, cv):
        om, y = toy_retained(spec)
        assert select_C(om, y, cv) == select_c_cold(om, y, cv)

    def test_fold_blocks_built_once_per_fold(self, monkeypatch):
        om, y = toy_retained(LINEAR)
        takes = []
        original = KernelMatrix.take

        def counting_take(self, indices):
            takes.append(indices)
            return original(self, indices)

        monkeypatch.setattr(KernelMatrix, "take", counting_take)
        selection = select_C(om, y, CvConfig(folds=4, grid=(0.01, 0.1, 1.0)))
        assert len(takes) == selection.folds_used == 4

    def test_failed_c_is_nan_and_next_c_seeds_from_last_success(self, monkeypatch):
        om, y = toy_retained(LINEAR)
        cv = CvConfig(folds=4, grid=(10.0, 0.01, 1.0, 0.1))
        reference = select_c_cold(om, y, cv)
        calls = []

        def flaky(omega, labels, c, start=None):
            call = {"c": c, "start": start, "alpha": None}
            calls.append(call)
            if c == 1.0:
                raise ConvergenceError("forced failure", max_violation=1.0)
            model = solve_dual(omega, labels, c, start=start)
            call["alpha"] = model.alpha
            return model

        monkeypatch.setattr(sdsvm.pipeline, "solve_dual", flaky)
        selection = select_C(om, y, cv)
        assert math.isnan(selection.table[2][1])
        for t in (0, 1, 3):
            assert selection.table[t] == reference.table[t]
        assert selection.c == reference.c
        assert [call["c"] for call in calls].count(1.0) == 1  # skipped after its failure
        for pos, call in enumerate(calls):
            if call["c"] == 0.01:
                assert call["start"] is None
            else:
                previous = [p for p in calls[:pos] if p["alpha"] is not None][-1]
                assert previous["c"] == {0.1: 0.01, 1.0: 0.1, 10.0: 0.1}[call["c"]]
                assert call["start"] is previous["alpha"]

    def test_every_c_failing_propagates(self, monkeypatch):
        om, y = toy_retained(LINEAR)

        def failing(omega, labels, c, start=None):
            raise ConvergenceError(f"forced failure at C={c}", max_violation=2.0)

        monkeypatch.setattr(sdsvm.pipeline, "solve_dual", failing)
        with pytest.raises(ConvergenceError) as excinfo:
            select_C(om, y, CvConfig(folds=3, grid=(0.1, 1.0)))
        assert excinfo.value.max_violation == 2.0

    def test_final_train_solve_starts_cold(self, monkeypatch):
        starts = []

        def recording(omega, labels, c, tol=1e-3, spec=None, start=None):
            starts.append(start)
            return solve_dual(omega, labels, c, tol, spec=spec, start=start)

        monkeypatch.setattr(sdsvm.pipeline, "solve_dual", recording)
        fit_sdsvm(gen_toy(1), LINEAR, cv=CvConfig(folds=3, grid=(0.01, 1.0)))
        assert len(starts) == 2 * 3 + 1
        assert starts[0] is None and starts[1] is not None  # the fold's second C is seeded
        assert starts[-1] is None


def sim_retained(seed, kappa):
    """Kernel matrix and labels of the set a clean paper-simulation fit trains on."""
    train, _ = gen_simulation(SimulationSpec(seed=seed), 0)
    ranking = rank(train, LINEAR)
    keep = TrimPlan(kappa, ranking.reports, train.labels).retained
    return ranking.omega.take(keep), train.labels[keep]


def counting_solves(monkeypatch):
    """Record the C of every solve_dual call select_C makes."""
    calls = []

    def counting(omega, labels, c, start=None):
        calls.append(c)
        return solve_dual(omega, labels, c, start=start)

    monkeypatch.setattr(sdsvm.pipeline, "solve_dual", counting)
    return calls


@st.composite
def cv_problem(draw):
    """A small separable or overlapping problem and an unsorted C grid with repeats."""
    n_minus, n_plus, d = draw(st.integers(3, 8)), draw(st.integers(3, 8)), draw(st.integers(1, 4))
    x = draw(npst.arrays(np.float64, (n_minus + n_plus, d), elements=st.floats(-3.0, 3.0)))
    x[n_minus:, 0] += draw(st.sampled_from([0.0, 1.0, 20.0]))  # 20 separates the groups
    labels = np.concatenate([-np.ones(n_minus), np.ones(n_plus)])
    spec = draw(st.sampled_from([LINEAR, KernelSpec(kind="rbf", gamma=0.5)]))
    grid = tuple(draw(st.lists(st.sampled_from(DEFAULT_C_GRID[:6]), min_size=1, max_size=6)))
    cv = CvConfig(folds=draw(st.integers(2, 4)), grid=grid, seed=draw(st.integers(0, 3)))
    return kernel_matrix(spec, x), labels, cv


class TestFixedPointRate:
    """Once a seeded solve is a fixed point, larger C in its fold reuse its rate."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kappa", [0.5, 0.7, 0.9, 1.0])
    def test_separable_simulation_matches_cold_start_loop(self, seed, kappa):
        om, y = sim_retained(seed, kappa)
        cv = CvConfig(folds=10, grid=DEFAULT_C_GRID)
        assert select_C(om, y, cv) == select_c_cold(om, y, cv)

    def test_separable_fold_solves_once_seeded(self, monkeypatch):
        om, y = sim_retained(0, 1.0)
        calls = counting_solves(monkeypatch)
        selection = select_C(om, y, CvConfig(folds=10, grid=DEFAULT_C_GRID))
        assert selection.folds_used == 10
        assert calls == [DEFAULT_C_GRID[0], DEFAULT_C_GRID[1]] * 10  # cold, then one seeded

    def test_non_separable_toy_solves_every_c(self, monkeypatch):
        ds = gen_toy(1)
        grid = (10.0, 0.01, 1.0, 0.1)
        calls = counting_solves(monkeypatch)
        select_C(kernel_matrix(LINEAR, ds.x), ds.labels, CvConfig(folds=5, grid=grid))
        assert calls == sorted(grid) * 5

    @given(cv_problem())
    def test_matches_cold_start_loop_on_random_problems(self, problem):
        om, y, cv = problem
        assert select_C(om, y, cv) == select_c_cold(om, y, cv)


class TestRankOnce:
    """rank is kappa-independent: fit_ranked on one ranking is fit_sdsvm."""

    def test_one_ranking_fits_every_kappa_like_fit_sdsvm(self):
        ds = gen_toy(4)
        cv = CvConfig(folds=3, grid=(0.01, 0.1, 1.0))
        policy = DirectionPolicy(mode="sampled", count=300, seed=6)
        ranking = rank(ds, LINEAR, policy)
        for kappa in (0.5, 0.75, 1.0):
            expected = fit_to_text(fit_sdsvm(ds, LINEAR, kappa=kappa, cv=cv, policy=policy))
            assert fit_to_text(fit_ranked(ranking, kappa, cv)) == expected

    def test_simulation_ranks_each_run_once(self, monkeypatch):
        calls = {"kernel_matrix": 0, "outlyingness": 0}

        def counting(name):
            original = getattr(sdsvm.pipeline, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(sdsvm.pipeline, name, counting(name))
        spec = SimulationSpec(
            n_per_group=8, dim=10, outliers_per_group=2, test_size=10, runs=2,
            kappas=(0.5, 0.7, 0.9, 1.0),
        )
        result = run_simulation(spec, LINEAR)
        assert all(row.failure is None for row in result.rows)
        assert calls == {"kernel_matrix": 2, "outlyingness": 4}


class TestFitSdsvm:
    def test_kappa_one_singleton_equals_plain_svm(self):
        ds = wide_margin_dataset()
        fit = fit_sdsvm(ds, LINEAR, kappa=1.0, cv=CvConfig(grid=(0.25,)))
        om = kernel_matrix(LINEAR, ds.x)
        plain = solve_dual(om, ds.labels, 0.25)
        np.testing.assert_allclose(fit.model.alpha, plain.alpha, atol=1e-8)
        assert fit.model.bias == pytest.approx(plain.bias, abs=1e-8)
        np.testing.assert_allclose(
            fit.decision_values, decision_values(plain, om.entries), atol=1e-8
        )
        assert fit.model.c == fit.cv.c == 0.25
        assert fit.cv.folds_used == 0
        assert len(fit.cv.table) == 1 and math.isnan(fit.cv.table[0][1])

    def test_model_c_must_be_the_chosen_c(self):
        fit = fit_sdsvm(gen_toy(5), LINEAR)
        with pytest.raises(ValueError, match="model has C=0.1 but the C choice is 0.2"):
            replace(fit, cv=CvSelection(((0.2, math.nan),), folds_used=0))

    def test_contaminated_outliers_all_trimmed(self):
        spec = SimulationSpec(n_per_group=12, dim=40, outliers_per_group=4, test_size=10, runs=1)
        train, _ = gen_simulation(spec, 0)
        fit = fit_sdsvm(train, LINEAR, kappa=0.5)
        planted = list(range(24, 32))  # appended after the 24 clean samples
        assert all(fit.plan.trimmed[i] for i in planted)
        # planted outliers carry the largest outlyingness within their groups
        neg = np.flatnonzero(train.labels < 0)
        pos = np.flatnonzero(train.labels > 0)
        r = fit.plan.outlyingness
        assert min(r[neg[-4:]]) > max(r[neg[:-4]])
        assert min(r[pos[-4:]]) > max(r[pos[:-4]])

    def test_toy_outlier_ids_never_retained(self):
        fit = fit_sdsvm(gen_toy(1), LINEAR)
        assert all(fit.plan.trimmed[i] for i in range(60, 65))  # ids 61-65

    def test_toy_sample_66_moderate_outlyingness(self):
        # misclassified but not extreme: below the largest outlyingness
        # among its group's trimmed samples
        fit = fit_sdsvm(gen_toy(1), LINEAR)
        r = fit.plan.outlyingness
        trimmed_plus = [
            i for i in range(66) if fit.plan.trimmed[i] and fit.labels[i] > 0
        ]
        assert fit.decision_values[65] < 0
        assert r[65] < max(r[i] for i in trimmed_plus)

    def test_group_size_precondition(self):
        rows = np.arange(8.0).reshape(4, 2)
        ds = Dataset(x=rows, labels=np.array([-1.0, -1.0, 1.0, 1.0]))
        with pytest.raises(PipelineError) as excinfo:
            fit_sdsvm(ds, LINEAR)
        assert excinfo.value.stage == "validate"
        assert isinstance(excinfo.value.cause, TooFewSamples)

    @pytest.mark.parametrize("p", [-24, -40])
    def test_toy_in_tiny_units_ranks_as_in_unit_ones(self, p):
        # At 2**-24 the toy's squared distances are about 1e-14; an absolute
        # degeneracy floor of 1e-12 called every pair degenerate there.
        toy = gen_toy(1)
        plain = fit_sdsvm(toy, LINEAR)
        tiny = fit_sdsvm(Dataset(x=toy.x * 2.0**p, labels=toy.labels), LINEAR)
        assert tiny.plan.outlyingness.tobytes() == plain.plan.outlyingness.tobytes()
        assert np.array_equal(tiny.plan.trimmed, plain.plan.trimmed)

    def test_stage_label_on_degenerate_groups(self):
        rows = np.ones((8, 2))
        ds = Dataset(x=rows, labels=np.array([-1.0] * 4 + [1.0] * 4))
        with pytest.raises(PipelineError) as excinfo:
            fit_sdsvm(ds, LINEAR)
        assert excinfo.value.stage == "outlyingness"

    @pytest.mark.parametrize(
        "kappa, cv", [(0.5, CvConfig()), (0.75, CvConfig(folds=3, grid=(0.01, 0.1, 1.0)))]
    )
    def test_precomputed_linear_gram_fits_bit_equal_to_linear(self, kappa, cv):
        toy = gen_toy(1)
        gram = Dataset(x=kernel_matrix(LINEAR, toy.x).entries, labels=toy.labels)
        linear = fit_sdsvm(toy, LINEAR, kappa=kappa, cv=cv)
        given = fit_sdsvm(gram, KernelSpec(kind="precomputed"), kappa=kappa, cv=cv)
        assert given.decision_values.tobytes() == linear.decision_values.tobytes()
        assert given.plan.outlyingness.tobytes() == linear.plan.outlyingness.tobytes()
        assert np.array_equal(given.plan.trimmed, linear.plan.trimmed)
        assert given.model.c == linear.model.c

    def test_policy_recorded_per_group(self):
        fit = fit_sdsvm(gen_toy(2), LINEAR)
        assert [report.policy.mode for report in fit.reports] == ["exhaustive", "exhaustive"]

    def test_decision_values_cover_trimmed_samples(self):
        fit = fit_sdsvm(gen_toy(3), LINEAR)
        assert fit.decision_values.shape == (66,)
        assert np.all(np.isfinite(fit.decision_values))

    @pytest.mark.parametrize(
        "policy",
        [pytest.param(DirectionPolicy(), id="auto"), DirectionPolicy(mode="sampled", count=200, seed=4)],
    )
    def test_outlyingness_reports_kept(self, policy):
        fit = fit_sdsvm(gen_toy(3), LINEAR, policy=policy)
        minus, plus = fit.reports
        assert minus.policy == plus.policy == (EXHAUSTIVE if policy.mode == "auto" else policy)
        assert np.array_equal(fit.plan.outlyingness[fit.labels < 0], minus.r)
        assert np.array_equal(fit.plan.outlyingness[fit.labels > 0], plus.r)
        for report in (minus, plus):
            if policy.mode == "auto":
                assert report.directions == report.k * (report.k - 1) // 2
                assert report.draws == 0
            else:
                assert report.directions == 200
                assert report.draws >= 200
        # Read back, each report holds its r and policy, its counters at the defaults.
        for back, report in zip(fit_from_text(fit_to_text(fit)).reports, fit.reports, strict=True):
            assert back.r.tobytes() == report.r.tobytes() and back.policy == report.policy
            assert (back.degenerate_pairs, back.directions, back.draws) == (0, 0, 0)


@st.composite
def small_fit(draw):
    """A fit of a small random dataset, kernel, kappa, C or C grid and ids."""
    n_minus, n_plus, d = draw(st.integers(3, 6)), draw(st.integers(3, 6)), draw(st.integers(1, 3))
    n = n_minus + n_plus
    values = st.floats(-10.0, 10.0, width=64) | st.sampled_from([0.0, -0.0, 1e-300, 5e-324, 0.1])
    x = draw(npst.arrays(np.float64, (n, d), elements=values))
    labels = np.concatenate([-np.ones(n_minus), np.ones(n_plus)])
    id_text = st.text(st.characters(blacklist_categories=("Z", "C")), min_size=1, max_size=6)
    ids = draw(st.none() | st.lists(id_text, min_size=n, max_size=n, unique=True))
    spec = draw(
        st.sampled_from(
            [
                LINEAR,
                KernelSpec(kind="rbf", gamma=0.3),
                KernelSpec(kind="polynomial", gamma=0.5, degree=2, coef0=1.0),
            ]
        )
    )
    kappa = draw(st.sampled_from([0.5, 0.75, 1.0]))
    cv = draw(
        st.sampled_from(
            [CvConfig(grid=(0.1,)), CvConfig(grid=(2.0**-3,)), CvConfig(folds=2, grid=(0.01, 1.0), seed=3)]
        )
    )
    try:
        return fit_sdsvm(Dataset(x=x, labels=labels, ids=ids), spec, kappa=kappa, cv=cv)
    except SdsvmError:
        assume(False)


class TestFitReport:
    @given(small_fit())
    def test_report_reserializes_byte_identically(self, fit):
        text = fit_to_text(fit)
        assert fit_to_text(fit_from_text(text)) == text

    def test_round_trip(self):
        fit = fit_sdsvm(gen_toy(5), LINEAR)
        text = fit_to_text(fit)
        back = fit_from_text(text)
        assert back.plan.kappa == fit.plan.kappa
        assert back.model.c == fit.model.c
        assert back.cv.folds_used == fit.cv.folds_used == 0
        assert back.ids == tuple(str(i) for i in fit.ids)
        assert np.array_equal(back.labels, fit.labels)
        assert np.array_equal(back.decision_values, fit.decision_values)
        assert np.array_equal(back.plan.outlyingness, fit.plan.outlyingness)
        assert np.array_equal(back.plan.trimmed, fit.plan.trimmed)
        assert back.model.bias == fit.model.bias
        assert back.model.tol == fit.model.tol
        assert np.array_equal(back.model.alpha, fit.model.alpha)
        assert np.array_equal(back.model.labels, fit.model.labels)
        assert back.model.updates == 0 and math.isnan(back.model.gap)  # not serialized
        # second serialization is byte-identical
        assert fit_to_text(back) == text

    def test_empty_id_raises(self):
        # Its row once lost a field, so the reader refused the report.
        fit = fit_sdsvm(gen_toy(5), LINEAR)
        with pytest.raises(SerializationError, match="^an id is empty$"):
            fit_to_text(replace(fit, ids=("",) + fit.ids[1:]))

    def test_kappa_of_any_number_type_reads_back(self):
        # A numpy kappa was once stored as given and written as
        # "kappa np.float64(0.5)", a line its own reader rejected.
        fit = fit_sdsvm(gen_toy(5), LINEAR)
        fit = replace(fit, plan=replace(fit.plan, kappa=np.float64(0.5)))
        text = fit_to_text(fit)
        assert "\nkappa 0.5\n" in text
        back = fit_from_text(text)
        assert type(back.plan.kappa) is float and back.plan.kappa == 0.5
        assert fit_to_text(back) == text

    def test_cv_table_round_trip(self):
        ds = wide_margin_dataset()
        fit = fit_sdsvm(ds, LINEAR, cv=CvConfig(folds=3, grid=(0.1, 1.0, 10.0)))
        back = fit_from_text(fit_to_text(fit))
        assert back.cv == fit.cv
        assert back.cv.folds_used == 3 and back.model.c == back.cv.c

    @pytest.mark.parametrize(
        "edit, rule",
        [
            (lambda text: text.replace("\nfolds-used 0\n", "\nfolds-used 9\n"), "is no choice of C"),
            (lambda text: text.replace("\n0.1 nan\n", "\n0.1 0.3\n"), "is no choice of C"),
            (
                lambda text: text.replace("chosen-c 0.1", "chosen-c 0.2").replace("C=0.1", "C=0.2"),
                "model has C=0.2 but the C choice is 0.1",
            ),
        ],
        ids=["folds-over-fixed-c", "error-on-fixed-c", "c-not-in-table"],
    )
    def test_cv_block_the_writer_never_writes_raises(self, edit, rule):
        # Each of these edits once read back without error.
        text = fit_to_text(fit_sdsvm(gen_toy(1), KernelSpec()))
        edited = edit(text)
        assert edited != text
        with pytest.raises(SerializationError, match=rule):
            fit_from_text(edited)

    @pytest.mark.parametrize(
        "row, rule",
        [
            ("0.1 abc", "could not convert string to float: 'abc'"),
            ("abc nan", "could not convert string to float: 'abc'"),
            ("inf nan", r"folds_used 0 over the table \(\(inf, nan\),\) is no choice of C"),
            ("0.1 inf", "is no choice of C"),
        ],
    )
    def test_cv_table_cells_are_read_as_numbers(self, row, rule):
        # The reader parses the table's cells; CvSelection takes numbers, not text.
        text = fit_to_text(fit_sdsvm(gen_toy(1), KernelSpec()))
        with pytest.raises(SerializationError, match=rule):
            fit_from_text(text.replace("\n0.1 nan\n", f"\n{row}\n"))

    @pytest.mark.parametrize("edit", ["kappa", "swap"])
    def test_trimmed_column_must_be_the_trim(self, edit):
        # Each of these edits once read back, with 33 of 66 samples retained.
        fit = fit_sdsvm(gen_toy(5), LINEAR)
        text = fit_to_text(fit)
        if edit == "kappa":
            text = text.replace("\nkappa 0.5\n", "\nkappa 0.9\n")
        else:
            # swap r between a trimmed and a retained minus sample
            lines = text.splitlines()
            at = lines.index("id label outlyingness trimmed f") + 1
            minus = fit.labels < 0
            cut = at + int(np.flatnonzero(minus & fit.plan.trimmed)[0])
            kept = at + int(np.flatnonzero(minus & ~fit.plan.trimmed)[0])
            rows = {row: lines[row].split() for row in (cut, kept)}
            rows[cut][2], rows[kept][2] = rows[kept][2], rows[cut][2]
            for row, cells in rows.items():
                lines[row] = " ".join(cells)
            text = "\n".join(lines) + "\n"
        with pytest.raises(SerializationError, match="trimmed column is not the trim"):
            fit_from_text(text)

    @pytest.mark.parametrize(
        "line, replacement",
        [
            (1, "kappa x"),
            (4, "policy-minus exhaustive"),
            (6, "kernel gamma"),
            (10, "sdsvm-model-v1 kind=linear C=x tol=0.001"),
            # an unknown kernel field was once dropped, so the model read
            # back as another kernel than its header named
            (10, "sdsvm-model-v1 kind=linear sigma=2.0 C=0.1 tol=0.001"),
            # well-formed lines that contradict the model block
            (2, "chosen-c 0.2"),
            (6, "kernel kind=rbf gamma=1.0"),
            (4, "policy-minus auto 2000 0"),  # a fit records the resolved policy
            (1, "kappa 7.0"),  # outside TrimPlan's [0.5, 1]
        ],
    )
    def test_malformed_report_raises_serialization_error(self, line, replacement):
        lines = fit_to_text(fit_sdsvm(gen_toy(5), LINEAR)).splitlines()
        lines[line] = replacement
        with pytest.raises(SerializationError):
            fit_from_text("\n".join(lines))

    @pytest.mark.parametrize(
        "edit, message",
        [
            # cv-table -1 over no rows once read back, and was written again as cv-table 0
            (lambda lines: lines[:7] + ["cv-table -1"] + lines[9:], "cv-table must be >= 0, got -1"),
            (lambda lines: lines[:3] + ["folds-used -7"] + lines[4:], "folds-used must be >= 0, got -7"),
        ],
        ids=["cv-table", "folds-used"],
    )
    def test_negative_count_raises_serialization_error(self, edit, message):
        lines = fit_to_text(fit_sdsvm(gen_toy(5), LINEAR)).splitlines()
        assert lines[3] == "folds-used 0" and lines[7] == "cv-table 1"
        with pytest.raises(SerializationError, match=f"^bad fit report: {message}$"):
            fit_from_text("\n".join(edit(lines)))

    @pytest.mark.parametrize(
        "column, value, rule",
        [
            (1, "0.5", "sample labels must be -1 or"),
            # the group's OutlyingnessReport, built before the FitResult, rejects a negative r
            (2, "-1.0", "outlyingness values must be nonnegative"),
            (2, "-inf", "outlyingness values must be nonnegative"),
            (2, "nan", "sample outlyingness must be nonnegative"),
            (4, "nan", "sample decision values must be finite"),
            (4, "inf", "sample decision values must be finite"),
            (4, "-inf", "sample decision values must be finite"),
        ],
        ids=[
            "1-0.5-labels must be -1 or",
            "2--1.0-outlyingness must be nonnegative",
            "2--inf-outlyingness must be nonnegative",
            "2-nan-outlyingness must be nonnegative",
            "4-nan-decision values must be finite",
            "4-inf-decision values must be finite",
            "4--inf-decision values must be finite",
        ],
    )
    def test_sample_the_map_cannot_draw_raises_serialization_error(self, column, value, rule):
        # FitResult's rule, reported as a bad report; the row is a trimmed
        # one, so that the model block still names the retained rows.
        fit = fit_sdsvm(gen_toy(5), LINEAR)
        lines = fit_to_text(fit).splitlines()
        row = lines.index("id label outlyingness trimmed f") + 1 + int(np.flatnonzero(fit.plan.trimmed)[0])
        cells = lines[row].split()
        assert cells[3] == "true"
        cells[column] = value
        lines[row] = " ".join(cells)
        with pytest.raises(SerializationError, match=f"bad fit report: {rule}"):
            fit_from_text("\n".join(lines))

    def test_truncated_report_raises_serialization_error(self):
        lines = fit_to_text(fit_sdsvm(gen_toy(5), LINEAR)).splitlines()
        with pytest.raises(SerializationError):
            fit_from_text("\n".join(lines[:-3]))

    def test_negative_sample_count_raises_even_without_rows(self):
        # samples 0 fails under an empty model block too: trimming a group of
        # 0 samples retains none.  A block of 33 rows over a 0-row table
        # names ids the table does not retain.
        lines = fit_to_text(fit_sdsvm(gen_toy(5), LINEAR)).splitlines()
        at = lines.index("model 35")
        assert lines[at + 36] == "samples 66"
        head = lines[:at] + ["model 2", lines[at + 1], lines[at + 35]]
        assert head[-1].startswith("bias ")
        table = ["id label outlyingness trimmed f"]
        with pytest.raises(SerializationError, match="h-=0, h\\+=0"):
            fit_from_text("\n".join(head + ["samples 0"] + table))
        with pytest.raises(SerializationError, match="^bad fit report: samples must be >= 0, got -1$"):
            fit_from_text("\n".join(head + ["samples -1"] + table))
        with pytest.raises(SerializationError, match="model block"):
            fit_from_text("\n".join(lines[: at + 36] + ["samples 0"] + table))

    @pytest.mark.parametrize(
        "edit, rule",
        [
            ("id", "model block's ids disagree"),
            # FitResult's rule: a row keeps its id, so the reader's id check passes
            ("label", "model's 33 labels are not those of the plan's 33 retained samples"),
            ("drop", "model block's ids disagree"),
            ("swap", "model block's ids disagree"),
        ],
        ids=["id", "label", "drop", "swap"],
    )
    def test_model_block_must_name_the_retained_rows(self, edit, rule):
        lines = fit_to_text(fit_sdsvm(gen_toy(5), LINEAR)).splitlines()
        at = lines.index("model 35")
        first = at + 2  # the block's first sample row, after its header
        sid, label, alpha = lines[first].split()
        if edit == "id":
            lines[first] = f"999 {label} {alpha}"
        elif edit == "label":
            lines[first] = f"{sid} {-int(label)} {alpha}"
        elif edit == "drop":
            lines[at : first + 1] = ["model 34", lines[at + 1]]
        else:
            lines[first], lines[first + 1] = lines[first + 1], lines[first]
        with pytest.raises(SerializationError, match=rule):
            fit_from_text("\n".join(lines))

    @pytest.mark.parametrize("count", ["model 1", "model 0", "model -1"])
    def test_model_block_needs_header_and_bias(self, count):
        lines = fit_to_text(fit_sdsvm(gen_toy(5), LINEAR)).splitlines()
        lines[lines.index("model 35")] = count
        with pytest.raises(SerializationError):
            fit_from_text("\n".join(lines))

    @pytest.mark.parametrize(
        "key, value, rule",
        [
            ("alpha", "nan", r"alpha must lie in \[0, C\]"),
            ("alpha", "-5.0", r"alpha must lie in \[0, C\]"),
            ("alpha", "1e9", r"alpha must lie in \[0, C\]"),
            ("alpha", "0.05", r"sum alpha_i y_i must be 0"),
            ("C", "-1.0", "C must be positive and finite"),
            ("C", "0.0", "C must be positive and finite"),
            ("C", "inf", "C must be positive and finite"),
            ("bias", "nan", "bias must be finite"),
            ("bias", "inf", "bias must be finite"),
            ("tol", "-3.0", "tol must be positive and finite"),
        ],
    )
    def test_model_must_be_one_a_solve_could_return(self, key, value, rule):
        # Each of these edits once read back without error.
        lines = fit_to_text(fit_sdsvm(gen_toy(5), LINEAR)).splitlines()
        at = lines.index("model 35")
        header, row = at + 1, at + 4  # the block's header and its row "4 -1 0.1"
        if key == "alpha":
            assert lines[row] == "4 -1 0.1"
            lines[row] = f"4 -1 {value}"
        elif key == "C":  # on both lines that carry it, which must agree
            lines[2] = f"chosen-c {value}"
            lines[header] = lines[header].replace("C=0.1", f"C={value}")
        elif key == "tol":
            lines[header] = lines[header].replace("tol=0.001", f"tol={value}")
        else:
            lines[at + 35] = f"bias {value}"
        with pytest.raises(SerializationError, match=rule):
            fit_from_text("\n".join(lines))


class TestFitResult:
    @pytest.mark.parametrize(
        "edit",
        [
            lambda fit: {"ids": fit.ids[:-5]},
            lambda fit: {
                "plan": TrimPlan(
                    0.5, (fit.reports[0], replace(fit.reports[1], r=fit.reports[1].r[:-1])), fit.labels[:-1]
                )
            },
            lambda fit: {"decision_values": fit.decision_values[1:]},
            # A plan's columns are derived from its reports, so a plan cannot
            # be given one of another length.
            lambda fit: {"plan": replace(fit.plan, outlyingness=fit.plan.outlyingness[:-1])},
            lambda fit: {"plan": replace(fit.plan, trimmed=fit.plan.trimmed[:-1])},
            lambda fit: {"plan": replace(fit.plan, kappa=0.75)},
        ],
        ids=["ids", "labels", "decision_values", "outlyingness", "trimmed", "retained"],
    )
    def test_columns_and_model_must_agree(self, edit):
        # A fit with 5 ids cut off was once written as a 61-sample report
        # of a 66-sample fit, and read back without error.
        fit = fit_sdsvm(gen_toy(5), LINEAR)
        with pytest.raises(ValueError):
            replace(fit, **edit(fit))

    @pytest.mark.parametrize(
        "column, value, rule",
        [
            ("labels", 0.0, "labels must be -1 or"),
            ("labels", 2.0, "labels must be -1 or"),
            ("outlyingness", -1.0, "outlyingness values must be nonnegative"),  # the report's rule
            ("outlyingness", math.nan, "sample outlyingness must be nonnegative"),
            ("decision_values", math.nan, "decision values must be finite"),
            ("decision_values", math.inf, "decision values must be finite"),
            ("decision_values", -math.inf, "decision values must be finite"),
        ],
    )
    def test_every_sample_is_one_the_map_can_draw(self, column, value, rule):
        # Sample 0 is the first of the minus group, so the first of its report.
        fit = fit_sdsvm(gen_toy(5), LINEAR)
        values = {"labels": fit.labels, "outlyingness": fit.reports[0].r}.get(column, fit.decision_values).copy()
        values[0] = value
        with pytest.raises(ValueError, match=rule):
            if column == "labels":
                replace(fit, plan=replace(fit.plan, labels=values))
            elif column == "outlyingness":
                replace(fit, plan=replace(fit.plan, reports=(replace(fit.reports[0], r=values), fit.reports[1])))
            else:
                replace(fit, decision_values=values)

    @pytest.mark.parametrize(
        "edit, error, rule",
        [
            (lambda fit: {"model": replace(fit.model, spec=None)}, ValueError, "model has no kernel spec attached"),
            (
                lambda fit: {"model": replace(fit.model, labels=-fit.model.labels)},
                ValueError,
                "model's 33 labels are not those of the plan's 33 retained samples",
            ),
            # The report edits go through the plan, whose reports cover its
            # groups in (minus, plus) order.
            (
                lambda fit: {"reports": (replace(fit.reports[0], policy=DirectionPolicy()), fit.reports[1])},
                ValueError,
                "a report's policy must be resolved, got mode 'auto'",
            ),
            (
                lambda fit: {"reports": (replace(fit.reports[0], r=fit.reports[0].r[:-1]), fit.reports[1])},
                DimensionError,
                r"reports cover \[29, 36\] samples but groups have \[30, 36\]",
            ),
            (lambda fit: {"reports": fit.reports[::-1]}, DimensionError, r"reports cover \[36, 30\] samples"),
            (lambda fit: {"reports": ()}, DimensionError, r"reports cover \[\] samples"),
        ],
        ids=["no-spec", "model-labels", "auto-policy", "other-r", "swapped-reports", "no-reports"],
    )
    def test_record_its_report_cannot_hold_raises(self, edit, error, rule):
        # Each of these was once built, and then refused by fit_to_text or
        # fit_from_text (no-reports was the read-back shape).
        fit = fit_sdsvm(gen_toy(5), LINEAR)
        with pytest.raises(error, match=rule):
            fields = edit(fit)
            if "reports" in fields:
                fields = {"plan": replace(fit.plan, **fields)}
            replace(fit, **fields)
