import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as npst

from sdsvm import (
    KernelMatrix,
    KernelSpec,
    SvmModel,
    decision_values,
    dual_objective,
    gen_toy,
    kernel_matrix,
    solve_dual,
)
from sdsvm.errors import ConvergenceError, DimensionError, InvalidModel, PipelineError, SingleClassError, run_stage
from sdsvm.pipeline import DEFAULT_C_GRID
from sdsvm.svm import sign_labels
from sdsvm.rng import Stream, derive_key

from conftest import make_vectors
from oracles import dual_qp_oracle, solve_dual_reference

LINEAR = KernelSpec(kind="linear")


def two_point_model(c=10.0, tol=1e-3):
    om = kernel_matrix(LINEAR, make_vectors([[-1.0], [1.0]]))
    return solve_dual(om, [-1.0, 1.0], c, tol, spec=LINEAR)


def random_instance(seed, n_max=6, d_max=3):
    stream = Stream(derive_key(seed, "svm-instance"))
    n = 2 + int(stream.uniforms(1)[0] * (n_max - 1))
    d = 1 + int(stream.uniforms(1)[0] * d_max)
    x = stream.normals(n * d).reshape(n, d)
    y = np.where(stream.uniforms(n) < 0.5, -1.0, 1.0)
    if np.all(y == y[0]):
        y[0] = -y[0]
    c = 10.0 ** (stream.uniforms(1)[0] * 3.0 - 1.5)
    return x, y, c


class TestSolveDual:
    def test_two_point_analytic_solution(self):
        model = two_point_model()
        np.testing.assert_allclose(model.alpha, [0.5, 0.5], atol=1e-12)
        assert model.bias == pytest.approx(0.0, abs=1e-12)
        # classifier is f(x) = x on a grid
        for x in (-2.0, -0.3, 0.0, 0.7, 1.5):
            column = np.array([[-x], [x]])  # K(x_i, x) for x_1=-1, x_2=+1
            assert decision_values(model, column)[0] == pytest.approx(x, abs=1e-12)

    def test_tiny_c_collapses_box(self):
        x, y, _ = random_instance(3)
        om = kernel_matrix(LINEAR, make_vectors(x))
        c = 1e-9
        model = solve_dual(om, y, c)
        assert np.all(model.alpha >= 0.0) and np.all(model.alpha <= c)
        assert dual_objective(om, y, model.alpha) <= len(y) * c

    def test_objective_matches_enumeration_oracle(self):
        x = np.array([[1.2, 0.1], [0.4, -1.0], [-0.9, 0.6], [-1.4, -0.4]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        om = kernel_matrix(LINEAR, make_vectors(x))
        model = solve_dual(om, y, 5.0, tol=1e-6)
        ours = dual_objective(om, y, model.alpha)
        expected, _ = dual_qp_oracle(om.entries, y, 5.0)
        assert ours == pytest.approx(expected, abs=1e-6)

    def test_equality_constraint_holds(self):
        for seed in range(5):
            x, y, c = random_instance(seed, n_max=10)
            om = kernel_matrix(LINEAR, make_vectors(x))
            model = solve_dual(om, y, c)
            assert abs(float(model.alpha @ y)) <= 1e-10 * c
            assert np.all(model.alpha >= 0.0) and np.all(model.alpha <= c)

    def test_free_vectors_sit_on_margin(self):
        x, y, _ = random_instance(11, n_max=10)
        om = kernel_matrix(LINEAR, make_vectors(x))
        tol = 1e-6
        model = solve_dual(om, y, 1.0, tol)
        f_vals = decision_values(model, om.entries)
        free = (model.alpha > 1e-8) & (model.alpha < 1.0 - 1e-8)
        for i in np.flatnonzero(free):
            assert y[i] * f_vals[i] == pytest.approx(1.0, abs=10 * tol)

    def test_single_class_rejected(self):
        om = kernel_matrix(LINEAR, make_vectors([[0.0], [1.0]]))
        with pytest.raises(SingleClassError):
            solve_dual(om, [1.0, 1.0], 1.0)

    def test_kernel_and_labels_of_other_sizes_rejected(self):
        om = kernel_matrix(LINEAR, make_vectors([[0.0], [1.0], [2.0]]))
        with pytest.raises(DimensionError, match="3x3 but 2 labels"):
            solve_dual(om, [-1.0, 1.0], 1.0)

    def test_nonpositive_c_rejected(self):
        om = kernel_matrix(LINEAR, make_vectors([[0.0], [1.0]]))
        with pytest.raises(ValueError):
            solve_dual(om, [-1.0, 1.0], 0.0)

    @pytest.mark.parametrize("c, tol", [(math.inf, 1e-3), (math.nan, 1e-3), (1.0, 0.0), (1.0, -1e-3), (1.0, math.inf)])
    def test_c_and_tol_rejected_before_any_update(self, c, tol):
        # tol <= 0 once ran on to the update cap: the gap test never passed.
        om = kernel_matrix(LINEAR, make_vectors([[0.0], [1.0]]))
        with pytest.raises(InvalidModel, match="must be positive and finite"):
            solve_dual(om, [-1.0, 1.0], c, tol, max_iter=10**12)

    @pytest.mark.parametrize(
        "fields",
        [
            {"c": 0.0},
            {"c": math.inf},
            {"tol": -3.0},
            {"bias": math.nan},
            {"bias": -math.inf},
            {"alpha": [math.nan, math.nan]},
            {"alpha": [-5.0, -5.0]},
            {"alpha": [1e9, 1e9]},
            {"alpha": [0.5, 0.25]},  # in the box, but sum alpha_i y_i = -0.25
            {"labels": [2.0, -2.0]},  # balanced, but not -1/+1 labels
            {"labels": [0.0, 0.0]},
        ],
    )
    def test_model_holds_only_what_a_solve_could_return(self, fields):
        values = {"alpha": [0.5, 0.5], "labels": [1.0, -1.0], "bias": 0.0, "c": 1.0, "tol": 1e-3}
        SvmModel(**values)
        with pytest.raises(InvalidModel) as info:
            SvmModel(**{**values, **fields})
        # A ValueError like any bad value, and an SdsvmError that a stage names.
        assert isinstance(info.value, ValueError)
        with pytest.raises(PipelineError, match="stage 'train'"):
            run_stage("train", SvmModel, **{**values, **fields})

    def test_nested_stages_name_the_innermost(self):
        def inner():
            return run_stage("train", SvmModel, alpha=[0.5], labels=[1.0, -1.0], bias=0.0, c=1.0, tol=1e-3)

        with pytest.raises(PipelineError) as info:
            run_stage("select-c", inner)
        assert info.value.stage == "train" and isinstance(info.value.cause, DimensionError)

    def test_labels_must_match_alpha(self):
        with pytest.raises(DimensionError):
            SvmModel(alpha=[0.5, 0.5], labels=[-1.0], bias=0.0, c=1.0, tol=1e-3)
        with pytest.raises(DimensionError):
            SvmModel(alpha=[[0.5, 0.5]], labels=[[-1.0, 1.0]], bias=0.0, c=1.0, tol=1e-3)

    @pytest.mark.parametrize("p", [20, 0, -16, -20, -24, -30])
    def test_unit_of_the_data_changes_no_update(self, p):
        # The linear toy kernel scaled by 2^(2p) at C = 0.1 * 2^(-2p) is the
        # same dual problem; with an absolute curvature floor the solve took
        # 48 updates at p = -20, 466 at p = -24 and 1,805,058 at p = -30.
        toy = gen_toy(1)
        scale = 2.0 ** (2 * p)
        om = KernelMatrix(kernel_matrix(LINEAR, toy.x).entries * scale)
        model = solve_dual(om, toy.labels, 0.1 / scale)
        assert model.updates == 34
        assert model.bias == solve_dual(kernel_matrix(LINEAR, toy.x), toy.labels, 0.1).bias

    def test_iteration_cap_raises_convergence_error(self):
        x, y, _ = random_instance(2, n_max=10)
        om = kernel_matrix(LINEAR, make_vectors(x))
        with pytest.raises(ConvergenceError) as excinfo:
            solve_dual(om, y, 10.0, tol=1e-12, max_iter=1)
        assert excinfo.value.max_violation is not None
        assert excinfo.value.max_violation > 0

    def test_nan_violation_raises_convergence_error(self):
        entries = np.eye(3)
        entries[1, 1] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError) as excinfo:
                solve_dual(KernelMatrix(entries), [-1.0, 1.0, 1.0], 1.0)
        assert math.isnan(excinfo.value.max_violation)

    def test_nan_start_gradient_raises_convergence_error(self):
        # inf * 0 in K @ beta makes the warm start's gradient nan.
        entries = np.eye(3)
        entries[2, 2] = np.inf
        start = np.array([0.5, 0.5, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError) as excinfo:
                solve_dual(KernelMatrix(entries), [-1.0, 1.0, 1.0], 1.0, start=start)
        assert math.isnan(excinfo.value.max_violation)


class TestWarmStart:
    X = np.array([[1.2, 0.1], [0.4, -1.0], [-0.9, 0.6], [-1.4, -0.4]])
    Y = np.array([1.0, 1.0, -1.0, -1.0])

    @pytest.mark.parametrize(
        "start, match",
        [
            (np.zeros(3), "shape"),
            (np.array([6.0, 0.0, 6.0, 0.0]), r"\[0, C\]"),
            (np.array([-1.0, 0.0, -1.0, 0.0]), r"\[0, C\]"),
            (np.array([np.nan, 0.0, 0.0, 0.0]), r"\[0, C\]"),
            (np.array([1.0, 0.0, 0.0, 0.0]), "sum"),
        ],
    )
    def test_infeasible_start_rejected(self, start, match):
        om = kernel_matrix(LINEAR, self.X)
        with pytest.raises(ValueError, match=match):
            solve_dual(om, self.Y, 5.0, start=start)

    def test_cold_solve_reports_updates_and_gap(self):
        om = kernel_matrix(LINEAR, self.X)
        model = solve_dual(om, self.Y, 5.0, tol=1e-6)
        assert model.updates > 0
        assert model.gap <= 1e-6

    def test_optimal_start_makes_no_updates(self):
        om = kernel_matrix(LINEAR, self.X)
        cold = solve_dual(om, self.Y, 5.0, tol=1e-9)
        warm = solve_dual(om, self.Y, 5.0, start=cold.alpha)
        assert warm.updates == 0
        assert np.array_equal(warm.alpha, cold.alpha)

    def test_settled_model_solves_to_itself_at_any_larger_c(self):
        om = kernel_matrix(LINEAR, self.X)
        cold = solve_dual(om, self.Y, 5.0, tol=1e-9)
        warm = solve_dual(om, self.Y, 5.0, start=cold.alpha)
        assert not cold.settled and warm.settled  # cold made updates
        for c in (5.0, 50.0, 2.0**15):
            again = solve_dual(om, self.Y, c, start=warm.alpha)
            assert again.settled and again.c == c
            assert np.array_equal(again.alpha, warm.alpha) and again.bias == warm.bias

    def test_alpha_at_its_bound_is_not_settled(self):
        om = kernel_matrix(LINEAR, self.X)
        tight = solve_dual(om, self.Y, 1e-3)
        assert tight.alpha.max() == 1e-3
        assert not solve_dual(om, self.Y, 1e-3, start=tight.alpha).settled

    @pytest.mark.parametrize("seed", range(6))
    def test_warm_solve_at_larger_c_reaches_oracle(self, seed):
        x, y, c = random_instance(seed)
        om = kernel_matrix(LINEAR, make_vectors(x))
        smaller = solve_dual(om, y, c / 10.0)
        tol = 1e-6
        warm = solve_dual(om, y, c, tol, start=smaller.alpha)
        assert warm.gap <= tol
        expected, _ = dual_qp_oracle(om.entries, y, c)
        assert dual_objective(om, y, warm.alpha) == pytest.approx(expected, abs=1e-6)


class TestDecisionAndPredict:
    def test_zero_row_zero_bias(self):
        model = two_point_model()
        assert decision_values(model, [[0.0], [0.0]])[0] == 0.0

    def test_row_length_checked(self):
        model = two_point_model()
        with pytest.raises(DimensionError):
            decision_values(model, [[1.0], [2.0], [3.0]])
        with pytest.raises(DimensionError):
            decision_values(model, np.zeros((3, 4)))

    def test_predict_signs(self):
        model = two_point_model()
        f = decision_values(model, [[0.7, -0.7], [-0.7, 0.7]])  # f = -0.7, +0.7
        assert sign_labels(f).tolist() == [-1.0, 1.0]

    def test_predict_tie_break_is_plus_one(self):
        model = two_point_model()
        f = decision_values(model, [[0.0], [0.0]])
        assert f[0] == 0.0
        assert sign_labels(f)[0] == 1.0

    def test_decision_values_matches_scalar(self):
        x, y, c = random_instance(7, n_max=8)
        om = kernel_matrix(LINEAR, make_vectors(x))
        model = solve_dual(om, y, c)
        block = om.entries
        vector = decision_values(model, block)
        for j in range(block.shape[1]):
            assert vector[j] == pytest.approx(decision_values(model, block[:, [j]])[0], rel=1e-12)


def solve_outcome(solve, *args, **kwargs):
    """A solve's model fields as bytes and reprs, or its exception."""
    try:
        model = solve(*args, **kwargs)
    except (ConvergenceError, ValueError) as exc:
        return type(exc), str(exc), repr(getattr(exc, "max_violation", None))
    return model.alpha.tobytes(), repr(model.bias), model.updates, repr(model.gap)


@st.composite
def dual_instance(draw, nonfinite=True):
    """(kernel matrix, labels): float, tie-heavy integer, duplicated or non-finite."""
    n = draw(st.integers(2, 10))
    d = draw(st.integers(1, 3))
    kinds = ["float", "integer", "duplicates"] + (["nonfinite"] if nonfinite else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "integer":
        values = st.integers(-2, 2).map(float)
    else:
        values = st.floats(-5.0, 5.0, allow_nan=False, width=64)
    rows = draw(npst.arrays(np.float64, (n, d), elements=values))
    if kind == "duplicates":
        rows = rows[draw(st.lists(st.integers(0, n // 2), min_size=n, max_size=n))]
    entries = rows @ rows.T
    entries = np.triu(entries) + np.triu(entries, 1).T
    if kind == "nonfinite":
        # One entry and its mirror, or a whole row and column.
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        value = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        if draw(st.booleans()):
            entries[a, :] = entries[:, a] = value
        else:
            entries[a, b] = entries[b, a] = value
    labels = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    labels[:2] = (-1.0, 1.0)
    return KernelMatrix._wrap(entries), labels


class TestMatchesReferenceLoop:
    """solve_dual gives the whole-vector loop's model bit for bit."""

    @given(
        dual_instance(),
        st.sampled_from(DEFAULT_C_GRID[:6] + (0.37, 1e-9, math.inf)),
        st.sampled_from([1e-1, 1e-3, 1e-6, 0.0, -1e-3]),
        st.sampled_from([0, 1, 2, 7, 2000]),
    )
    def test_cold_start(self, instance, c, tol, max_iter):
        om, y = instance
        args = (om, y, c, tol, max_iter)
        assert solve_outcome(solve_dual, *args) == solve_outcome(solve_dual_reference, *args)

    @pytest.mark.parametrize(
        "x, y, field",
        [
            ([1.0, 0.0, 1.0], [-1.0, 1.0, -1.0], "bias"),
            ([1.0, 0.0, 2.0, 1.0], [-1.0, 1.0, -1.0, -1.0], "bias"),
            ([0.0, -1.0, -2.0, 1.0, 1.0], [-1.0, 1.0, 1.0, 1.0, -1.0], "gap"),
        ],
    )
    def test_signed_zero_bias_and_gap(self, x, y, field):
        # Integer data where the reference ends at -0.0, a zero whose sign a
        # running y * g can lose.
        om = kernel_matrix(LINEAR, make_vectors(np.array(x)[:, None]))
        expected = solve_dual_reference(om, y, 1.0)
        assert repr(getattr(expected, field)) == "-0.0"
        assert solve_outcome(solve_dual, om, y, 1.0) == solve_outcome(solve_dual_reference, om, y, 1.0)

    @given(dual_instance(nonfinite=False), st.sampled_from([1e-3, 1e-6]))
    def test_ascending_c_path(self, instance, tol):
        om, y = instance
        start = None
        for c in DEFAULT_C_GRID:
            args = (om, y, c, tol, 3000)
            got = solve_outcome(solve_dual, *args, start=start)
            assert got == solve_outcome(solve_dual_reference, *args, start=start)
            if not isinstance(got[0], bytes):
                break
            start = np.frombuffer(got[0])
