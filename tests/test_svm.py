import math

import numpy as np
import pytest

from sdsvm import (
    KernelMatrix,
    KernelSpec,
    decision_value,
    decision_values,
    dual_objective,
    kernel_matrix,
    model_from_text,
    model_to_text,
    predict,
    solve_dual,
)
from sdsvm.errors import ConvergenceError, DimensionError, SingleClassError
from sdsvm.rng import Stream, derive_key

from conftest import make_vectors
from oracles import dual_qp_oracle

LINEAR = KernelSpec(kind="linear")


def two_point_model(c=10.0, tol=1e-3):
    om = kernel_matrix(LINEAR, make_vectors([[-1.0], [1.0]]))
    return solve_dual(om, [-1.0, 1.0], c, tol, spec=LINEAR, ids=(1, 2))


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
            row = np.array([-x, x])  # K(x_i, x) for x_1=-1, x_2=+1
            assert decision_value(model, row) == pytest.approx(x, abs=1e-12)

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

    def test_nonpositive_c_rejected(self):
        om = kernel_matrix(LINEAR, make_vectors([[0.0], [1.0]]))
        with pytest.raises(ValueError):
            solve_dual(om, [-1.0, 1.0], 0.0)

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
        with pytest.raises(ConvergenceError) as excinfo:
            solve_dual(KernelMatrix(entries), [-1.0, 1.0, 1.0], 1.0)
        assert math.isnan(excinfo.value.max_violation)


class TestDecisionAndPredict:
    def test_zero_row_zero_bias(self):
        model = two_point_model()
        assert decision_value(model, [0.0, 0.0]) == 0.0

    def test_row_length_checked(self):
        model = two_point_model()
        with pytest.raises(DimensionError):
            decision_value(model, [1.0, 2.0, 3.0])
        with pytest.raises(DimensionError):
            decision_values(model, np.zeros((3, 4)))

    def test_predict_signs(self):
        model = two_point_model()
        assert predict(model, [0.7, -0.7]) == -1  # f = -0.7
        assert predict(model, [-0.7, 0.7]) == 1  # f = +0.7

    def test_predict_tie_break_is_plus_one(self):
        model = two_point_model()
        assert decision_value(model, [0.0, 0.0]) == 0.0
        assert predict(model, [0.0, 0.0]) == 1

    def test_decision_values_matches_scalar(self):
        x, y, c = random_instance(7, n_max=8)
        om = kernel_matrix(LINEAR, make_vectors(x))
        model = solve_dual(om, y, c)
        block = om.entries
        vector = decision_values(model, block)
        for j in range(block.shape[1]):
            assert vector[j] == pytest.approx(decision_value(model, block[:, j]), rel=1e-12)


class TestSerialization:
    def test_round_trip_exact(self):
        model = two_point_model(c=0.375, tol=1e-5)
        text = model_to_text(model)
        back = model_from_text(text)
        assert back.c == model.c
        assert back.tol == model.tol
        assert back.bias == model.bias
        assert np.array_equal(back.alpha, model.alpha)
        assert np.array_equal(back.labels, model.labels)
        assert back.ids == tuple(str(i) for i in model.ids)
        assert back.spec.kind == "linear"
        # serialize again: byte-identical
        assert model_to_text(back) == text

    def test_rbf_spec_round_trip(self):
        spec = KernelSpec(kind="rbf", gamma=0.37)
        om = kernel_matrix(spec, make_vectors([[-1.0], [1.0], [2.0]]))
        model = solve_dual(om, [-1.0, 1.0, 1.0], 2.0, spec=spec, ids=(1, 2, 3))
        back = model_from_text(model_to_text(model))
        assert back.spec.kind == "rbf"
        assert back.spec.gamma == 0.37
