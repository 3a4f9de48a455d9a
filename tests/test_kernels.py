import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as npst

import sdsvm.kernels
from sdsvm import KernelMatrix, KernelSpec, eval_kernel, kernel_cross, kernel_matrix
from sdsvm.errors import DimensionError, EmptyInput, KernelTypeError

from conftest import make_vectors
from oracles import kernel_block_recipe, spectrum_dot_brute


class TestKernelSpec:
    def test_defaults_are_linear(self):
        assert KernelSpec().kind == "linear"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel kind"):
            KernelSpec(kind="sigmoid")

    @pytest.mark.parametrize("gamma", [0.0, -1.0])
    def test_rbf_needs_positive_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            KernelSpec(kind="rbf", gamma=gamma)

    def test_polynomial_needs_degree_at_least_one(self):
        with pytest.raises(ValueError, match="degree"):
            KernelSpec(kind="polynomial", degree=0)

    def test_spectrum_needs_kmer_at_least_one(self):
        with pytest.raises(ValueError, match="kmer"):
            KernelSpec(kind="spectrum", kmer=0)

    def test_precomputed_needs_square_symmetric(self):
        with pytest.raises(ValueError, match="square"):
            KernelSpec(kind="precomputed", matrix=np.zeros((2, 3)))
        with pytest.raises(ValueError, match="symmetric"):
            KernelSpec(kind="precomputed", matrix=np.array([[1.0, 2.0], [3.0, 4.0]]))
        with pytest.raises(ValueError, match="matrix"):
            KernelSpec(kind="precomputed")


class TestEvalKernel:
    def test_linear_dot_by_hand(self):
        value = eval_kernel(KernelSpec(), [1.0, 2.0], [3.0, 4.0])
        assert value == 11.0

    @pytest.mark.parametrize("gamma", [0.1, 1.0, 7.5])
    def test_rbf_same_point_is_one(self, gamma):
        s = [0.3, -2.0, 5.0]
        assert eval_kernel(KernelSpec(kind="rbf", gamma=gamma), s, s) == 1.0

    def test_rbf_formula(self):
        spec = KernelSpec(kind="rbf", gamma=0.5)
        value = eval_kernel(spec, [0.0], [2.0])
        assert value == pytest.approx(np.exp(-0.5 * 4.0), rel=1e-15)

    def test_polynomial_formula(self):
        spec = KernelSpec(kind="polynomial", gamma=2.0, degree=3, coef0=1.0)
        value = eval_kernel(spec, [1.0, 1.0], [2.0, 0.0])
        assert value == (2.0 * 2.0 + 1.0) ** 3

    def test_spectrum_shared_twomer(self):
        spec = KernelSpec(kind="spectrum", kmer=2)
        assert eval_kernel(spec, "AAB", "ABA") == 1.0

    def test_spectrum_short_string_gives_zero(self):
        spec = KernelSpec(kind="spectrum", kmer=4)
        assert eval_kernel(spec, "AB", "ABAB") == 0.0

    def test_payload_kind_mismatch(self):
        with pytest.raises(KernelTypeError):
            eval_kernel(KernelSpec(), "ACGT", "ACGT")
        with pytest.raises(KernelTypeError):
            eval_kernel(KernelSpec(kind="spectrum", kmer=2), [1.0], [2.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            eval_kernel(KernelSpec(), [1.0, 2.0], [1.0])

    def test_precomputed_by_index_and_id(self):
        m = np.array([[1.0, 0.5], [0.5, 2.0]])
        by_index = KernelSpec(kind="precomputed", matrix=m)
        assert eval_kernel(by_index, 0, 1) == 0.5
        by_id = KernelSpec(kind="precomputed", matrix=m, ids=("a", "b"))
        assert eval_kernel(by_id, "b", "b") == 2.0
        with pytest.raises(KernelTypeError):
            eval_kernel(by_id, "zzz", "a")


class TestKernelMatrix:
    def test_linear_one_dimensional(self):
        om = kernel_matrix(KernelSpec(), make_vectors([[0.0], [1.0]]))
        assert np.array_equal(om.entries, [[0.0, 0.0], [0.0, 1.0]])

    def test_linear_three_vectors_by_hand(self):
        om = kernel_matrix(KernelSpec(), make_vectors([[1, 0], [0, 1], [1, 1]]))
        assert np.array_equal(om.entries, [[1, 0, 1], [0, 1, 1], [1, 1, 2]])

    def test_rbf_diagonal_exactly_one(self):
        rows = np.arange(12.0).reshape(4, 3)
        om = kernel_matrix(KernelSpec(kind="rbf", gamma=0.3), make_vectors(rows))
        assert np.array_equal(np.diag(om.entries), np.ones(4))

    def test_exact_symmetry(self):
        rows = np.linspace(-3, 3, 15).reshape(5, 3) ** 2
        for spec in (
            KernelSpec(),
            KernelSpec(kind="rbf", gamma=0.7),
            KernelSpec(kind="polynomial", gamma=0.5, degree=4, coef0=1.0),
        ):
            om = kernel_matrix(spec, make_vectors(rows))
            assert np.array_equal(om.entries, om.entries.T)

    def test_positive_semidefinite_within_tolerance(self):
        rows = np.cos(np.arange(24.0)).reshape(6, 4)
        for spec in (KernelSpec(), KernelSpec(kind="rbf", gamma=1.3)):
            om = kernel_matrix(spec, make_vectors(rows))
            smallest = float(np.linalg.eigvalsh(om.entries)[0])
            assert smallest >= -1e-8 * np.trace(om.entries) / om.k

    def test_empty_samples_rejected(self):
        with pytest.raises(EmptyInput):
            kernel_matrix(KernelSpec(), [])

    def test_mixed_dimension_names_problem(self):
        samples = [[1.0, 2.0], [1.0]]
        with pytest.raises(DimensionError):
            kernel_matrix(KernelSpec(), samples)

    def test_mixed_payload_kind_reports_index(self):
        samples = [[1.0], "ACGT"]
        with pytest.raises(KernelTypeError, match="sample 1"):
            kernel_matrix(KernelSpec(), samples)

    def test_spectrum_matches_brute_force(self):
        strings = ["ACGTACGT", "TTACG", "ACACAC", "GGG"]
        spec = KernelSpec(kind="spectrum", kmer=2)
        om = kernel_matrix(spec, strings)
        for i, s1 in enumerate(strings):
            for j, s2 in enumerate(strings):
                assert om.entries[i, j] == spectrum_dot_brute(s1, s2, 2)

    def test_precomputed_submatrix(self):
        m = np.arange(16.0).reshape(4, 4)
        m = (m + m.T) / 2.0
        spec = KernelSpec(kind="precomputed", matrix=m)
        om = kernel_matrix(spec, [2, 0])
        assert np.array_equal(om.entries, m[np.ix_([2, 0], [2, 0])])

    def test_take_submatrix(self):
        om = kernel_matrix(KernelSpec(), make_vectors(np.eye(4)))
        sub = om.take([3, 1])
        assert np.array_equal(sub.entries, np.eye(2))

    def test_matrix_must_be_square_and_symmetric(self):
        with pytest.raises(DimensionError):
            KernelMatrix(np.zeros((2, 3)))
        with pytest.raises(DimensionError):
            KernelMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))


class TestKernelCross:
    def test_matches_eval_kernel(self):
        a = make_vectors([[1.0, 2.0], [0.0, -1.0]])
        b = make_vectors([[3.0, 4.0], [1.0, 1.0], [0.0, 0.0]])
        for spec in (
            KernelSpec(),
            KernelSpec(kind="rbf", gamma=0.4),
            KernelSpec(kind="polynomial", gamma=1.0, degree=2, coef0=0.5),
        ):
            block = kernel_cross(spec, a, b)
            assert block.shape == (2, 3)
            for i in range(2):
                for j in range(3):
                    assert block[i, j] == pytest.approx(eval_kernel(spec, a[i], b[j]), rel=1e-12)

    def test_spectrum_cross(self):
        spec = KernelSpec(kind="spectrum", kmer=3)
        a = ["ACGTACG", "AAAA"]
        b = ["CGTA"]
        block = kernel_cross(spec, a, b)
        assert block[0, 0] == spectrum_dot_brute("ACGTACG", "CGTA", 3)
        assert block[1, 0] == 0.0


class TestExactRecipe:
    """Both kernel blocks reproduce their documented arithmetic bit for bit.

    Downstream exact comparisons (outlyingness, trim flags) rely on the square
    block using the symmetric recipe, not the rectangular one.
    """

    PARAMS = {
        "linear": {},
        "rbf": {"gamma": 0.07},
        "polynomial": {"gamma": 0.3, "degree": 3, "coef0": 1.5},
        "spectrum": {"kmer": 2},
    }

    @staticmethod
    def _inputs(kind):
        rng = np.random.default_rng(3)
        if kind == "spectrum":
            words = ["".join(rng.choice(list("ACGT"), size=n)) for n in rng.integers(1, 30, size=40)]
            return words, words
        x = rng.normal(size=(40, 13)) * 3.0
        return make_vectors(x), x

    @pytest.mark.parametrize("kind", ["linear", "rbf", "polynomial", "spectrum"])
    def test_matches_recipe(self, kind):
        spec = KernelSpec(kind=kind, **self.PARAMS[kind])
        samples, raw = self._inputs(kind)
        square = kernel_matrix(spec, samples).entries
        assert np.array_equal(square, kernel_block_recipe(kind, raw, **self.PARAMS[kind]))
        cross = kernel_cross(spec, samples[:25], samples[25:])
        expected = kernel_block_recipe(kind, raw[:25], raw[25:], **self.PARAMS[kind])
        assert np.array_equal(cross, expected)

    def test_sparse_kmer_counts_match_dense(self, monkeypatch):
        spec = KernelSpec(kind="spectrum", **self.PARAMS["spectrum"])
        words, _ = self._inputs("spectrum")
        square = kernel_matrix(spec, words).entries
        cross = kernel_cross(spec, words[:25], words[25:])
        monkeypatch.setattr(sdsvm.kernels, "_DENSE_KMER_LIMIT", 0)
        assert np.array_equal(kernel_matrix(spec, words).entries, square)
        assert np.array_equal(kernel_cross(spec, words[:25], words[25:]), cross)

    def test_precomputed_matches_recipe(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(9, 9))
        m = m + m.T
        spec = KernelSpec(kind="precomputed", matrix=m)
        idx = [7, 2, 2, 5, 0]
        square = kernel_matrix(spec, idx).entries
        assert np.array_equal(square, kernel_block_recipe("precomputed", idx, matrix=m))
        cross = kernel_cross(spec, idx[:2], idx[2:])
        assert np.array_equal(cross, kernel_block_recipe("precomputed", idx[:2], idx[2:], matrix=m))

    @given(
        npst.arrays(
            np.float64,
            st.integers(1, 30),
            elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
        ),
        st.sampled_from([1e-3, 0.1, 1.0, 7.5]),
    )
    def test_rbf_self_value_exactly_one(self, v, gamma):
        spec = KernelSpec(kind="rbf", gamma=gamma)
        assert eval_kernel(spec, v, v) == 1.0
