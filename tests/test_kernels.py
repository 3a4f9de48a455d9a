import ctypes
import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as npst

import sdsvm.kernels
from sdsvm import (
    Dataset,
    KernelMatrix,
    KernelSpec,
    cli,
    fit_from_text,
    fit_sdsvm,
    fit_to_text,
    gen_toy,
    kernel_cross,
    kernel_matrix,
)
from sdsvm.errors import DimensionError, EmptyInput, KernelTypeError

from conftest import make_vectors
from oracles import kernel_block_recipe, kernel_entry, spectrum_dot_brute

PRECOMPUTED = KernelSpec(kind="precomputed")

# One spec of each kind, with the parameters its kind reads.
SPECS = [
    KernelSpec(),
    KernelSpec(kind="rbf", gamma=0.5),
    KernelSpec(kind="polynomial", gamma=0.5, degree=2, coef0=1.0),
    KernelSpec(kind="spectrum", kmer=2),
    PRECOMPUTED,
]


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

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.kind)
    def test_hashable_and_equal_by_value(self, spec):
        copy = KernelSpec(**dataclasses.asdict(spec))
        assert copy == spec and hash(copy) == hash(spec)
        assert len({spec, copy}) == 1

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.kind)
    def test_equal_after_a_fit_report_round_trip(self, spec):
        toy = gen_toy(1)
        if spec.kind == "precomputed":
            toy = Dataset(x=kernel_matrix(KernelSpec(), toy.x).entries, labels=toy.labels)
        elif spec.kind == "spectrum":
            words = ["".join("ACGT"[int(abs(v) * 7) % 4] for v in row) * 3 for row in toy.x]
            toy = Dataset(x=words, labels=toy.labels)
        fit = fit_sdsvm(toy, spec)
        assert fit_from_text(fit_to_text(fit)).model.spec == spec


@pytest.mark.parametrize(
    "spec",
    [
        KernelSpec(kind="rbf", gamma=1),
        KernelSpec(kind="polynomial", gamma=0.5, coef0=1),
        KernelSpec(kind="rbf", gamma=np.float64(0.5)),
    ],
    ids=["int-gamma", "int-coef0", "numpy-gamma"],
)
def test_spec_of_any_number_type_reads_back(spec):
    # Each once wrote a kernel line its own reader rejected: gamma=1 read
    # back as 1.0, and np.float64(0.5) wrote its repr.
    assert type(spec.gamma) is float and type(spec.coef0) is float
    fit = fit_sdsvm(gen_toy(1), spec)
    assert fit_from_text(fit_to_text(fit)).model.spec == spec


class TestEvalKernel:
    def test_linear_dot_by_hand(self):
        value = kernel_entry(KernelSpec(), [1.0, 2.0], [3.0, 4.0])
        assert value == 11.0

    @pytest.mark.parametrize("gamma", [0.1, 1.0, 7.5])
    def test_rbf_same_point_is_one(self, gamma):
        s = [0.3, -2.0, 5.0]
        assert kernel_entry(KernelSpec(kind="rbf", gamma=gamma), s, s) == 1.0

    def test_rbf_formula(self):
        spec = KernelSpec(kind="rbf", gamma=0.5)
        value = kernel_entry(spec, [0.0], [2.0])
        assert value == pytest.approx(np.exp(-0.5 * 4.0), rel=1e-15)

    def test_polynomial_formula(self):
        spec = KernelSpec(kind="polynomial", gamma=2.0, degree=3, coef0=1.0)
        value = kernel_entry(spec, [1.0, 1.0], [2.0, 0.0])
        assert value == (2.0 * 2.0 + 1.0) ** 3

    def test_spectrum_shared_twomer(self):
        spec = KernelSpec(kind="spectrum", kmer=2)
        assert kernel_entry(spec, "AAB", "ABA") == 1.0

    def test_spectrum_short_string_gives_zero(self):
        spec = KernelSpec(kind="spectrum", kmer=4)
        assert kernel_entry(spec, "AB", "ABAB") == 0.0

    def test_payload_kind_mismatch(self):
        with pytest.raises(KernelTypeError):
            kernel_entry(KernelSpec(), "ACGT", "ACGT")
        with pytest.raises(KernelTypeError):
            kernel_entry(KernelSpec(kind="spectrum", kmer=2), [1.0], [2.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            kernel_entry(KernelSpec(), [1.0, 2.0], [1.0])

    def test_precomputed_gram_is_the_data(self):
        m = np.array([[1.0, 0.5], [0.5, 2.0]])
        assert kernel_matrix(PRECOMPUTED, m).entries.tolist() == m.tolist()
        assert kernel_entry(PRECOMPUTED, [1.0, 0.5], [0.5, 2.0]) == 0.5


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
        om = kernel_matrix(PRECOMPUTED, m).take([2, 0])
        assert np.array_equal(om.entries, m[np.ix_([2, 0], [2, 0])])

    def test_precomputed_gram_must_be_square_and_symmetric(self):
        with pytest.raises(DimensionError, match="square"):
            kernel_matrix(PRECOMPUTED, np.zeros((2, 3)))
        with pytest.raises(DimensionError, match="dimension"):
            kernel_matrix(PRECOMPUTED, [[1.0, 0.0], [0.0]])
        # Rejected, not mirrored as a computed block's triangle is.
        with pytest.raises(DimensionError, match="symmetric"):
            kernel_matrix(PRECOMPUTED, np.array([[1.0, 2.0], [3.0, 4.0]]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_precomputed_gram_must_be_finite(self, bad):
        with pytest.raises(DimensionError, match="non-finite"):
            kernel_matrix(PRECOMPUTED, np.array([[1.0, bad], [bad, 1.0]]))

    @pytest.mark.parametrize(
        "gram", [[["a", "b"], ["b", "a"]], np.array([["1", "a"], ["a", "1"]]), ["ab", "ba"]]
    )
    def test_precomputed_gram_must_hold_numbers(self, gram):
        with pytest.raises(KernelTypeError):
            kernel_matrix(PRECOMPUTED, gram)

    def test_precomputed_gram_is_copied(self):
        m = np.array([[2.0, -1.0], [-1.0, 2.0]])
        om = kernel_matrix(PRECOMPUTED, m)
        m[0, 0] = 9.0
        assert om.entries[0, 0] == 2.0 and not om.entries.flags.writeable

    def test_take_submatrix(self):
        om = kernel_matrix(KernelSpec(), make_vectors(np.eye(4)))
        sub = om.take([3, 1])
        assert np.array_equal(sub.entries, np.eye(2))

    def test_matrix_must_be_square_and_symmetric(self):
        with pytest.raises(DimensionError):
            KernelMatrix(np.zeros((2, 3)))
        with pytest.raises(DimensionError):
            KernelMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))


class TestNonFiniteBlocks:
    @pytest.mark.parametrize(
        "spec",
        [KernelSpec(), KernelSpec(kind="rbf", gamma=0.5), KernelSpec(kind="polynomial", degree=2)],
    )
    def test_overflow_raises_without_warnings(self, spec):
        x = make_vectors([[1e200, 0.0], [0.0, 1e200], [2e200, 1e200]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionError, match="non-finite"):
                kernel_matrix(spec, x)
            with pytest.raises(DimensionError, match="non-finite"):
                kernel_cross(spec, x[:1], x)


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
                    assert block[i, j] == pytest.approx(kernel_entry(spec, a[i], b[j]), rel=1e-12)

    @pytest.mark.parametrize("kind", sdsvm.kernels.KINDS)
    @pytest.mark.parametrize(
        "call",
        [
            lambda spec: kernel_matrix(spec, 5.0),
            lambda spec: kernel_matrix(spec, None),
            lambda spec: kernel_matrix(spec, np.array(5.0)),
            lambda spec: kernel_cross(spec, 5.0, [[1.0]]),
            lambda spec: kernel_cross(spec, [[1.0]], None),
        ],
    )
    def test_samples_that_are_not_a_sequence(self, kind, call):
        # These once raised a bare TypeError from len() or list().
        with pytest.raises(KernelTypeError):
            call(KernelSpec(kind=kind))

    def test_sides_of_other_dimensions_rejected(self):
        with pytest.raises(DimensionError, match="^dimension 2 on one side, 1 on the other$"):
            kernel_cross(KernelSpec(), make_vectors([[1.0, 2.0]]), make_vectors([[1.0]]))

    def test_precomputed_has_no_cross_block(self):
        m = np.eye(3)
        with pytest.raises(KernelTypeError, match="precomputed"):
            kernel_cross(PRECOMPUTED, m, m[:1])

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

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 511, 512, 513])
    @pytest.mark.parametrize("kind", ["linear", "rbf", "polynomial", "spectrum"])
    def test_row_blocks_match_recipe(self, kind, n):
        # Sizes on both sides of the row-block edges of the in-place passes.
        spec = KernelSpec(kind=kind, **self.PARAMS[kind])
        rng = np.random.default_rng(n)
        if kind == "spectrum":
            x = ["".join(rng.choice(list("ACGT"), size=m)) for m in rng.integers(1, 12, size=n)]
        else:
            x = rng.normal(size=(n, 5)) * 3.0
        square = kernel_matrix(spec, x).entries
        assert np.array_equal(square, kernel_block_recipe(kind, x, **self.PARAMS[kind]))
        cross = kernel_cross(spec, x, x[:3])
        assert np.array_equal(cross, kernel_block_recipe(kind, x, x[:3], **self.PARAMS[kind]))

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 511, 512, 513])
    def test_mirror_keeps_upper_triangle(self, n):
        # A square kernel block defines only its entries on and above the
        # diagonal, so the strictly lower triangle holds nan here: the
        # row-block mirroring must overwrite it without reading it.
        m = np.random.default_rng(n).normal(size=(n, n))
        m[0, -1] = -0.0
        expected = np.triu(m) + np.triu(m, 1).T
        m[np.tril_indices(n, -1)] = np.nan
        assert sdsvm.kernels._mirror_upper(m).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("width", [1, 7])
    def test_kmer_chunk_width_does_not_change_entries(self, monkeypatch, width):
        spec = KernelSpec(kind="spectrum", **self.PARAMS["spectrum"])
        words, _ = self._inputs("spectrum")
        square = kernel_matrix(spec, words).entries
        cross = kernel_cross(spec, words[:25], words[25:])
        monkeypatch.setattr(sdsvm.kernels, "_KMER_CHUNK", width)
        assert np.array_equal(kernel_matrix(spec, words).entries, square)
        assert np.array_equal(kernel_cross(spec, words[:25], words[25:]), cross)

    def test_vocabulary_above_a_million_kmers(self):
        # About 1.2 million distinct 8-mers, over the 2**20 columns a dense
        # count table was once limited to; shared stretches make the
        # off-diagonal entries large.
        rng = np.random.default_rng(8)
        letters = np.array(list("ACDEFGHIKLMNPQRSTVWY"))

        def residues(n):
            return "".join(rng.choice(letters, size=n))

        s0 = residues(500_000)
        s1 = s0[:100_000] + residues(400_000)
        s2 = s1[50_000:250_000] + residues(300_000)
        strings = [s0, s1, s2]
        square = kernel_matrix(KernelSpec(kind="spectrum", kmer=8), strings).entries
        for i, j in [(0, 1), (1, 2), (2, 2)]:
            assert square[i, j] == square[j, i] == spectrum_dot_brute(strings[i], strings[j], 8)
        assert square[0, 1] > 0 and square[1, 2] > 0

    def test_precomputed_keeps_the_gram_bit_for_bit(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(9, 9))
        m = m + m.T
        m[[0, 7], [7, 0]] = -0.0
        idx = [7, 2, 2, 5, 0]
        m = m[np.ix_(idx, idx)]  # a repeated sample gives equal rows and columns
        assert kernel_matrix(PRECOMPUTED, m).entries.tobytes() == m.tobytes()

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
        assert kernel_entry(spec, v, v) == 1.0


@pytest.fixture(params=["host threads", "one thread"])
def blas_threads(request):
    """Runs a test at the bundled OpenBLAS's own thread count, then after the
    CLI's one-thread pin, and restores the count afterwards."""
    library = sdsvm.kernels._openblas_library()
    if library is None:
        pytest.skip("numpy ships no bundled scipy-openblas64 here")
    get_threads, get_procs = library.scipy_openblas_get_num_threads64_, library.scipy_openblas_get_num_procs64_
    get_threads.restype = get_procs.restype = ctypes.c_int
    before = get_threads()
    pin = cli._openblas_thread_setter()
    pin(get_procs() if request.param == "host threads" else 1)
    yield
    pin(before)


class TestSymmetricProduct:
    """The square block's product is numpy's x @ x.T on and above the
    diagonal, bit for bit, whether it comes from the bundled cblas_dsyrk
    or from x @ x.T itself."""

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 255, 256, 257])
    def test_upper_triangle_is_numpys(self, blas_threads, capfd, n):
        rng = np.random.default_rng(n)
        upper = np.triu_indices(n)
        for d in (0, 1, 2, 5, 7, 20, 33, 64, 257, 1000):
            x = rng.normal(size=(n, d)) * 3.0
            assert sdsvm.kernels._upper_gram(x)[upper].tobytes() == (x @ x.T)[upper].tobytes(), d
        assert capfd.readouterr().err == ""

    def test_arrays_blas_cannot_take_as_they_are_go_through_numpy(self):
        x = np.random.default_rng(4).normal(size=(70, 10))
        unaligned = np.frombuffer(bytearray(x.nbytes + 1), dtype=np.float64, offset=1, count=x.size)
        unaligned = unaligned.reshape(x.shape)
        unaligned[...] = x
        for view in (x[:, ::2], x[::2], np.asfortranarray(x), unaligned):
            upper = np.triu_indices(view.shape[0])
            assert sdsvm.kernels._upper_gram(view)[upper].tobytes() == (view @ view.T)[upper].tobytes()
        for out in (np.ones((70, 70), order="F"), np.ones((80, 80))[:70, :70]):
            expected = out + x @ x.T
            assert sdsvm.kernels._upper_gram(x, out).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", ["linear", "rbf", "polynomial", "spectrum"])
    def test_entries_keep_their_bytes_without_the_bundled_openblas(self, monkeypatch, kind):
        params = TestExactRecipe.PARAMS[kind]
        rng = np.random.default_rng(5)
        if kind == "spectrum":
            x = ["".join(rng.choice(list("ACGT"), size=m)) for m in rng.integers(1, 40, size=130)]
            monkeypatch.setattr(sdsvm.kernels, "_KMER_CHUNK", 5)  # several chunks
        else:
            x = rng.normal(size=(130, 7)) * 3.0
        direct = kernel_matrix(KernelSpec(kind=kind, **params), x).entries
        monkeypatch.setattr(sdsvm.kernels, "_openblas_library", lambda: None)
        assert sdsvm.kernels.openblas_function("scipy_cblas_dsyrk64_") is None
        fallback = kernel_matrix(KernelSpec(kind=kind, **params), x).entries
        assert fallback.tobytes() == direct.tobytes()
