"""The column and triangle paths against their per-cell and full-matrix forms.

Writers must give the same bytes or the same error (class and message),
load_csv the Dataset or the error of its stripped-cell reference, the RBF Gram
matrix the bytes of the full-matrix passes, and KernelMatrix.take the
entries of one fancy index.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from sdsvm import DirectionPolicy, KernelMatrix, KernelSpec, OutlyingnessReport, kernel_matrix, load_csv
from sdsvm.errors import GroupEmptyAfterTrim, SdsvmError
from sdsvm.outliermap import map_to_csv, map_to_svg
from sdsvm.pipeline import CvSelection, FitResult, TrimPlan, fit_from_text, fit_to_text, trim
from sdsvm.svm import SvmModel

from conftest import with_number_tokens
from oracles import (
    fit_to_text_reference,
    load_csv_reference,
    map_to_csv_reference,
    map_to_svg_reference,
    rbf_gram_reference,
)


def outcome(fn, *args, **kwargs):
    """fn's result, or the (class, message) of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except (SdsvmError, ValueError) as exc:
        return type(exc), str(exc)


# ------------------------------------------------------------------ fits ----

odd_ids = st.one_of(
    st.integers(-5, 10**6),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=6),
    st.sampled_from(["a&b", "<x>", "été", " ", "tab\there", "nbsp ", "1,2", "a\nb"]),
)
# The ids a fit report can hold: nonempty, without whitespace.
report_ids = odd_ids.filter(lambda sid: str(sid) and not any(map(str.isspace, str(sid))))
f_values = st.one_of(
    st.floats(-1e300, 1e300, allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -1.5, 1e-300]),
)
r_values = st.one_of(st.floats(0.0, 1e300), st.sampled_from([0.0, -0.0, math.inf]))
specs = st.sampled_from(
    [
        KernelSpec(),
        KernelSpec(kind="rbf", gamma=0.5),
        KernelSpec(kind="polynomial", gamma=2.0, coef0=1.5),
    ]
)
policies = st.sampled_from(
    [DirectionPolicy(mode="exhaustive"), DirectionPolicy(mode="sampled", count=7, seed=3)]
)
c_values = st.sampled_from([0.1, 1.0, 2.0**15])


@st.composite
def cv_selections(draw):
    """A C choice a fit can hold: a fixed C, or a CV table over a grid
    (repeats and any order allowed) with >= 2 folds and a finite error."""
    if draw(st.booleans()):
        return CvSelection(table=((draw(c_values), math.nan),), folds_used=0)
    errors = st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.5, math.nan])
    table = [(g, draw(errors)) for g in draw(st.lists(c_values, min_size=1, max_size=4))]
    finite = draw(st.integers(0, len(table) - 1))
    table[finite] = (table[finite][0], draw(st.floats(0.0, 1.0)))
    return CvSelection(table=tuple(table), folds_used=draw(st.integers(2, 10)))


@st.composite
def fits(draw, n_max=6, id_values=odd_ids, by_trim=False):
    """A FitResult over n_max samples at most; with by_trim its mask is the
    trim of its outlyingness, else any mask."""
    n = draw(st.sampled_from([1, 2]) | st.integers(1, n_max))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    ids = column(id_values)
    labels = np.array(column(st.sampled_from([-1.0, 1.0])))
    kappa = draw(st.sampled_from([0.5, 0.75, 1.0]))
    r = np.array(column(r_values))
    reports = tuple(OutlyingnessReport(r[labels == side], draw(policies)) for side in (-1.0, 1.0))
    if by_trim:
        try:
            trimmed = trim(*reports, labels, kappa).trimmed
        except GroupEmptyAfterTrim:
            assume(False)
    else:
        trimmed = np.array(column(st.booleans()))
    kept = np.flatnonzero(~trimmed)
    cv = draw(cv_selections())
    c = cv.c
    alpha = np.array(draw(st.lists(st.floats(0.0, c), min_size=kept.size, max_size=kept.size)))
    # Scale the class with the larger alpha sum down to the other's, so that
    # sum alpha_i y_i = 0 as a solve leaves it.
    y = labels[kept]
    sums = {s: alpha[y == s].sum() for s in (-1.0, 1.0)}
    big = max(sums, key=sums.get)
    if sums[big] > 0.0:
        alpha[y == big] *= sums[-big] / sums[big]
    model = SvmModel(
        alpha=alpha,
        labels=y,
        bias=draw(f_values),
        c=c,
        tol=1e-3,
        spec=draw(specs),
    )
    return FitResult(
        model=model,
        plan=TrimPlan(kappa, r, trimmed),
        cv=cv,
        decision_values=column(f_values),
        ids=ids,
        labels=labels,
        reports=reports,
    )


class TestWriters:
    @given(fits())
    def test_fit_text(self, fit):
        # The reference writes the model block with model_to_text_reference.
        assert outcome(fit_to_text, fit) == outcome(fit_to_text_reference, fit)

    @given(fits(id_values=report_ids, by_trim=True))
    def test_fit_reads_back_equal(self, fit):
        # Equal but for what the report does not hold: the text of each id,
        # the model's updates and gap and each report's counters.
        back = fit_from_text(fit_to_text(fit))
        assert back.ids == tuple(map(str, fit.ids))
        assert (back.plan.kappa, repr(back.cv.table), back.cv.folds_used) == (
            fit.plan.kappa,
            repr(fit.cv.table),
            fit.cv.folds_used,
        )
        for got, want in (
            (back.plan.outlyingness, fit.plan.outlyingness),
            (back.plan.trimmed, fit.plan.trimmed),
            (back.decision_values, fit.decision_values),
            (back.labels, fit.labels),
            (back.model.alpha, fit.model.alpha),
            (back.model.labels, fit.model.labels),
        ):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        model, want = back.model, fit.model
        assert (model.bias, model.c, model.tol, model.spec) == (want.bias, want.c, want.tol, want.spec)
        assert (model.updates, math.isnan(model.gap)) == (0, True)
        for got, want in zip(back.reports, fit.reports, strict=True):
            assert got.r.tobytes() == want.r.tobytes() and got.policy == want.policy
            assert (got.degenerate_pairs, got.directions, got.draws) == (0, 0, 0)

    @given(fits(), st.integers(-1, 8), st.sampled_from([None, 0.0, 2.5, 1e300]))
    def test_map(self, fit, label_top, threshold):
        assert outcome(map_to_csv, fit) == outcome(map_to_csv_reference, fit)
        assert map_to_svg(fit, label_top, threshold) == map_to_svg_reference(
            fit, label_top, threshold
        )


# -------------------------------------------------------------- load_csv ----

label_tokens = st.sampled_from(["1", "-1", "1.0", "+1", "-1e0", "1_0", " -1 ", "١"])
coded_tokens = st.sampled_from(["no", "yes", " yes ", "no\t", "maybe", "1"])
cell_tokens = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1_0", " 2.5", "3 ", "٢", "-0.0", "1e-400", "\u00a04", "x y", " "]),
)


@st.composite
def csv_cases(draw):
    """(text, coding) of a CSV: numeric labels without a coding, tokens
    in and out of ("no", "yes") with it."""
    coding = draw(st.sampled_from([None, ("no", "yes")]))
    width = draw(st.integers(1, 5))
    rows = draw(st.integers(0, 6))
    lines = []
    for _ in range(rows):
        cols = width + draw(st.sampled_from([0] * 6 + [-1, 1]))  # now and then a ragged row
        cells = draw(st.lists(cell_tokens, min_size=max(cols, 1), max_size=max(cols, 1)))
        cells[draw(st.integers(0, len(cells) - 1))] = draw(label_tokens if coding is None else coded_tokens)
        lines.append(",".join(cells))
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))
    return draw(st.one_of(st.just(text), with_number_tokens(text))), coding


def dataset_fields(ds):
    if isinstance(ds, tuple):
        return ds
    return ds.x.shape, ds.x.tobytes(), ds.labels.tobytes(), ds.ids


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("references")


class TestLoadCsv:
    @given(csv_cases(), st.sampled_from(["first", "last", 0, 1, 2, 4, -1]))
    def test_matches_reference(self, workdir, case, label_col):
        text, coding = case
        path = workdir / "data.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        lines = path.read_text(encoding="utf-8").splitlines()
        got = outcome(load_csv, path, label_col=label_col, coding=coding)
        expected = outcome(load_csv_reference, lines, label_col, coding)
        # An error's message carries its line number.
        assert dataset_fields(got) == dataset_fields(expected)

    @pytest.mark.parametrize(
        "text",
        [
            "1,2,-1\n3,abc,1\n4,1\n",  # non-numeric on line 2, ragged on line 3
            "1,2,-1\n3,inf,1\n4,5,2\n",  # inf on line 2, bad label on line 3
            "1,2,-1\n3, ,1\n4,5\n",  # a blank cell on line 2
        ],
    )
    def test_first_bad_line_matches_reference(self, workdir, text):
        path = workdir / "data.csv"
        path.write_text(text)
        got = outcome(load_csv, path)
        assert got == outcome(load_csv_reference, text.splitlines(), "last", None)
        assert got[1].startswith("line 2: ")


# ---------------------------------------------------------------- kernel ----


class TestRbfGram:
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 511, 512, 513, 700])
    @pytest.mark.parametrize("gamma, scale", [(0.05, 1.0), (1.7, 3.0), (1e-3, 40.0)])
    def test_triangle_passes_match_full_matrix(self, n, gamma, scale):
        x = np.random.default_rng(n).normal(size=(n, 7)) * scale
        x[n // 2] = x[0]  # a coincident pair: a zero distance off the diagonal
        got = kernel_matrix(KernelSpec(kind="rbf", gamma=gamma), x).entries
        assert got.tobytes() == rbf_gram_reference(x, gamma).tobytes()

    @pytest.mark.parametrize("n", [2, 65, 130, 513])
    def test_overflow_raises_as_the_full_matrix_does(self, n):
        # Two huge rows, their distance inf - inf, both in the last row block.
        x = np.random.default_rng(n).normal(size=(n, 3))
        x[n - 2] = [1e200, 0.0, 1e200]
        x[n - 1] = [2e200, -1e200, 1e200]
        spec = KernelSpec(kind="rbf", gamma=0.5)
        got = outcome(lambda: kernel_matrix(spec, x).entries.tobytes())
        expected = outcome(lambda: rbf_gram_reference(x, 0.5).tobytes())
        assert got == expected
        assert got[1] == "kernel block has non-finite entries"


class TestTake:
    @given(
        st.sampled_from([1, 2, 63, 64, 65, 130]).flatmap(
            lambda k: st.tuples(
                st.just(k),
                st.lists(st.integers(-k, k - 1), max_size=150)
                | st.permutations(range(k))
                | st.integers(0, k).map(lambda m: list(range(m))),
            )
        )
    )
    def test_blocks_match_one_fancy_index(self, case):
        k, idx = case
        rows = np.random.default_rng(k).normal(size=(k, 3))
        om = KernelMatrix(rows @ rows.T)
        expected = om.entries[np.ix_(idx, idx)]
        got = om.take(idx).entries
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    def test_index_outside_raises(self):
        om = KernelMatrix(np.eye(70))
        for idx in ([3, 70], list(range(65)) + [70], [-71]):
            with pytest.raises(IndexError):
                om.take(idx)
