import math
import re

import numpy as np
import pytest

from sdsvm import KernelSpec, fit_sdsvm, gen_toy, map_to_csv, map_to_svg
from sdsvm.errors import IoError, ParseError, SerializationError, write_text

from oracles import fit_from_rows, parse_csv

LINEAR = KernelSpec(kind="linear")
HEADER = "id,label,f,outlyingness,trimmed,misclassified"


def sample(id="p", label=1, f=0.5, r=1.0):
    """One (id, label, f, r) row for fit_from_rows."""
    return (id, label, f, r)


def minus(id="m"):
    """A minus row beside a plus one: a plan keeps a sample of each group."""
    return sample(id=id, label=-1, f=-0.5, r=0.25)


def csv_rows(fit):
    """The map CSV's cells of each sample of a fit."""
    return [line.split(",") for line in map_to_csv(fit).splitlines()[1:]]


@pytest.fixture(scope="module")
def toy_fit():
    return fit_sdsvm(gen_toy(1), LINEAR)


class TestMapColumns:
    def test_positive_sample_on_wrong_side_is_misclassified(self, toy_fit):
        flagged = {cells[0]: cells[5] for cells in csv_rows(toy_fit)}
        assert flagged["66"] == "true"  # planted at the negative center

    def test_flags_follow_sign_convention(self, toy_fit):
        for _, label, f, _, _, misclassified in csv_rows(toy_fit):
            predicted = 1 if float(f) >= 0.0 else -1
            assert misclassified == ("true" if predicted != int(label) else "false")

    def test_coordinates_copied_exactly(self, toy_fit):
        back = parse_csv(map_to_csv(toy_fit), 0.5)
        assert back.decision_values.tolist() == toy_fit.decision_values.tolist()
        assert back.plan.outlyingness.tolist() == toy_fit.plan.outlyingness.tolist()

    def test_one_row_per_sample(self, toy_fit):
        assert len(csv_rows(toy_fit)) == 66

    def test_zero_f_classifies_as_plus_one(self):
        # f == 0 counts as predicted +1: a -1 sample there is misclassified,
        # a +1 sample is not.
        fit = fit_from_rows([sample(id="a", label=-1, f=0.0), sample(id="b", label=1, f=0.0)])
        assert [cells[5] for cells in csv_rows(fit)] == ["true", "false"]


class TestFitResultRule:
    """FitResult holds only samples the map can draw."""

    @pytest.mark.parametrize("label", [0, 3, 0.5])
    def test_label_other_than_plus_or_minus_one_rejected(self, label):
        with pytest.raises(ValueError, match="labels must be -1 or"):
            fit_from_rows([sample(label=label), minus()])

    @pytest.mark.parametrize("r", [-math.inf, -1.0, math.nan])
    def test_negative_or_nan_r_rejected(self, r):
        with pytest.raises(ValueError, match="nonnegative"):
            fit_from_rows([sample(r=r), minus()])

    @pytest.mark.parametrize("f", [math.nan, math.inf, -math.inf])
    def test_non_finite_f_rejected(self, f):
        with pytest.raises(ValueError, match="decision values must be finite"):
            fit_from_rows([sample(f=f), minus()])

    def test_infinite_r_kept(self):
        assert fit_from_rows([sample(r=math.inf), minus()]).plan.outlyingness[0] == math.inf


class TestCsv:
    def test_round_trip_identity(self):
        rows = [
            sample(id="a", label=1, f=0.125, r=3.5),
            sample(id="b", label=-1, f=-2.25, r=math.inf),
            sample(id="66", label=1, f=-0.1, r=0.0),
            sample(id="c", label=-1, f=1.5, r=0.25),
        ]
        text = map_to_csv(fit_from_rows(rows, 0.5))
        back = parse_csv(text, 0.5)
        assert list(zip(back.ids, back.labels, back.decision_values, back.plan.outlyingness)) == rows
        assert back.plan.trimmed.tolist() == [True, True, False, False]  # the more outlying of each group
        assert map_to_csv(back) == text

    def test_inf_written_as_literal(self):
        text = map_to_csv(fit_from_rows([sample(r=math.inf), minus()]))
        assert ",inf," in text.splitlines()[1]

    def test_toy_fit_has_header_and_66_rows(self, toy_fit):
        lines = map_to_csv(toy_fit).splitlines()
        assert len(lines) == 67
        assert lines[0] == HEADER

    def test_rows_in_sample_order(self, toy_fit):
        assert [cells[0] for cells in csv_rows(toy_fit)] == [str(i) for i in range(1, 67)]

    def test_parse_rejects_negative_infinite_r(self):
        text = map_to_csv(fit_from_rows([sample(id="a"), minus()])).replace(",1.0,", ",-inf,")
        with pytest.raises(ParseError) as info:
            parse_csv(text, 1.0)
        assert info.value.line == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_parse_rejects_non_finite_f(self, value):
        rows = map_to_csv(fit_from_rows([sample(id="a"), sample(id="b", f=-1.25), minus()])).splitlines()
        rows[2] = rows[2].replace(",-1.25,", f",{value},")
        with pytest.raises(ParseError, match="decision values must be finite") as info:
            parse_csv("\n".join(rows) + "\n", 1.0)
        assert info.value.line == 3

    def test_parse_rejects_a_flag_the_fit_does_not_derive(self):
        text = map_to_csv(fit_from_rows([minus(), sample(id="a")]))
        assert text.endswith(",false,false\n")
        with pytest.raises(ParseError, match="misclassified") as info:
            parse_csv(text[: -len("false\n")] + "true\n", 1.0)
        assert info.value.line == 3

    def test_parse_rejects_a_trimmed_flag_that_is_not_the_trim(self):
        text = map_to_csv(fit_from_rows([sample(id="a"), minus()]))
        with pytest.raises(ParseError, match="not the trim at kappa 1.0") as info:
            parse_csv(text.replace(",1.0,false,", ",1.0,true,"), 1.0)
        assert info.value.line == 2

    def test_parse_text_without_newline(self):
        text = map_to_csv(fit_from_rows([sample(id="a"), minus()]))
        assert parse_csv(text.rstrip("\n"), 1.0).n == 2

    def test_parse_rejects_wrong_header(self):
        with pytest.raises(ParseError):
            parse_csv("id,label\n1,-1\n", 1.0)

    def test_unwritable_destination(self):
        with pytest.raises(IoError):
            write_text("/nonexistent-dir/x.csv", map_to_csv(fit_from_rows([sample(), minus()])))

    @pytest.mark.parametrize("sid", ["s0,x", ",", "a\nb", "a\r", "\r\n", "x\u2028y", "p\x1c", '"x0"', 'b"c'])
    def test_id_that_would_split_its_row_raises(self, sid):
        # Such an id once wrote a row of more than 6 fields, or two rows; one
        # holding a double quote was written as it is, and a CSV reader took
        # its quotes for quoting: "x0" read back as x0.
        fit = fit_from_rows([sample(id="a"), sample(id=sid), minus(id="b,c")])
        what = "a double quote" if '"' in sid else "a comma or a line break"
        with pytest.raises(SerializationError, match=f"^id {re.escape(repr(sid))} contains {what}$"):
            map_to_csv(fit)
        assert map_to_svg(fit).startswith("<svg")

    def test_id_with_other_whitespace_is_written(self):
        text = map_to_csv(fit_from_rows([sample(id="a b\t"), minus()]))
        assert text.splitlines()[1].split(",")[0] == "a b\t"


class TestSvg:
    def test_single_point_circle_on_vertical_line(self):
        text = map_to_svg(fit_from_rows([sample(label=1, f=0.0, r=0.0), minus()]))
        assert text.count("marker-plus") == 1
        assert text.count("marker-minus") == 1
        # the lone circle sits exactly on the f = 0 line
        circle = [ln for ln in text.splitlines() if "marker-plus" in ln][0]
        vline = [ln for ln in text.splitlines() if 'stroke-width="1.5"' in ln][0]
        cx = circle.split('cx="')[1].split('"')[0]
        x1 = vline.split('x1="')[1].split('"')[0]
        assert cx == x1

    def test_marker_shapes_by_label(self, toy_fit):
        text = map_to_svg(toy_fit)
        assert text.count("marker-plus") == 36
        assert text.count("marker-minus") == 30

    def test_infinite_r_gets_distinct_marker(self):
        fit = fit_from_rows(
            [sample(id="a", r=1.0), sample(id="b", r=math.inf), sample(id="c", label=-1, r=2.0)]
        )
        text = map_to_svg(fit)
        assert text.count("marker-inf") == 1
        assert text.count("marker-plus") == 1
        assert text.count("marker-minus") == 1

    def test_threshold_renders_dashed_line(self):
        fit = fit_from_rows([sample(), minus()])
        assert "stroke-dasharray" in map_to_svg(fit, threshold=0.5)
        assert "stroke-dasharray" not in map_to_svg(fit)

    def test_axis_labels_present(self):
        text = map_to_svg(fit_from_rows([sample(), minus()]))
        assert ">f(x)</text>" in text
        assert "Stahel–Donoho outlyingness" in text

    def test_misclassified_points_always_labeled(self):
        rows = [sample(id=f"p{i}", r=float(i)) for i in range(10)]
        rows.append(sample(id="bad", f=-1.0, r=0.0, label=1))
        rows.append(minus())
        text = map_to_svg(fit_from_rows(rows), label_top=2)
        assert ">bad</text>" in text
        assert ">p9</text>" in text and ">p8</text>" in text
        assert ">p3</text>" not in text

    def test_byte_determinism(self, toy_fit):
        assert map_to_svg(toy_fit) == map_to_svg(toy_fit)

    def test_unwritable_destination(self):
        with pytest.raises(IoError):
            write_text("/nonexistent-dir/x.svg", map_to_svg(fit_from_rows([sample(), minus()])))


class TestInvariants:
    def test_left_of_line_count_equals_negative_f_count(self, toy_fit):
        # rendered x coordinate is left of the f = 0 line exactly when f < 0
        text = map_to_svg(toy_fit)
        vline = [ln for ln in text.splitlines() if 'stroke-width="1.5"' in ln][0]
        zero_x = float(vline.split('x1="')[1].split('"')[0])
        n_left = 0
        for ln in text.splitlines():
            if "marker-plus" in ln:
                n_left += float(ln.split('cx="')[1].split('"')[0]) < zero_x
            elif "marker-minus" in ln:
                first_x = float(ln.split("M ")[1].split()[0])
                n_left += (first_x + 4.0) < zero_x  # cross path starts at x - marker
        assert n_left == int(np.sum(toy_fit.decision_values < 0))


class TestGoldenFile:
    def test_toy_map_matches_frozen_svg(self):
        import pathlib

        rendered = map_to_svg(fit_sdsvm(gen_toy(1), LINEAR))
        golden = pathlib.Path(__file__).parent / "golden" / "toy_map.svg"
        assert rendered == golden.read_text(encoding="utf-8")
