import math

import numpy as np
import pytest

from sdsvm import (
    KernelSpec,
    OutlierMapPoint,
    build_map,
    emit_csv,
    emit_svg,
    fit_sdsvm,
    gen_toy,
)
from sdsvm.errors import EmptyInput, IoError, ParseError
from sdsvm.outliermap import map_to_csv, map_to_svg

from oracles import parse_csv

LINEAR = KernelSpec(kind="linear")


def point(**kwargs):
    defaults = dict(id="p", label=1, f=0.5, r=1.0, trimmed=False, misclassified=False)
    defaults.update(kwargs)
    return OutlierMapPoint(**defaults)


@pytest.fixture(scope="module")
def toy_fit():
    return fit_sdsvm(gen_toy(1), LINEAR)


class TestBuildMap:
    def test_positive_sample_on_wrong_side_is_misclassified(self, toy_fit):
        points = build_map(toy_fit)
        flagged = {p.id: p.misclassified for p in points}
        assert flagged[66] is True  # planted at the negative center

    def test_flags_follow_sign_convention(self, toy_fit):
        for p in build_map(toy_fit):
            predicted = 1 if p.f >= 0.0 else -1
            assert p.misclassified == (predicted != p.label)

    def test_coordinates_copied_exactly(self, toy_fit):
        points = build_map(toy_fit)
        for i, p in enumerate(points):
            assert p.f == toy_fit.decision_values[i]
            assert p.r == toy_fit.plan.outlyingness[i]

    def test_one_point_per_sample(self, toy_fit):
        assert len(build_map(toy_fit)) == 66

    def test_zero_f_classifies_as_plus_one(self):
        # f == 0 counts as predicted +1: a -1 sample there is misclassified,
        # a +1 sample is not.
        class FakePlan:
            outlyingness = np.array([1.0, 1.0])
            trimmed = np.array([False, False])

        class FakeFit:
            n = 2
            ids = ("a", "b")
            labels = np.array([-1.0, 1.0])
            decision_values = np.array([0.0, 0.0])
            plan = FakePlan()

        points = build_map(FakeFit())
        assert points[0].misclassified is True
        assert points[1].misclassified is False


class TestCsv:
    def test_empty_list_gives_header_only(self, tmp_path):
        target = tmp_path / "empty.csv"
        emit_csv([], target)
        assert target.read_text() == "id,label,f,outlyingness,trimmed,misclassified\n"

    def test_round_trip_identity(self):
        points = [
            point(id="a", label=1, f=0.125, r=3.5, trimmed=True),
            point(id="b", label=-1, f=-2.25, r=math.inf, misclassified=True),
            point(id="66", label=1, f=-0.1, r=0.0, misclassified=True),
        ]
        text = map_to_csv(points)
        assert parse_csv(text) == points

    def test_inf_written_as_literal(self):
        text = map_to_csv([point(r=math.inf)])
        assert ",inf," in text.splitlines()[1]

    def test_toy_fit_has_66_rows(self, toy_fit, tmp_path):
        target = tmp_path / "toy.csv"
        emit_csv(build_map(toy_fit), target)
        lines = target.read_text().splitlines()
        assert len(lines) == 67
        assert lines[0] == "id,label,f,outlyingness,trimmed,misclassified"

    def test_rows_in_sample_order(self, toy_fit):
        ids = [p.split(",")[0] for p in map_to_csv(build_map(toy_fit)).splitlines()[1:]]
        assert ids == [str(i) for i in range(1, 67)]

    def test_negative_infinite_r_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            point(r=-math.inf)

    @pytest.mark.parametrize("f", [math.nan, math.inf, -math.inf])
    def test_non_finite_f_rejected(self, f):
        with pytest.raises(ValueError, match="decision value must be finite"):
            point(f=f)

    def test_parse_rejects_negative_infinite_r(self):
        text = map_to_csv([point(id="a")]).replace(",1.0,", ",-inf,")
        with pytest.raises(ParseError) as info:
            parse_csv(text)
        assert info.value.line == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_parse_rejects_non_finite_f(self, value):
        rows = map_to_csv([point(id="a"), point(id="b", f=-1.25)]).splitlines()
        rows[2] = rows[2].replace(",-1.25,", f",{value},")
        with pytest.raises(ParseError, match="decision value must be finite") as info:
            parse_csv("\n".join(rows) + "\n")
        assert info.value.line == 3

    def test_parse_header_only_text_without_newline(self):
        assert parse_csv("id,label,f,outlyingness,trimmed,misclassified") == []

    def test_parse_rejects_wrong_header(self):
        with pytest.raises(ParseError):
            parse_csv("id,label\n1,-1\n")

    def test_unwritable_destination(self):
        with pytest.raises(IoError):
            emit_csv([point()], "/nonexistent-dir/x.csv")


class TestSvg:
    def test_single_point_circle_on_vertical_line(self):
        text = map_to_svg([point(label=1, f=0.0, r=0.0)])
        assert text.count("marker-plus") == 1
        assert "marker-minus" not in text
        # the lone circle sits exactly on the f = 0 line
        circle = [ln for ln in text.splitlines() if "marker-plus" in ln][0]
        vline = [ln for ln in text.splitlines() if 'stroke-width="1.5"' in ln][0]
        cx = circle.split('cx="')[1].split('"')[0]
        x1 = vline.split('x1="')[1].split('"')[0]
        assert cx == x1

    def test_empty_points_rejected(self):
        with pytest.raises(EmptyInput):
            map_to_svg([])

    def test_marker_shapes_by_label(self, toy_fit):
        text = map_to_svg(build_map(toy_fit))
        assert text.count("marker-plus") == 36
        assert text.count("marker-minus") == 30

    def test_infinite_r_gets_distinct_marker(self):
        points = [point(id="a", r=1.0), point(id="b", r=math.inf), point(id="c", label=-1, r=2.0)]
        text = map_to_svg(points)
        assert text.count("marker-inf") == 1
        assert text.count("marker-plus") == 1
        assert text.count("marker-minus") == 1

    def test_threshold_renders_dashed_line(self):
        text = map_to_svg([point()], threshold=0.5)
        assert "stroke-dasharray" in text
        assert "stroke-dasharray" not in map_to_svg([point()])

    def test_axis_labels_present(self):
        text = map_to_svg([point()])
        assert ">f(x)</text>" in text
        assert "Stahel–Donoho outlyingness" in text

    def test_misclassified_points_always_labeled(self):
        points = [point(id=f"p{i}", r=float(i)) for i in range(10)]
        points.append(point(id="bad", f=-1.0, r=0.0, label=1, misclassified=True))
        text = map_to_svg(points, label_top=2)
        assert ">bad</text>" in text
        assert ">p9</text>" in text and ">p8</text>" in text
        assert ">p3</text>" not in text

    def test_byte_determinism(self, toy_fit):
        points = build_map(toy_fit)
        assert map_to_svg(points) == map_to_svg(points)

    def test_unwritable_destination(self):
        with pytest.raises(IoError):
            emit_svg([point()], "/nonexistent-dir/x.svg")


class TestInvariants:
    def test_left_of_line_count_equals_negative_f_count(self, toy_fit):
        # rendered x coordinate is left of the f = 0 line exactly when f < 0
        points = build_map(toy_fit)
        text = map_to_svg(points)
        vline = [ln for ln in text.splitlines() if 'stroke-width="1.5"' in ln][0]
        zero_x = float(vline.split('x1="')[1].split('"')[0])
        n_left = 0
        for ln in text.splitlines():
            if "marker-plus" in ln:
                n_left += float(ln.split('cx="')[1].split('"')[0]) < zero_x
            elif "marker-minus" in ln:
                first_x = float(ln.split("M ")[1].split()[0])
                n_left += (first_x + 4.0) < zero_x  # cross path starts at x - marker
        assert n_left == sum(p.f < 0 for p in points)


class TestGoldenFile:
    def test_toy_map_matches_frozen_svg(self):
        import pathlib

        fit = fit_sdsvm(gen_toy(1), LINEAR)
        rendered = map_to_svg(build_map(fit))
        golden = pathlib.Path(__file__).parent / "golden" / "toy_map.svg"
        assert rendered == golden.read_text(encoding="utf-8")
