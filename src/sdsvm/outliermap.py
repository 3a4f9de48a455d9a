"""Outlier map construction and rendering.

One point per training sample: decision value f on the x axis, Stahel-Donoho
outlyingness on the y axis.  Positive-label samples draw as circles, negative
ones as crosses, with a solid vertical line at f = 0.  A sample with infinite
outlyingness is clamped to the top margin with a distinct triangle marker.
No outlyingness cutoff line is drawn unless the caller supplies a threshold.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

from .errors import EmptyInput, write_text
from .svm import sign_labels

CSV_HEADER = "id,label,f,outlyingness,trimmed,misclassified"


@dataclass(frozen=True)
class OutlierMapPoint:
    """One row of the diagnostic plot."""

    id: object
    label: int
    f: float
    r: float
    trimmed: bool
    misclassified: bool

    def __post_init__(self):
        if self.label not in (-1, 1):
            raise ValueError(f"label must be -1 or +1, got {self.label}")
        if not self.r >= 0.0:
            raise ValueError(f"outlyingness must be nonnegative, got {self.r}")
        if not math.isfinite(self.f):  # the map cannot draw it
            raise ValueError(f"decision value must be finite, got {self.f}")


def build_map(fit) -> list:
    """Points for every training sample of a fit, flags derived.

    A sample counts as misclassified when its label disagrees with sign(f),
    where f == 0 classifies as +1.
    """
    misclassified = sign_labels(fit.decision_values) != fit.labels
    return [
        OutlierMapPoint(sid, label, f, r, cut, wrong)
        for sid, label, f, r, cut, wrong in zip(
            fit.ids,
            map(int, fit.labels.tolist()),
            fit.decision_values.tolist(),
            fit.plan.outlyingness.tolist(),
            fit.plan.trimmed.tolist(),
            misclassified.tolist(),
        )
    ]


def map_to_csv(points) -> str:
    # Floats print as the shortest round-trip repr; inf prints as 'inf'.
    lines = [CSV_HEADER]
    lines.extend(
        f"{p.id},{p.label},{float(p.f)!r},{float(p.r)!r},"
        f"{'true' if p.trimmed else 'false'},{'true' if p.misclassified else 'false'}"
        for p in points
    )
    return "\n".join(lines) + "\n"


def emit_csv(points, destination) -> None:
    """Write the map as CSV; rows stay in original sample order."""
    write_text(destination, map_to_csv(points))


def _xml_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def map_to_svg(points, label_top: int = 5, threshold: float | None = None) -> str:
    """Self-contained SVG 1.1 text; byte-stable for fixed inputs.

    Ids are printed for the label_top largest-r points and every
    misclassified one; a threshold adds a dashed horizontal line.
    """
    if not points:
        raise EmptyInput("cannot render an empty outlier map")
    w, h, m = 640, 480, 4.0  # canvas size and marker radius
    ml, mr, mt, mb = 64, 20, 24, 48

    max_abs_f = max((abs(p.f) for p in points), default=0.0)
    x_max = 1.05 * max_abs_f if max_abs_f > 0 else 1.0
    finite_r = [p.r for p in points if math.isfinite(p.r)]
    max_r = max(finite_r) if finite_r else 0.0
    y_max = 1.05 * max_r if max_r > 0 else 1.0
    width = w - ml - mr

    if math.isfinite(2.0 * x_max):

        def px(f):
            return ml + (f + x_max) / (2.0 * x_max) * width

    else:
        # |f| near the float maximum: 2 x_max, or x_max itself, overflows.

        def px(f):
            return ml + (f / max_abs_f / 1.05 + 1.0) / 2.0 * width

    def py(r):
        # An infinite r, or a threshold whose pixel overflows, clamps to the top margin.
        y = (h - mb) - r / y_max * (h - mb - mt)
        return y if math.isfinite(y) else float(mt)

    out = io.StringIO()
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">\n'
    )
    out.write(f'<rect x="0" y="0" width="{w}" height="{h}" fill="white"/>\n')
    # axes
    out.write(
        f'<line x1="{ml}" y1="{h - mb}" x2="{w - mr}" y2="{h - mb}" '
        f'stroke="black" stroke-width="1"/>\n'
    )
    out.write(
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{h - mb}" stroke="black" stroke-width="1"/>\n'
    )
    # solid vertical line at f = 0
    zero_x = f"{px(0.0):.2f}"
    out.write(
        f'<line x1="{zero_x}" y1="{mt}" x2="{zero_x}" y2="{h - mb}" '
        f'stroke="black" stroke-width="1.5"/>\n'
    )
    if threshold is not None:
        ty = f"{py(threshold):.2f}"
        out.write(
            f'<line x1="{ml}" y1="{ty}" x2="{w - mr}" y2="{ty}" '
            f'stroke="black" stroke-width="1" stroke-dasharray="6 4"/>\n'
        )
    # axis tick labels
    for f_tick in (-max_abs_f, 0.0, max_abs_f) if max_abs_f > 0 else (0.0,):
        out.write(
            f'<text x="{px(f_tick):.2f}" y="{h - mb + 16}" font-size="11" '
            f'text-anchor="middle" font-family="monospace">{f_tick:.3g}</text>\n'
        )
    for r_tick in ((0.0, max_r) if max_r > 0 else (0.0,)):
        out.write(
            f'<text x="{ml - 6}" y="{py(r_tick) + 4:.2f}" font-size="11" '
            f'text-anchor="end" font-family="monospace">{r_tick:.3g}</text>\n'
        )
    # axis titles
    out.write(
        f'<text x="{(ml + w - mr) / 2:.2f}" y="{h - 12}" font-size="13" '
        f'text-anchor="middle" font-family="sans-serif">f(x)</text>\n'
    )
    out.write(
        f'<text x="16" y="{(mt + h - mb) / 2:.2f}" font-size="13" '
        f'text-anchor="middle" font-family="sans-serif" '
        f'transform="rotate(-90 16 {(mt + h - mb) / 2:.2f})">'
        f"Stahel–Donoho outlyingness</text>\n"
    )
    # markers
    for p in points:
        x, y = px(p.f), py(p.r)
        if math.isinf(p.r):
            out.write(
                f'<path d="M {x:.2f} {y - m:.2f} L {x - m:.2f} {y + m:.2f} '
                f'L {x + m:.2f} {y + m:.2f} Z" fill="black" class="marker-inf"/>\n'
            )
        elif p.label == 1:
            out.write(
                f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{m:.2f}" '
                f'fill="none" stroke="black" stroke-width="1.2" class="marker-plus"/>\n'
            )
        else:
            left, right = f"{x - m:.2f}", f"{x + m:.2f}"
            top, bottom = f"{y - m:.2f}", f"{y + m:.2f}"
            out.write(
                f'<path d="M {left} {top} L {right} {bottom} M {left} {bottom} L {right} {top}" '
                f'stroke="black" stroke-width="1.2" class="marker-minus"/>\n'
            )
    # id labels: top-N by outlyingness plus every misclassified point,
    # offset above-right (no collision layout; determinism wins).  The sort
    # is stable, so equal r keep ascending index order.
    minus_r = [-p.r for p in points]
    labeled = set(sorted(range(len(points)), key=minus_r.__getitem__)[: max(label_top, 0)])
    labeled.update(i for i, p in enumerate(points) if p.misclassified)
    for i in sorted(labeled):
        p = points[i]
        x, y = px(p.f), py(p.r)
        out.write(
            f'<text x="{x + m + 1:.2f}" y="{y - m - 1:.2f}" font-size="10" '
            f'font-family="monospace">{_xml_escape(str(p.id))}</text>\n'
        )
    out.write("</svg>\n")
    return out.getvalue()


def emit_svg(points, destination="-", label_top: int = 5, threshold: float | None = None) -> None:
    """Render and write the SVG map."""
    write_text(destination, map_to_svg(points, label_top, threshold))
