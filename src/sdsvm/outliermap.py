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

from .errors import EmptyInput, ParseError, read_text, write_text
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
        if not (self.r >= 0.0 or math.isinf(self.r)):
            raise ValueError(f"outlyingness must be nonnegative, got {self.r}")


@dataclass(frozen=True)
class MapStyle:
    """Rendering knobs for emit_svg."""

    width: int = 640
    height: int = 480
    label_top: int = 5  # ids printed for this many largest-r points
    threshold: float | None = None  # optional dashed horizontal line
    marker: float = 4.0


def build_map(fit) -> list:
    """Points for every training sample of a fit, flags derived.

    A sample counts as misclassified when its label disagrees with sign(f),
    where f == 0 classifies as +1.
    """
    misclassified = sign_labels(fit.decision_values) != fit.labels
    return [
        OutlierMapPoint(
            id=fit.ids[i],
            label=int(fit.labels[i]),
            f=float(fit.decision_values[i]),
            r=float(fit.plan.outlyingness[i]),
            trimmed=bool(fit.plan.trimmed[i]),
            misclassified=bool(misclassified[i]),
        )
        for i in range(fit.n)
    ]


def _fmt(x: float) -> str:
    return repr(float(x))  # shortest round-trip; inf prints as 'inf'


def map_to_csv(points) -> str:
    lines = [CSV_HEADER]
    for p in points:
        lines.append(
            f"{p.id},{p.label},{_fmt(p.f)},{_fmt(p.r)},"
            f"{'true' if p.trimmed else 'false'},{'true' if p.misclassified else 'false'}"
        )
    return "\n".join(lines) + "\n"


def emit_csv(points, destination) -> None:
    """Write the map as CSV; rows stay in original sample order."""
    write_text(destination, map_to_csv(points))


def parse_csv(source) -> list:
    """Inverse of emit_csv.  Accepts a path, stream, or the text itself."""
    if hasattr(source, "read"):
        text = source.read()
    elif isinstance(source, str) and "\n" in source:
        text = source
    else:
        text = read_text(source)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ParseError(f"expected header {CSV_HEADER!r}", line=1)
    points = []
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != 6:
            raise ParseError(f"expected 6 columns, got {len(parts)}", line=lineno)
        try:
            points.append(
                OutlierMapPoint(
                    id=parts[0],
                    label=int(parts[1]),
                    f=float(parts[2]),
                    r=float(parts[3]),
                    trimmed={"true": True, "false": False}[parts[4]],
                    misclassified={"true": True, "false": False}[parts[5]],
                )
            )
        except (ValueError, KeyError) as exc:
            raise ParseError(f"bad row: {exc}", line=lineno) from exc
    return points


def _xml_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _svg_num(x: float) -> str:
    return f"{x:.2f}"


def map_to_svg(points, style: MapStyle | None = None) -> str:
    """Self-contained SVG 1.1 text; byte-stable for fixed inputs."""
    if not points:
        raise EmptyInput("cannot render an empty outlier map")
    style = style or MapStyle()
    w, h = style.width, style.height
    ml, mr, mt, mb = 64, 20, 24, 48

    max_abs_f = max((abs(p.f) for p in points), default=0.0)
    x_max = 1.05 * max_abs_f if max_abs_f > 0 else 1.0
    finite_r = [p.r for p in points if math.isfinite(p.r)]
    max_r = max(finite_r) if finite_r else 0.0
    y_max = 1.05 * max_r if max_r > 0 else 1.0

    def px(f):
        return ml + (f + x_max) / (2.0 * x_max) * (w - ml - mr)

    def py(r):
        if math.isinf(r):
            return float(mt)  # sentinel: clamp to the top margin
        return (h - mb) - r / y_max * (h - mb - mt)

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
    zero_x = _svg_num(px(0.0))
    out.write(
        f'<line x1="{zero_x}" y1="{mt}" x2="{zero_x}" y2="{h - mb}" '
        f'stroke="black" stroke-width="1.5"/>\n'
    )
    if style.threshold is not None:
        ty = _svg_num(py(style.threshold))
        out.write(
            f'<line x1="{ml}" y1="{ty}" x2="{w - mr}" y2="{ty}" '
            f'stroke="black" stroke-width="1" stroke-dasharray="6 4"/>\n'
        )
    # axis tick labels
    for f_tick in (-max_abs_f, 0.0, max_abs_f) if max_abs_f > 0 else (0.0,):
        out.write(
            f'<text x="{_svg_num(px(f_tick))}" y="{h - mb + 16}" font-size="11" '
            f'text-anchor="middle" font-family="monospace">{f_tick:.3g}</text>\n'
        )
    for r_tick in ((0.0, max_r) if max_r > 0 else (0.0,)):
        out.write(
            f'<text x="{ml - 6}" y="{_svg_num(py(r_tick) + 4)}" font-size="11" '
            f'text-anchor="end" font-family="monospace">{r_tick:.3g}</text>\n'
        )
    # axis titles
    out.write(
        f'<text x="{_svg_num((ml + w - mr) / 2)}" y="{h - 12}" font-size="13" '
        f'text-anchor="middle" font-family="sans-serif">f(x)</text>\n'
    )
    out.write(
        f'<text x="16" y="{_svg_num((mt + h - mb) / 2)}" font-size="13" '
        f'text-anchor="middle" font-family="sans-serif" '
        f'transform="rotate(-90 16 {_svg_num((mt + h - mb) / 2)})">'
        f"Stahel–Donoho outlyingness</text>\n"
    )
    # markers
    m = style.marker
    for p in points:
        x, y = px(p.f), py(p.r)
        if math.isinf(p.r):
            out.write(
                f'<path d="M {_svg_num(x)} {_svg_num(y - m)} L {_svg_num(x - m)} '
                f'{_svg_num(y + m)} L {_svg_num(x + m)} {_svg_num(y + m)} Z" '
                f'fill="black" class="marker-inf"/>\n'
            )
        elif p.label == 1:
            out.write(
                f'<circle cx="{_svg_num(x)}" cy="{_svg_num(y)}" r="{_svg_num(m)}" '
                f'fill="none" stroke="black" stroke-width="1.2" class="marker-plus"/>\n'
            )
        else:
            out.write(
                f'<path d="M {_svg_num(x - m)} {_svg_num(y - m)} L {_svg_num(x + m)} '
                f'{_svg_num(y + m)} M {_svg_num(x - m)} {_svg_num(y + m)} '
                f'L {_svg_num(x + m)} {_svg_num(y - m)}" '
                f'stroke="black" stroke-width="1.2" class="marker-minus"/>\n'
            )
    # id labels: top-N by outlyingness plus every misclassified point,
    # offset above-right (no collision layout; determinism wins).
    order = sorted(range(len(points)), key=lambda i: (-points[i].r, i))
    labeled = set(order[: max(style.label_top, 0)])
    labeled.update(i for i, p in enumerate(points) if p.misclassified)
    for i in sorted(labeled):
        p = points[i]
        x, y = px(p.f), py(p.r)
        out.write(
            f'<text x="{_svg_num(x + m + 1)}" y="{_svg_num(y - m - 1)}" font-size="10" '
            f'font-family="monospace">{_xml_escape(str(p.id))}</text>\n'
        )
    out.write("</svg>\n")
    return out.getvalue()


def emit_svg(points, style: MapStyle | None = None, destination="-") -> None:
    """Render and write the SVG map."""
    write_text(destination, map_to_svg(points, style))
