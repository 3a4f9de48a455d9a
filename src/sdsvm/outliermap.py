"""Outlier map of a fit, as CSV or SVG text.

One point per training sample: decision value f on the x axis, Stahel-Donoho
outlyingness on the y axis.  Positive-label samples draw as circles, negative
ones as crosses, with a solid vertical line at f = 0.  A sample with infinite
outlyingness is clamped to the top margin with a distinct triangle marker.
No outlyingness cutoff line is drawn unless the caller supplies a threshold.
"""

from __future__ import annotations

import io
import math

from .errors import SerializationError
from .svm import sign_labels

CSV_HEADER = "id,label,f,outlyingness,trimmed,misclassified"


def _rows(fit) -> list:
    """(id, label, f, r, trimmed, misclassified) of each sample of a fit, in
    order; misclassified when the label is not sign(f), with sign(0) = +1."""
    wrong = sign_labels(fit.decision_values) != fit.labels
    columns = fit.labels.astype(int), fit.decision_values, fit.plan.outlyingness, fit.plan.trimmed, wrong
    return list(zip(fit.ids, *(column.tolist() for column in columns)))


def _splits_row(text: str) -> bool:
    return "," in text or '"' in text or len(f"{text}.".splitlines()) > 1


def map_to_csv(fit) -> str:
    """One row per sample, in sample order.  Floats print as the shortest
    round-trip repr; inf prints as 'inf'.  An id whose text holds a comma or
    a line break, which would split its row, or a double quote, which a CSV
    reader takes for quoting, raises SerializationError."""
    if _splits_row("".join(map(str, fit.ids))):
        bad = next(filter(_splits_row, map(str, fit.ids)))
        what = "a double quote" if '"' in bad else "a comma or a line break"
        raise SerializationError(f"id {bad!r} contains {what}")
    lines = [CSV_HEADER]
    lines.extend(
        f"{sid},{label},{f!r},{r!r},{str(cut).lower()},{str(wrong).lower()}"
        for sid, label, f, r, cut, wrong in _rows(fit)
    )
    return "\n".join(lines) + "\n"


def _xml_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def map_to_svg(fit, label_top: int = 5, threshold: float | None = None) -> str:
    """Self-contained SVG 1.1 text; byte-stable for fixed inputs.

    Ids are printed for the label_top most outlying samples and every
    misclassified one; a threshold adds a dashed horizontal line.
    """
    rows = _rows(fit)
    w, h, m = 640, 480, 4.0  # canvas size and marker radius
    ml, mr, mt, mb = 64, 20, 24, 48

    max_abs_f = max(abs(row[2]) for row in rows)
    x_max = 1.05 * max_abs_f if max_abs_f > 0 else 1.0
    max_r = max((row[3] for row in rows if math.isfinite(row[3])), default=0.0)
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
    for _, label, f, r, _, _ in rows:
        x, y = px(f), py(r)
        if math.isinf(r):
            out.write(
                f'<path d="M {x:.2f} {y - m:.2f} L {x - m:.2f} {y + m:.2f} '
                f'L {x + m:.2f} {y + m:.2f} Z" fill="black" class="marker-inf"/>\n'
            )
        elif label == 1:
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
    labeled = set(sorted(range(len(rows)), key=lambda i: -rows[i][3])[: max(label_top, 0)])
    labeled.update(i for i, row in enumerate(rows) if row[5])
    for i in sorted(labeled):
        sid, _, f, r, _, _ = rows[i]
        x, y = px(f), py(r)
        out.write(
            f'<text x="{x + m + 1:.2f}" y="{y - m - 1:.2f}" font-size="10" '
            f'font-family="monospace">{_xml_escape(str(sid))}</text>\n'
        )
    out.write("</svg>\n")
    return out.getvalue()

