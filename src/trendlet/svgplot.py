"""Static SVG renderings: series lines, heatmaps, biplots.

No external assets, no timestamps; identical inputs produce identical
bytes.  Numbers are written with fixed decimals to keep files stable.
"""

from __future__ import annotations

import math
import re
from itertools import compress
from operator import ne

__all__ = ["line_chart", "heatmap", "biplot", "write_svg"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
           "#8c564b", "#17becf", "#bcbd22", "#7f7f7f", "#e377c2")

_LINE_SIZE = (900, 360)  # line chart width, height
_BIPLOT_SIZE = (720, 720)
_CELL = 12  # heatmap cell side


# characters outside XML 1.0's Char production, which no escape can write
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _esc(text: str) -> str:
    """``text`` as XML character data: markup escaped, non-characters as U+FFFD."""
    return (
        _NOT_XML_CHAR.sub("\ufffd", str(text))
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _svg_open(width: int, height: int, title: str) -> list[str]:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">',
        '<rect width="100%" height="100%" fill="#ffffff"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14">'
            f"{_esc(title)}</text>"
        )
    return parts


def _svg_close(parts: list[str]) -> str:
    """``parts`` and the closing tag joined into a document, one per line, ending in a newline."""
    # the empty last part gives the final newline; adding one to the joined
    # document would copy it once more
    parts += ["</svg>", ""]
    return "\n".join(parts)


def color_for(index: int) -> str:
    return _COLORS[index % len(_COLORS)]


def line_chart(series, title: str = "") -> str:
    """Polyline chart; ``series`` is a list of (label, values, color) tuples."""
    width, height = _LINE_SIZE
    left, right, top, bottom = 50, 150, 36, 24
    plot_w = width - left - right
    plot_h = height - top - bottom
    all_vals = [v for _, values, _ in series for v in values]
    lo, hi = min(all_vals), max(all_vals)
    if hi == lo:
        hi = lo + 1.0
    n = max(len(values) for _, values, _ in series)

    def px(i: int) -> float:
        return left + (i / max(n - 1, 1)) * plot_w

    def py(v: float) -> float:
        return top + (1.0 - (v - lo) / (hi - lo)) * plot_h

    parts = _svg_open(width, height, title)
    parts.append(
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" '
        'stroke="#000" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" '
        'stroke="#000" stroke-width="1"/>'
    )
    for tick in (lo, (lo + hi) / 2.0, hi):
        y = py(tick)
        parts.append(
            f'<text x="{left - 6}" y="{y + 4:.1f}" text-anchor="end" font-size="10">'
            f"{tick:.3g}</text>"
        )
    for row, (label, values, color) in enumerate(series):
        pts = " ".join(f"{px(i):.2f},{py(v):.2f}" for i, v in enumerate(values))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>'
        )
        ly = top + 14 * row
        parts.append(
            f'<line x1="{left + plot_w + 8}" y1="{ly + 6}" x2="{left + plot_w + 28}" '
            f'y2="{ly + 6}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{left + plot_w + 32}" y="{ly + 10}" font-size="10">{_esc(label)}</text>'
        )
    return _svg_close(parts)


_HEX = tuple(f"{i:02x}" for i in range(256))  # a colour channel's two hex digits


def _heat_color(x: float) -> str:
    """Map [0, 1] to a blue -> white -> red ramp, clamping values outside it."""
    if x < 0.0:
        x = 0.0
    elif x > 1.0:
        x = 1.0
    if x < 0.5:
        f = x / 0.5
        return f"#{_HEX[int(40 + 215 * f)]}{_HEX[int(80 + 175 * f)]}ff"
    f = (x - 0.5) / 0.5
    return f"#ff{_HEX[int(255 - 175 * f)]}{_HEX[int(255 - 215 * f)]}"


def heatmap(
    values,
    row_labels,
    col_labels,
    title: str = "",
    vmin: float | None = None,
    vmax: float | None = None,
) -> str:
    """Rectangular heatmap with a fixed blue-white-red ramp.

    Each run of equal values in a row is one rectangle as wide as the run;
    a run of one cell is the plain cell.  A block of consecutive rows with
    equal values (or one row object listed again) is drawn once, with
    rectangles as tall as the block; a block of one row draws the plain
    row.  Each rectangle is a subpath ``M{x} {y}h{w}v{h}h-{w}z`` of the one
    ``<path>`` of its colour, and the paths follow the first appearance of
    their colours.  Cells never overlap and every coordinate is an integer,
    so each cell keeps its colour.  Row labels and column labels are each
    one ``<g>`` holding their shared anchor and font size.
    """
    cell = _CELL
    rows = len(row_labels)
    cols = len(col_labels)
    lo = min(min(row[:cols]) for row in values[:rows]) if vmin is None else vmin
    hi = max(max(row[:cols]) for row in values[:rows]) if vmax is None else vmax
    if hi == lo:
        hi = lo + 1.0
    left, top = 110, 90
    width = left + cols * cell + 30
    height = top + rows * cell + 20
    parts = _svg_open(width, height, title)
    paths: dict[str, list[str]] = {}  # colour -> subpaths, in first-appearance order
    start = 0
    while start < rows:
        first = values[start]
        row = first[:cols]
        key = tuple(row)
        # the block runs on while a row is its first row again or has its values
        stop = start + 1
        while stop < rows and (values[stop] is first or tuple(values[stop][:cols]) == key):
            stop += 1
        y, h = top + start * cell, (stop - start) * cell
        # a run ends where a cell differs from its right neighbour
        ends = [*compress(range(1, cols), map(ne, row[1:], row)), cols] if cols else []
        j = 0
        for end in ends:
            w = (end - j) * cell
            paths.setdefault(_heat_color((row[j] - lo) / (hi - lo)), []).append(
                f"M{left + j * cell} {y}h{w}v{h}h-{w}z"
            )
            j = end
        start = stop
    parts += [f'<path fill="{color}" d="{"".join(d)}"/>' for color, d in paths.items()]
    font = min(cell - 2, 10)
    parts.append(f'<g text-anchor="end" font-size="{font}">')
    for i, label in enumerate(row_labels):
        parts.append(f'<text x="{left - 4}" y="{top + i * cell + cell - 3}">{_esc(label)}</text>')
    parts += ["</g>", f'<g text-anchor="start" font-size="{font}">']
    for j, label in enumerate(col_labels):
        x = left + j * cell + cell / 2.0
        parts.append(
            f'<text x="{x:.1f}" y="{top - 6}" transform="rotate(-60 {x:.1f} {top - 6})">'
            f"{_esc(label)}</text>"
        )
    parts.append("</g>")
    return _svg_close(parts)


def biplot(score_rows, loading_rows, title: str = "") -> str:
    """Observation scatter plus feature arrows on the PC1/PC2 plane.

    ``score_rows`` are (id, pc1, pc2, label); ``loading_rows`` are
    (name, pc1, pc2).  Arrows are scaled to stay readable next to the
    score cloud.
    """
    width, height = _BIPLOT_SIZE
    left = right = top = bottom = 60
    plot_w = width - left - right
    plot_h = height - top - bottom
    xs = [r[1] for r in score_rows]
    ys = [r[2] for r in score_rows]
    span = max(max(abs(v) for v in xs), max(abs(v) for v in ys), 1e-12) * 1.1
    arrow_span = max(
        max(abs(r[1]) for r in loading_rows), max(abs(r[2]) for r in loading_rows), 1e-12
    )
    arrow_scale = 0.8 * span / arrow_span

    def px(v: float) -> float:
        return left + (v / span + 1.0) / 2.0 * plot_w

    def py(v: float) -> float:
        return top + (1.0 - (v / span + 1.0) / 2.0) * plot_h

    parts = _svg_open(width, height, title)
    parts.append(
        f'<line x1="{px(-span):.1f}" y1="{py(0):.1f}" x2="{px(span):.1f}" y2="{py(0):.1f}" '
        'stroke="#cccccc" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{px(0):.1f}" y1="{py(-span):.1f}" x2="{px(0):.1f}" y2="{py(span):.1f}" '
        'stroke="#cccccc" stroke-width="1"/>'
    )
    label_names = sorted({r[3] for r in score_rows})
    color_of = {name: color_for(i) for i, name in enumerate(label_names)}
    for ent, x, y, label in score_rows:
        parts.append(
            f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="4" fill="{color_of[label]}" '
            f'fill-opacity="0.8"><title>{_esc(ent)}</title></circle>'
        )
    for name, lx, ly in loading_rows:
        tip_x, tip_y = lx * arrow_scale, ly * arrow_scale
        parts.append(
            f'<line x1="{px(0):.2f}" y1="{py(0):.2f}" x2="{px(tip_x):.2f}" '
            f'y2="{py(tip_y):.2f}" stroke="#555555" stroke-width="1"/>'
        )
        norm = math.hypot(tip_x, tip_y)
        if norm > 0:
            parts.append(
                f'<text x="{px(tip_x * 1.06):.2f}" y="{py(tip_y * 1.06):.2f}" '
                f'font-size="9" fill="#333333">{_esc(name)}</text>'
            )
    for i, name in enumerate(label_names):
        ly = top + 14 * i
        parts.append(f'<circle cx="{left + plot_w - 90}" cy="{ly}" r="4" fill="{color_of[name]}"/>')
        parts.append(f'<text x="{left + plot_w - 82}" y="{ly + 4}" font-size="10">{_esc(name)}</text>')
    return _svg_close(parts)


def write_svg(path, content: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(content)
