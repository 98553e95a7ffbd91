"""Static SVG renderings: series lines, heatmaps, biplots.

No external assets, no timestamps; identical inputs produce identical
bytes.  Each writer draws its geometry in whole units of its own grid:
a line chart in tenths of a pixel, a heatmap in cells, biplot circle
centres at 0.1 px.  Every drawn point lies within 0.05 px of its exact
position, and text positions keep their fixed decimals.
"""

from __future__ import annotations

import math
import re
from itertools import compress
from operator import ne

import numpy as np

from .errors import InvalidInput, as_array

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
    """Line chart; ``series`` is a list of (label, values, color) tuples.

    Each series is one ``<path>`` drawn in tenths of a pixel under
    ``transform="scale(.1)"``: ``M{x} {y}`` at its first vertex, then
    ``l{dx} {dy} ...``, one integer step per further vertex, the numbers
    separated by a space or by a negative number's minus sign.  Vertex i of
    value v sits at ``round(10 * px(i)), round(10 * py(v))`` and each step
    is the difference of two such integers, so the steps never drift and
    every vertex lies within 0.05 px of ``(px(i), py(v))``.  A one-point
    series is a bare ``M``.  No series, an empty series or a non-finite
    value is InvalidInput.
    """
    if not series:
        raise InvalidInput("line chart has no series")
    arrays = [as_array(values, f"line chart series {label!r}", 1) for label, values, _ in series]
    for (label, _, _), arr in zip(series, arrays):
        if not arr.size:
            raise InvalidInput(f"line chart series {label!r} has no values")
    width, height = _LINE_SIZE
    left, right, top, bottom = 50, 150, 36, 24
    plot_w = width - left - right
    plot_h = height - top - bottom
    lo = min(float(arr.min()) for arr in arrays)
    hi = max(float(arr.max()) for arr in arrays)
    if hi == lo:
        hi = lo + 1.0
    n = max(arr.size for arr in arrays)
    # px(i) for every i, in tenths of a pixel
    xs = np.rint(10 * (left + (np.arange(n) / max(n - 1, 1)) * plot_w)).astype(np.int64)

    def py(v):
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
    for row, ((label, _, color), arr) in enumerate(zip(series, arrays)):
        ys = np.rint(10 * py(arr)).astype(np.int64)
        steps = np.diff(np.column_stack((xs[: arr.size], ys)), axis=0).ravel().tolist()
        d = f"M{xs[0]} {ys[0]}"
        if steps:
            # a step's minus sign also separates it from the number before
            d += "l" + " ".join(map(str, steps)).replace(" -", "-")
        parts.append(
            f'<path d="{d}" transform="scale(.1)" fill="none" stroke="{color}" stroke-width="12"/>'
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
    row.  The colour paths sit in one ``<g transform="translate(110 90)
    scale(12)">`` and are drawn in cells: each rectangle is a subpath
    ``M{j} {i}h{w}v{h}h-{w}z`` of the one ``<path>`` of its colour, with
    column ``j``, row ``i``, width and height counted in cells, and the
    paths follow the first appearance of their colours.  Cells never
    overlap and every coordinate is an integer, so each cell keeps its
    colour.  Row labels and column labels are each one ``<g>`` holding
    their shared anchor and font size.

    A non-finite cell, or no cell at all when ``vmin`` or ``vmax`` is to be
    taken from the values, is InvalidInput.
    """
    cell = _CELL
    rows = len(row_labels)
    cols = len(col_labels)
    if (vmin is None or vmax is None) and not (rows and cols):
        raise InvalidInput(f"heatmap of {rows} x {cols} cells has no values to scale")
    lo = min(min(row[:cols]) for row in values[:rows]) if vmin is None else vmin
    hi = max(max(row[:cols]) for row in values[:rows]) if vmax is None else vmax
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidInput(f"heatmap colour scale must be finite, got {lo!r} to {hi!r}")
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
        if not all(map(math.isfinite, row)):
            raise InvalidInput(f"heatmap row {row_labels[start]!r} contains non-finite values")
        key = tuple(row)
        # the block runs on while a row is its first row again or has its values
        stop = start + 1
        while stop < rows and (values[stop] is first or tuple(values[stop][:cols]) == key):
            stop += 1
        h = stop - start
        # a run ends where a cell differs from its right neighbour
        ends = [*compress(range(1, cols), map(ne, row[1:], row)), cols] if cols else []
        j = 0
        for end in ends:
            w = end - j
            paths.setdefault(_heat_color((row[j] - lo) / (hi - lo)), []).append(
                f"M{j} {start}h{w}v{h}h-{w}z"
            )
            j = end
        start = stop
    parts.append(f'<g transform="translate({left} {top}) scale({cell})">')
    parts += [f'<path fill="{color}" d="{"".join(d)}"/>' for color, d in paths.items()]
    parts.append("</g>")
    font = min(cell - 2, 10)
    parts.append(f'<g text-anchor="end" font-size="{font}">')
    for i, label in enumerate(row_labels):
        parts.append(f'<text x="{left - 4}" y="{top + i * cell + cell - 3}">{_esc(label)}</text>')
    parts += ["</g>", f'<g text-anchor="start" font-size="{font}">']
    for j, label in enumerate(col_labels):
        x = left + j * cell + cell // 2
        parts.append(
            f'<text x="{x}" y="{top - 6}" transform="rotate(-60 {x} {top - 6})">{_esc(label)}</text>'
        )
    parts.append("</g>")
    return _svg_close(parts)


def biplot(score_rows, loading_rows, title: str = "") -> str:
    """Observation scatter plus feature arrows on the PC1/PC2 plane.

    ``score_rows`` are (id, pc1, pc2, label); ``loading_rows`` are
    (name, pc1, pc2).  Arrows are scaled to stay readable next to the
    score cloud.  Circle centres are written at 0.1 px.  Each label's
    circles are one ``<g>`` stating its ``fill`` and ``fill-opacity``
    once; the groups follow each label's first row, and a group keeps the
    order of ``score_rows``.  No score or loading row, or a non-finite
    coordinate, is InvalidInput.
    """
    for what, rows in (("score", score_rows), ("loading", loading_rows)):
        if not rows:
            raise InvalidInput(f"biplot has no {what} rows")
        for r in rows:
            if not (math.isfinite(r[1]) and math.isfinite(r[2])):
                raise InvalidInput(f"biplot {what} row {r[0]!r} has a non-finite coordinate")
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
    circles: dict[str, list[str]] = {}  # label -> its circles, in first-appearance order
    for ent, x, y, label in score_rows:
        circle = f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="4"><title>{_esc(ent)}</title></circle>'
        circles.setdefault(label, []).append(circle)
    for label, group in circles.items():
        parts += [f'<g fill="{color_of[label]}" fill-opacity="0.8">', *group, "</g>"]
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
