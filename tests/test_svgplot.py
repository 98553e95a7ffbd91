import re
import xml.etree.ElementTree as ET
from itertools import compress
from operator import ne

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trendlet import errors, svgplot

from conftest import CELL_GROUP, HEATMAP_PATH, LEFT, SVG, TOP, expand


def render(values, vmin=None, vmax=None):
    rows, cols = values.shape
    return svgplot.heatmap(
        values.tolist(), [f"r{i}" for i in range(rows)], [f"c{j}" for j in range(cols)],
        vmin=vmin, vmax=vmax,
    )


def per_cell_colors(values, vmin=None, vmax=None):
    cells = values.tolist()
    lo = values.min() if vmin is None else vmin
    hi = values.max() if vmax is None else vmax
    if hi == lo:
        hi = lo + 1.0
    return {
        (i, j): svgplot._heat_color((v - lo) / (hi - lo))
        for i, row in enumerate(cells)
        for j, v in enumerate(row)
    }


def n_runs(values):
    """Runs of equal values, counted row by row."""
    return int(values.shape[0] + (values[:, 1:] != values[:, :-1]).sum())


def n_block_runs(values):
    """Runs of equal values in the row of each block of equal adjacent rows, counted once per block."""
    if values.size == 0:
        return 0
    firsts = np.r_[True, (values[1:] != values[:-1]).any(axis=1)]
    return n_runs(values[firsts])


def block_matrix(sizes=(4, 3, 5)):
    """Co-occurrence of clusters of the given sizes: 1 inside a block, 0 outside."""
    labels = np.repeat(np.arange(len(sizes)), sizes)
    return (labels[:, None] == labels[None, :]).astype(float)


@pytest.mark.parametrize("vmin, vmax", [(None, None), (0.0, 1.0)])
def test_block_matrix_cells_keep_their_colours(vmin, vmax):
    values = block_matrix()
    values[0, 5] = values[5, 0] = 0.5
    grid, _ = expand(render(values, vmin, vmax))
    assert grid == per_cell_colors(values, vmin, vmax)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_values_cells_keep_their_colours(seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((9, 7))
    grid, count = expand(render(values))
    assert grid == per_cell_colors(values)
    assert count == values.size  # no two neighbours are equal
    ties = rng.integers(0, 3, size=(9, 7)) / 2.0
    grid, _ = expand(render(ties))
    assert grid == per_cell_colors(ties)


def test_block_matrix_draws_one_rect_per_run_per_block():
    values = block_matrix()
    _, count = expand(render(values, 0.0, 1.0))
    assert count == n_block_runs(values) == 2 + 3 + 2
    values[0, 5] = values[5, 0] = 0.5  # row 0 leaves its block, row 5 splits the middle one
    _, count = expand(render(values, 0.0, 1.0))
    assert count == n_block_runs(values) == 4 + 2 + 3 + 4 + 3 + 2
    ties = np.random.default_rng(3).integers(0, 2, size=(40, 3)) / 2.0
    _, count = expand(render(ties))
    assert count == n_block_runs(ties) < n_runs(ties)  # some blocks are taller than one row


def test_equal_adjacent_rows_draw_tall_rects():
    svg = render(np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [1.0, 1.0]]), 0.0, 1.0)
    assert '<path fill="#2850ff" d="M0 0h1v3h-1z"/>' in svg
    assert '<path fill="#ff5028" d="M1 0h1v3h-1zM0 3h2v1h-2z"/>' in svg
    assert len(HEATMAP_PATH.findall(svg)) == 2


def test_expand_rejects_overlaps_and_gaps():
    svg = render(np.array([[0.0, 1.0], [0.0, 1.0]]), 0.0, 1.0)
    grid, count = expand(svg)
    assert count == 2 and len(grid) == 4
    first = "M0 0h1v2h-1z"
    assert f'd="{first}"' in svg
    with pytest.raises(AssertionError, match="drawn twice"):
        expand(svg.replace(first, first + first))
    with pytest.raises(AssertionError, match="uncovered"):
        expand(svg.replace(first, "M0 0h1v1h-1z"))
    with pytest.raises(AssertionError, match="non-rectangle"):
        expand(svg.replace(first, first + "l5 5"))
    with pytest.raises(AssertionError, match="does not close"):
        expand(svg.replace(first, "M0 0h1v2h-2z"))
    with pytest.raises(AssertionError, match="two paths"):
        expand(svg.replace(first, "M0 1h1v1h-1z").replace(
            "<path", '<path fill="#2850ff" d="M0 0h1v1h-1z"/>\n<path', 1))
    with pytest.raises(AssertionError, match="outside the per-colour form"):
        expand(svg.replace(f'd="{first}"', f'd="{first}" stroke="#000"'))
    # cells in pixels, or a group that maps them elsewhere, are not the heatmap's cells
    with pytest.raises(AssertionError, match="not one cell group"):
        expand(svg.replace(" scale(12)", ""))
    with pytest.raises(AssertionError, match="not one cell group"):
        expand(svg.replace(CELL_GROUP, CELL_GROUP.replace("(110 90)", "(110 78)")))
    with pytest.raises(AssertionError, match="outside the cell group"):
        expand(svg.replace("</svg>", '<path fill="#2850ff" d="M0 0h1v1h-1z"/>\n</svg>'))


def test_one_cell_run_is_a_plain_cell():
    svg = render(np.array([[0.0, 1.0]]), 0.0, 1.0)
    assert '<path fill="#2850ff" d="M0 0h1v1h-1z"/>' in svg
    assert '<path fill="#ff5028" d="M1 0h1v1h-1z"/>' in svg


def test_labels_share_their_anchor_and_size_in_one_group():
    svg = svgplot.heatmap([[0.0, 1.0]], ["r0"], ["c0", "c1"])
    assert '<g text-anchor="end" font-size="10">\n<text x="106" y="99">r0</text>\n</g>' in svg
    assert ('<g text-anchor="start" font-size="10">\n'
            '<text x="116" y="84" transform="rotate(-60 116 84)">c0</text>\n'
            '<text x="128" y="84" transform="rotate(-60 128 84)">c1</text>\n</g>') in svg


def ramp_color(x):
    """The blue -> white -> red ramp as the plain formula: clamp, interpolate, format."""
    x = min(max(x, 0.0), 1.0)
    if x < 0.5:
        f = x / 0.5
        r, g, b = int(40 + 215 * f), int(80 + 175 * f), 255
    else:
        f = (x - 0.5) / 0.5
        r, g, b = 255, int(255 - 175 * f), int(255 - 215 * f)
    return f"#{r:02x}{g:02x}{b:02x}"


def test_heat_color_is_the_plain_ramp():
    edges = [0.0, -0.0, 0.5, 1.0, np.nextafter(0.5, 0.0), np.nextafter(1.0, 0.0), 5e-324, -5e-324,
             -1.0, 2.0, float("inf"), float("-inf")]
    xs = edges + [i / 4096 for i in range(4097)] + np.random.default_rng(0).uniform(-0.1, 1.1, 20000).tolist()
    assert [svgplot._heat_color(float(x)) for x in xs] == [ramp_color(float(x)) for x in xs]


@pytest.mark.parametrize("w", range(2, 16))
def test_counts_on_zero_to_w_scale_match_fractions_on_unit_scale(w):
    # stability draws pair counts with vmax=W: (c - 0.0) / (W - 0.0) is the division c / W
    counts = np.random.default_rng(w).integers(0, w + 1, size=(11, 11))
    assert render(counts, 0.0, float(w)) == render(counts / w, 0.0, 1.0)



def reference_heatmap(values, row_labels, col_labels, title="", vmin=None, vmax=None, *, merge_rows=True):
    """The heatmap as drawn block by block, every block scanned and formatted on its own.

    A block is a run of consecutive rows with equal values, drawn with
    rectangles as tall as the block; without ``merge_rows`` every row is its
    own block.  Each rectangle joins the path of its colour, in cells, inside
    the group that maps cells to pixels.
    """
    cell = svgplot._CELL
    rows = len(row_labels)
    cols = len(col_labels)
    lo = min(min(row[:cols]) for row in values[:rows]) if vmin is None else vmin
    hi = max(max(row[:cols]) for row in values[:rows]) if vmax is None else vmax
    if hi == lo:
        hi = lo + 1.0
    left, top = LEFT, TOP
    width = left + cols * cell + 30
    height = top + rows * cell + 20
    parts = svgplot._svg_open(width, height, title)
    colors: dict = {}
    paths: dict = {}
    i = 0
    while i < rows:
        row = values[i][:cols]
        n = 1
        while merge_rows and i + n < rows and tuple(values[i + n][:cols]) == tuple(row):
            n += 1
        ends = [*compress(range(1, cols), map(ne, row[1:], row)), cols] if cols else []
        j = 0
        for end in ends:
            value = row[j]
            color = colors.get(value)
            if color is None:
                color = colors[value] = svgplot._heat_color((value - lo) / (hi - lo))
            w = end - j
            paths[color] = paths.get(color, "") + f"M{j} {i}h{w}v{n}h-{w}z"
            j = end
        i += n
    parts.append(f'<g transform="translate({left} {top}) scale({cell})">')
    for color, d in paths.items():
        parts.append(f'<path fill="{color}" d="{d}"/>')
    parts.append("</g>")
    parts.append(f'<g text-anchor="end" font-size="{min(cell - 2, 10)}">')
    for i, label in enumerate(row_labels):
        parts.append(f'<text x="{left - 4}" y="{top + i * cell + cell - 3}">{svgplot._esc(label)}</text>')
    parts.append("</g>")
    parts.append(f'<g text-anchor="start" font-size="{min(cell - 2, 10)}">')
    for j, label in enumerate(col_labels):
        x = left + j * cell + cell // 2
        parts.append(
            f'<text x="{x}" y="{top - 6}" transform="rotate(-60 {x} {top - 6})">'
            f"{svgplot._esc(label)}</text>"
        )
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ints and floats that compare equal (1 and 1.0), and values that tie
CELL_VALUES = st.sampled_from([0, 1, 2, 1.0, 0.5, -1.5, 3, 2.0, 0.25])


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 5), st.integers(0, 9), st.integers(0, 2), st.integers(1, 12))
def test_heatmap_bytes_match_the_block_renderer(data, s, cols, extra, n):
    bounds = data.draw(st.sampled_from([(None, None), (0.0, 3.0), (-1.5, 1.0), (2.0, 2.0)]))
    if bounds[0] is None:
        cols = max(cols, 1)  # the scale of an empty matrix is undefined
    width = cols + extra  # cells past the last column are not drawn
    distinct = [data.draw(st.lists(CELL_VALUES, min_size=width, max_size=width)) for _ in range(s)]
    picks = data.draw(st.lists(st.integers(0, s - 1), min_size=n, max_size=n))
    copies = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    # repeats adjacent or not, and equal rows that are distinct list objects
    values = [list(distinct[a]) if copy else distinct[a] for a, copy in zip(picks, copies)]
    rows = [f"r{i}" for i in range(n)]
    columns = [f"c{j}" for j in range(cols)]
    svg = svgplot.heatmap(values, rows, columns, "t", *bounds)
    assert svg == reference_heatmap(values, rows, columns, "t", *bounds)
    cells = np.array([row[:cols] for row in values], dtype=float).reshape(n, cols)
    if not (cells[1:] == cells[:-1]).all(axis=1).any():
        assert svg == reference_heatmap(values, rows, columns, "t", *bounds, merge_rows=False)
    grid, count = expand(svg)
    assert grid == per_cell_colors(cells, *bounds)
    assert count == n_block_runs(cells)


@pytest.mark.parametrize("bounds", [(None, None), (0.0, 15.0)])
def test_heatmap_of_repeated_count_rows_matches_the_block_renderer(bounds):
    rng = np.random.default_rng(7)
    table = rng.integers(0, 16, size=(6, 6))
    sigs = np.sort(rng.integers(0, 6, size=50))  # signatures in blocks, as a clustering orders them
    sigs[[3, 30]] = sigs[[30, 3]]  # and two rows out of their block
    row_lists = table[:, sigs].tolist()
    values = [row_lists[a] for a in sigs]
    ids = [f"shop{i:02d}" for i in range(50)]
    expected = reference_heatmap(values, ids, ids, "co", *bounds)
    assert svgplot.heatmap(values, ids, ids, "co", *bounds) == expected
    matrix = table[sigs][:, sigs]
    assert svgplot.heatmap(matrix.tolist(), ids, ids, "co", *bounds) == expected
    grid, count = expand(expected)
    assert grid == per_cell_colors(matrix, *bounds)
    assert count == n_block_runs(matrix) < n_runs(matrix)
    # an array's rows are new objects on each access, which may reuse a freed row's id
    array = rng.integers(0, 16, size=(50, 50)) * (rng.random((50, 1)) < 0.5)
    assert svgplot.heatmap(array, ids, ids, "co", *bounds) == reference_heatmap(array, ids, ids, "co", *bounds)


def markup_escape(text):
    """The escaping of markup alone, as for names that are valid XML text."""
    return (
        str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
    )


@pytest.mark.parametrize(
    "text",
    ["shop01", 'a,b "q"', "x\ty", "line\nbreak\r", "s<&>'", "caf\u00e9 \u2603 \U0001f600", "\ud7ff\ue000\ufffd"],
)
def test_valid_names_keep_their_escaping(text):
    assert svgplot._esc(text) == markup_escape(text)


@pytest.mark.parametrize(
    "char", ["\x00", "\x07", "\x08", "\x0b", "\x0c", "\x0e", "\x1f", "\ud800", "\udfff", "\ufffe", "\uffff"]
)
def test_characters_outside_xml_become_replacement_characters(char):
    assert svgplot._esc(f"a{char}<b") == "a\ufffd&lt;b"
    svg = svgplot.heatmap([[0.0]], [f"row{char}"], [f"col{char}"], title=f"t{char}")
    ET.fromstring(svg.encode("utf-8"))  # no surrogate is left to encode


def test_line_chart_of_a_constant_series_spans_one_unit():
    # a flat series has no range to scale by, so the axis runs from its value to one above
    svg = svgplot.line_chart([("flat", [2.0, 2.0, 2.0], "#000000")])
    ticks = re.findall(r'text-anchor="end" font-size="10">([^<]*)</text>', svg)
    assert ticks == ["2", "2.5", "3"]
    assert '<path d="M500 3360l3500 0 3500 0" transform="scale(.1)"' in svg  # on the bottom axis
    assert chart_vertices(svg) == [[(50.0, 336.0), (400.0, 336.0), (750.0, 336.0)]]


LINE_PATH = re.compile(
    r'<path d="M(\d+) (\d+)(?:l([^"]*))?" transform="scale\(\.1\)" fill="none" '
    r'stroke="#[0-9a-f]{3,6}" stroke-width="12"/>'
)
# integers, each after a space or starting with its own minus sign
STEPS = re.compile(r"-?\d+(?:(?: |(?=-))-?\d+)*")


def chart_vertices(svg):
    """Each series' vertices in pixels, decoded from its path: an absolute start, then integer steps, in 0.1 px."""
    assert svg.count("<path") == len(LINE_PATH.findall(svg)), "a path outside the line form"
    series = []
    for x, y, steps in LINE_PATH.findall(svg):
        x, y = int(x), int(y)
        vertices = [(x, y)]
        if steps:
            assert STEPS.fullmatch(steps), f"bad step list {steps!r}"
            numbers = [int(v) for v in re.findall(r"-?\d+", steps)]
            assert len(numbers) % 2 == 0
            for dx, dy in zip(numbers[::2], numbers[1::2]):
                x, y = x + dx, y + dy
                vertices.append((x, y))
        series.append([(vx / 10, vy / 10) for vx, vy in vertices])
    return series


def exact_vertices(series):
    """The chart's mapping of every value, as the plain formula: index to x, value to y."""
    left, top, plot_w, plot_h = 50, 36, 700, 300
    values = [v for _, vals, _ in series for v in vals]
    lo, hi = min(values), max(values)
    if hi == lo:
        hi = lo + 1.0
    n = max(len(vals) for _, vals, _ in series)
    return [
        [(left + (i / max(n - 1, 1)) * plot_w, top + (1.0 - (v - lo) / (hi - lo)) * plot_h)
         for i, v in enumerate(vals)]
        for _, vals, _ in series
    ]


FINITE = st.floats(-1e6, 1e6, allow_nan=False)
SERIES = st.one_of(
    st.lists(FINITE, min_size=1, max_size=60),
    st.builds(lambda v, n: [v] * n, FINITE, st.integers(1, 60)),  # constant
    st.builds(lambda v: [v], FINITE),  # one point
)


def reconstruct_like(seed):
    """reconstruct's chart: an 846-day series and a smoothing of it, long enough to show drifting steps."""
    walk = np.cumsum(np.random.default_rng(seed).standard_normal(846))
    return [walk.tolist(), np.convolve(walk, np.ones(9) / 9, mode="same").tolist()]


@settings(max_examples=200, deadline=None)
@given(st.lists(SERIES, min_size=1, max_size=3))
@example(reconstruct_like(0))
@example(reconstruct_like(1))
def test_line_chart_vertices_lie_within_a_twentieth_px(values):
    series = [(f"s{i}", v, svgplot.color_for(i)) for i, v in enumerate(values)]
    svg = svgplot.line_chart(series)
    ET.fromstring(svg)
    decoded = chart_vertices(svg)
    exact = exact_vertices(series)
    assert [len(s) for s in decoded] == [len(s) for s in exact]
    for got, want in zip(decoded, exact):
        for (gx, gy), (wx, wy) in zip(got, want):
            # a rounding tie lands exactly 0.05 px away; allow the float error of computing it
            assert abs(gx - wx) <= 0.05 + 1e-9 and abs(gy - wy) <= 0.05 + 1e-9


def test_one_point_series_is_a_bare_moveto():
    svg = svgplot.line_chart([("one", [3.5], "#000000")])
    ET.fromstring(svg)
    assert '<path d="M500 3360" transform="scale(.1)"' in svg
    assert chart_vertices(svg) == [[(50.0, 336.0)]]


def test_biplot_circles_sit_within_a_twentieth_px_in_score_order():
    rng = np.random.default_rng(4)
    labels = ["b", "b", "a", "c", "c", "c", "a", "b"]
    scores = [(f"e<{i}>", *rng.standard_normal(2).tolist(), label) for i, label in enumerate(labels)]
    loadings = [("x", 0.6, 0.8), ("y", -0.8, 0.6)]
    root = ET.fromstring(svgplot.biplot(scores, loadings))
    span = max(abs(v) for _, x, y, _ in scores for v in (x, y)) * 1.1
    colors = {"a": svgplot.color_for(0), "b": svgplot.color_for(1), "c": svgplot.color_for(2)}
    groups = list(root.iter(f"{SVG}g"))
    assert [len(g) for g in groups] == [3, 2, 3]  # one group per label, b first: b, a, c
    circles = [(g, c) for g in groups for c in g]
    assert len(circles) == len(scores)
    # each group keeps score order: b's rows 0, 1, 7, then a's 2, 6, then c's 3, 4, 5
    for (g, circle), (ent, x, y, label) in zip(circles, [scores[i] for i in (0, 1, 7, 2, 6, 3, 4, 5)]):
        assert circle.tag == f"{SVG}circle" and circle.get("r") == "4"
        assert g.get("fill") == colors[label] and g.get("fill-opacity") == "0.8"
        assert circle.get("fill") is None and circle.find(f"{SVG}title").text == ent
        assert abs(float(circle.get("cx")) - (60 + (x / span + 1.0) / 2.0 * 600)) <= 0.05 + 1e-9
        assert abs(float(circle.get("cy")) - (60 + (1.0 - (y / span + 1.0) / 2.0) * 600)) <= 0.05 + 1e-9


def test_biplot_of_alternating_labels_draws_one_group_per_label():
    rng = np.random.default_rng(5)
    scores = [(f"e{i}", *rng.standard_normal(2).tolist(), "ab"[i % 2]) for i in range(40)]
    svg = svgplot.biplot(scores, [("x", 0.6, 0.8)])
    groups = list(ET.fromstring(svg).iter(f"{SVG}g"))
    assert [(g.get("fill"), len(g)) for g in groups] == [(svgplot.color_for(0), 20), (svgplot.color_for(1), 20)]
    span = max(abs(v) for _, x, y, _ in scores for v in (x, y)) * 1.1
    drawn = {c.find(f"{SVG}title").text: (float(c.get("cx")), float(c.get("cy"))) for g in groups for c in g}
    assert len(drawn) == len(scores)
    for ent, x, y, _ in scores:
        cx, cy = drawn[ent]
        assert abs(cx - (60 + (x / span + 1.0) / 2.0 * 600)) <= 0.05 + 1e-9
        assert abs(cy - (60 + (1.0 - (y / span + 1.0) / 2.0) * 600)) <= 0.05 + 1e-9


LOADINGS = [("x", 1.0, 0.0)]


@pytest.mark.parametrize(
    "draw, message",
    [
        (lambda: svgplot.line_chart([]), "line chart has no series"),
        (lambda: svgplot.line_chart([("a", [], "#000")]), "series 'a' has no values"),
        (lambda: svgplot.line_chart([("a", [1.0], "#000"), ("b", [], "#000")]), "series 'b' has no values"),
        (lambda: svgplot.line_chart([("a", [1.0, float("nan")], "#000")]), "series 'a' contains non-finite"),
        (lambda: svgplot.line_chart([("a", [1.0, float("inf")], "#000")]), "series 'a' contains non-finite"),
        (lambda: svgplot.heatmap([], [], []), "0 x 0 cells has no values to scale"),
        (lambda: svgplot.heatmap([[]], ["r"], []), "1 x 0 cells has no values to scale"),
        (lambda: svgplot.heatmap([[1.0]], ["r"], ["c"], vmax=float("inf")), "scale must be finite"),
        (lambda: svgplot.heatmap([[float("nan"), 1.0]], ["r"], ["c", "d"]), "scale must be finite"),
        (lambda: svgplot.heatmap([[0.0, 1.0], [1.0, float("nan")]], ["r", "s"], ["c", "d"]),
         "row 's' contains non-finite"),
        (lambda: svgplot.heatmap([[0.0, float("-inf")]], ["r"], ["c", "d"], 0.0, 1.0),
         "row 'r' contains non-finite"),
        (lambda: svgplot.biplot([], LOADINGS), "biplot has no score rows"),
        (lambda: svgplot.biplot([("e", 1.0, 0.0, "a")], []), "biplot has no loading rows"),
        (lambda: svgplot.biplot([("e", float("nan"), 0.0, "a")], LOADINGS), "score row 'e' has a non-finite"),
        (lambda: svgplot.biplot([("e", 1.0, 0.0, "a")], [("x", 0.0, float("inf"))]),
         "loading row 'x' has a non-finite"),
    ],
)
def test_degenerate_input_is_invalid_input_naming_it(draw, message):
    with pytest.raises(errors.InvalidInput, match=re.escape(message)):
        draw()


def test_empty_grid_with_a_given_scale_draws_no_cells():
    # the scale is given, so an empty grid needs no values
    svg = svgplot.heatmap([[]], ["r"], [], vmin=0.0, vmax=1.0)
    assert expand(svg) == ({}, 0)
