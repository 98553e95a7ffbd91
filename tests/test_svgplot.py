import re
import xml.etree.ElementTree as ET
from itertools import compress
from operator import ne

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendlet import svgplot

RECT = re.compile(r'<rect x="(\d+)" y="(\d+)" width="(\d+)" height="(\d+)" fill="(#[0-9a-f]{6})"/>')


def render(values, vmin=None, vmax=None):
    rows, cols = values.shape
    return svgplot.heatmap(
        values.tolist(), [f"r{i}" for i in range(rows)], [f"c{j}" for j in range(cols)],
        vmin=vmin, vmax=vmax,
    )


def expand(svg):
    """Cell colours rebuilt from the heatmap's rects, {(row, col): colour}, and the rect count."""
    rects = [tuple(map(int, r[:4])) + (r[4],) for r in RECT.findall(svg)]
    cell = rects[0][3]  # every rect is one cell high
    left = min(x for x, *_ in rects)
    top = min(y for _, y, *_ in rects)
    grid = {}
    for x, y, width, height, color in rects:
        assert height == cell and width % cell == 0 and width > 0
        i, j0 = (y - top) // cell, (x - left) // cell
        for j in range(j0, j0 + width // cell):
            assert (i, j) not in grid
            grid[(i, j)] = color
    return grid, len(rects)


def per_cell_colors(values, vmin=None, vmax=None):
    cells = values.tolist()
    lo = values.min() if vmin is None else vmin
    hi = values.max() if vmax is None else vmax
    return {
        (i, j): svgplot._heat_color((v - lo) / (hi - lo))
        for i, row in enumerate(cells)
        for j, v in enumerate(row)
    }


def n_runs(values):
    """Runs of equal values, counted row by row."""
    return int(values.shape[0] + (values[:, 1:] != values[:, :-1]).sum())


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


def test_block_matrix_draws_one_rect_per_run():
    values = block_matrix()
    _, count = expand(render(values, 0.0, 1.0))
    assert count == n_runs(values) == 4 * 2 + 3 * 3 + 5 * 2
    ties = np.random.default_rng(3).integers(0, 3, size=(9, 7)) / 2.0
    _, count = expand(render(ties))
    assert count == n_runs(ties)


def test_one_cell_run_is_a_plain_cell():
    svg = render(np.array([[0.0, 1.0]]), 0.0, 1.0)
    assert '<rect x="110" y="90" width="12" height="12" fill="#2850ff"/>' in svg
    assert '<rect x="122" y="90" width="12" height="12" fill="#ff5028"/>' in svg


@pytest.mark.parametrize("w", range(2, 16))
def test_counts_on_zero_to_w_scale_match_fractions_on_unit_scale(w):
    # stability draws pair counts with vmax=W: (c - 0.0) / (W - 0.0) is the division c / W
    counts = np.random.default_rng(w).integers(0, w + 1, size=(11, 11))
    assert render(counts, 0.0, float(w)) == render(counts / w, 0.0, 1.0)



def per_row_heatmap(values, row_labels, col_labels, title="", vmin=None, vmax=None):
    """The heatmap as drawn row by row, every row scanned and formatted on its own."""
    cell = svgplot._CELL
    rows = len(row_labels)
    cols = len(col_labels)
    lo = min(min(row[:cols]) for row in values[:rows]) if vmin is None else vmin
    hi = max(max(row[:cols]) for row in values[:rows]) if vmax is None else vmax
    if hi == lo:
        hi = lo + 1.0
    left, top = 110, 90
    width = left + cols * cell + 30
    height = top + rows * cell + 20
    parts = svgplot._svg_open(width, height, title)
    colors: dict = {}
    for i in range(rows):
        row = values[i][:cols]
        ends = [*compress(range(1, cols), map(ne, row[1:], row)), cols] if cols else []
        j = 0
        for end in ends:
            value = row[j]
            color = colors.get(value)
            if color is None:
                color = colors[value] = svgplot._heat_color((value - lo) / (hi - lo))
            parts.append(
                f'<rect x="{left + j * cell}" y="{top + i * cell}" width="{(end - j) * cell}" '
                f'height="{cell}" fill="{color}"/>'
            )
            j = end
    for i, label in enumerate(row_labels):
        parts.append(
            f'<text x="{left - 4}" y="{top + i * cell + cell - 3}" text-anchor="end" '
            f'font-size="{min(cell - 2, 10)}">{svgplot._esc(label)}</text>'
        )
    for j, label in enumerate(col_labels):
        x = left + j * cell + cell / 2.0
        parts.append(
            f'<text x="{x:.1f}" y="{top - 6}" font-size="{min(cell - 2, 10)}" '
            f'text-anchor="start" transform="rotate(-60 {x:.1f} {top - 6})">'
            f"{svgplot._esc(label)}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ints and floats that compare equal (1 and 1.0), and values that tie
CELL_VALUES = st.sampled_from([0, 1, 2, 1.0, 0.5, -1.5, 3, 2.0, 0.25])


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 5), st.integers(0, 9), st.integers(0, 2), st.integers(1, 12))
def test_heatmap_bytes_match_the_per_row_renderer(data, s, cols, extra, n):
    bounds = data.draw(st.sampled_from([(None, None), (0.0, 3.0), (-1.5, 1.0), (2.0, 2.0)]))
    if bounds[0] is None:
        cols = max(cols, 1)  # the scale of an empty matrix is undefined
    width = cols + extra  # cells past the last column are not drawn
    distinct = [data.draw(st.lists(CELL_VALUES, min_size=width, max_size=width)) for _ in range(s)]
    picks = data.draw(st.lists(st.integers(0, s - 1), min_size=n, max_size=n))
    copies = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    # repeats that are not adjacent, and equal rows that are distinct list objects
    values = [list(distinct[a]) if copy else distinct[a] for a, copy in zip(picks, copies)]
    rows = [f"r{i}" for i in range(n)]
    columns = [f"c{j}" for j in range(cols)]
    expected = per_row_heatmap(values, rows, columns, "t", *bounds)
    assert svgplot.heatmap(values, rows, columns, "t", *bounds) == expected


@pytest.mark.parametrize("bounds", [(None, None), (0.0, 15.0)])
def test_heatmap_of_repeated_count_rows_matches_the_per_row_renderer(bounds):
    rng = np.random.default_rng(7)
    table = rng.integers(0, 16, size=(6, 6))
    sigs = rng.integers(0, 6, size=50)
    row_lists = table[:, sigs].tolist()
    values = [row_lists[a] for a in sigs]
    ids = [f"shop{i:02d}" for i in range(50)]
    expected = per_row_heatmap(values, ids, ids, "co", *bounds)
    assert svgplot.heatmap(values, ids, ids, "co", *bounds) == expected
    assert svgplot.heatmap(table[sigs][:, sigs].tolist(), ids, ids, "co", *bounds) == expected
    # an array's rows are new objects on each access, which may reuse a freed row's id
    array = rng.integers(0, 16, size=(50, 50)) * (rng.random((50, 1)) < 0.5)
    assert svgplot.heatmap(array, ids, ids, "co", *bounds) == per_row_heatmap(array, ids, ids, "co", *bounds)


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
