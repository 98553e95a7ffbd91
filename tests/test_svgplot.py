import re

import numpy as np
import pytest

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

