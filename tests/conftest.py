import io
import re
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from trendlet import pipeline, preprocess, svgplot


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_spec():
    # 384 days covers a full annual cycle, so all three archetypes are distinct
    return pipeline.SyntheticSpec(
        n_days=384, n_increasing=3, n_stagnating=3, n_seasonal=3, seed=5
    )


@pytest.fixture(scope="session")
def small_panel(small_spec):
    panel, planted = pipeline.generate_synthetic(small_spec)
    return panel, planted


@pytest.fixture(scope="session")
def small_normalized(small_panel):
    panel, planted = small_panel
    return preprocess.normalize(panel), planted


@pytest.fixture(scope="session")
def default_panel():
    """The full 60 x 846 synthetic panel used by the acceptance criteria."""
    spec = pipeline.SyntheticSpec()
    panel, planted = pipeline.generate_synthetic(spec)
    return preprocess.normalize(panel), planted, spec


def panel_from_csv(text: str) -> preprocess.TimeSeriesPanel:
    return preprocess.ingest_csv(io.StringIO(text))


def traced_peak(fn, *args):
    """(fn(*args), the peak bytes tracemalloc saw during the call); numpy's
    array buffers are traced, so the peak counts every array the call held."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


LEFT, TOP = 110, 90  # the heatmap's margins left of the first column and above the first row
SVG = "{http://www.w3.org/2000/svg}"
CELL_GROUP = f'<g transform="translate({LEFT} {TOP}) scale({svgplot._CELL})">'  # maps cells to pixels
HEATMAP_PATH = re.compile(r'<path fill="(#[0-9a-f]{6})" d="([^"]*)"/>')
SUBPATH = re.compile(r"M(\d+) (\d+)h(\d+)v(\d+)h-(\d+)z")


def subpaths(svg):
    """The heatmap's rectangles, (col, row, width, height, colour) in cells, from its per-colour paths.

    The paths are the lines of the one group that maps cells to pixels,
    ``translate(110 90) scale(12)``, and no path is drawn outside it.  Each
    colour has one path, and each path's data is a sequence of closed
    rectangles ``M{col} {row}h{w}v{h}h-{w}z``; anything else fails.
    """
    assert svg.count(CELL_GROUP) == 1, "not one cell group translate(110 90) scale(12)"
    lines = svg.split(CELL_GROUP + "\n", 1)[1].split("</g>\n", 1)[0].splitlines()
    paths = [HEATMAP_PATH.fullmatch(line) for line in lines]
    assert all(paths), "a path outside the per-colour form"
    assert svg.count("<path") == len(paths), "a path outside the cell group"
    colors = [path[1] for path in paths]
    assert len(set(colors)) == len(colors), "a colour drawn in two paths"
    rects = []
    for color, d in (path.groups() for path in paths):
        assert SUBPATH.sub("", d) == "", f"non-rectangle path data {d!r}"
        for col, row, width, height, back in SUBPATH.findall(d):
            assert width == back, f"subpath M{col} {row} does not close as a rectangle"
            rects.append((int(col), int(row), int(width), int(height), color))
    return rects


def expand(svg):
    """Cell colours rebuilt from the heatmap's paths, {(row, col): colour}, and the rectangle count.

    A rectangle may span several cells across and several rows down.  Each
    cell of the grid, sized by the row and column labels, is covered exactly
    once.
    """
    root = ET.fromstring(svg)
    groups = {g.get("text-anchor"): len(g) for g in root.iter(f"{SVG}g")}
    rows, cols = groups["end"], groups["start"]  # row labels, column labels
    rects = subpaths(svg)
    grid = {}
    for j0, i0, width, height, color in rects:
        assert width > 0 and height > 0
        for i in range(i0, i0 + height):
            for j in range(j0, j0 + width):
                assert (i, j) not in grid, f"cell {(i, j)} drawn twice"
                grid[(i, j)] = color
    assert set(grid) == {(i, j) for i in range(rows) for j in range(cols)}, "cells left uncovered or outside"
    return grid, len(rects)
