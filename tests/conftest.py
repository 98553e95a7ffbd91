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
HEATMAP_PATH = re.compile(r'<path fill="(#[0-9a-f]{6})" d="([^"]*)"/>')
SUBPATH = re.compile(r"M(\d+) (\d+)h(\d+)v(\d+)h-(\d+)z")


def subpaths(svg):
    """The heatmap's rectangles, (x, y, width, height, colour), from its per-colour paths.

    Each colour has one path, and each path's data is a sequence of closed
    rectangles ``M{x} {y}h{w}v{h}h-{w}z``; anything else fails.
    """
    rects = []
    paths = HEATMAP_PATH.findall(svg)
    assert svg.count("<path") == len(paths), "a path outside the per-colour form"
    colors = [color for color, _ in paths]
    assert len(set(colors)) == len(colors), "a colour drawn in two paths"
    for color, d in paths:
        assert SUBPATH.sub("", d) == "", f"non-rectangle path data {d!r}"
        for x, y, width, height, back in SUBPATH.findall(d):
            assert width == back, f"subpath M{x} {y} does not close as a rectangle"
            rects.append((int(x), int(y), int(width), int(height), color))
    return rects


def expand(svg):
    """Cell colours rebuilt from the heatmap's paths, {(row, col): colour}, and the rectangle count.

    A rectangle may span several cells across and several rows down.  Each
    cell of the grid, sized by the row and column labels, is covered exactly
    once.
    """
    cell = svgplot._CELL
    root = ET.fromstring(svg)
    groups = {g.get("text-anchor"): len(g) for g in root.iter(f"{SVG}g")}
    rows, cols = groups["end"], groups["start"]  # row labels, column labels
    rects = subpaths(svg)
    grid = {}
    for x, y, width, height, color in rects:
        assert width > 0 and height > 0 and width % cell == 0 and height % cell == 0
        assert (x - LEFT) % cell == 0 and (y - TOP) % cell == 0
        i0, j0 = (y - TOP) // cell, (x - LEFT) // cell
        for i in range(i0, i0 + height // cell):
            for j in range(j0, j0 + width // cell):
                assert (i, j) not in grid, f"cell {(i, j)} drawn twice"
                grid[(i, j)] = color
    assert set(grid) == {(i, j) for i in range(rows) for j in range(cols)}, "cells left uncovered or outside"
    return grid, len(rects)
