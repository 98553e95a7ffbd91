import io
import tracemalloc

import numpy as np
import pytest

from trendlet import pipeline, preprocess


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
