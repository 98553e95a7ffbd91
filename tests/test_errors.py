import datetime as dt
import warnings

import numpy as np
import pytest

from trendlet import dwt
from trendlet.errors import InvalidInput, as_array
from trendlet.filterbank import WaveletFilter
from trendlet.kmeans import inertia_history, kmeans_fit, kmeanspp_seed, lloyd
from trendlet.pca import pca_fit
from trendlet.pipeline import SyntheticSpec
from trendlet.preprocess import TimeSeriesPanel

POINTS = np.arange(12.0).reshape(6, 2)
INIT = POINTS[:2]
DATES = tuple(dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(3))

# (entry point, the name its messages give the argument, a good value of the argument)
ARRAY_ARGUMENTS = {
    "decompose": (lambda v: dwt.decompose(v, "haar"), "series", np.ones(16)),
    "analyze_level": (lambda v: dwt.analyze_level(v, "haar"), "series", np.ones(16)),
    "coarse_features": (lambda v: dwt.coarse_features(v, "haar"), "values", np.ones((3, 16))),
    "kmeans_fit": (lambda v: kmeans_fit(v, 2), "points", POINTS),
    "kmeanspp_seed": (lambda v: kmeanspp_seed(v, 2, np.random.default_rng(0)), "points", POINTS),
    "lloyd-points": (lambda v: lloyd(v, INIT), "points", POINTS),
    "lloyd-init": (lambda v: lloyd(POINTS, v), "init_centroids", INIT),
    "inertia_history-points": (lambda v: inertia_history(v, INIT), "points", POINTS),
    "inertia_history-init": (lambda v: inertia_history(POINTS, v), "init_centroids", INIT),
    "pca_fit": (lambda v: pca_fit(v, 1), "data", POINTS),
    "TimeSeriesPanel": (lambda v: TimeSeriesPanel(("a", "b"), DATES, v), "panel values", np.ones((2, 3))),
    "WaveletFilter": (lambda v: WaveletFilter("x", v, INIT[0], INIT[0], INIT[0]), "dec_lo", INIT[0]),
    "SyntheticSpec": (lambda v: SyntheticSpec(noise_sigma=v), "noise_sigma", np.array(8.0)),
}


def with_nan(good):
    bad = good.copy()
    bad.flat[0] = np.nan
    return bad


BAD_VALUES = {
    "string": lambda good: "abc",
    "numeric-strings": lambda good: good.astype(str).tolist(),  # never parsed
    "ragged": lambda good: [[1.0, 2.0], [3.0]],
    "complex": lambda good: good + 1j,
    "huge-int": lambda good: np.full(good.shape, 10**400, dtype=object).tolist(),
    "none": lambda good: None,
    "wrong-rank": lambda good: good[None],
    "nan": with_nan,
}


@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("entry", ARRAY_ARGUMENTS)
def test_a_bad_array_argument_is_invalid_input_naming_it(entry, bad):
    call, what, good = ARRAY_ARGUMENTS[entry]
    call(good)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a complex array must not be cut to its real part with a warning
        with pytest.raises(InvalidInput, match=f"^{what} "):
            call(BAD_VALUES[bad](good))


def test_as_array_takes_bools_integers_and_floats():
    x = np.linspace(0.0, 1.0, 5)
    assert as_array(x, "x", 1) is x  # float64 comes back without a copy
    for value in ([True, False], [1, 2], np.arange(3, dtype=np.uint8), np.ones(2, dtype=np.float32)):
        got = as_array(value, "x", 1)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, np.asarray(value, dtype=np.float64))
    assert as_array(8, "noise_sigma", 0) == 8.0

