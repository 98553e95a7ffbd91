import datetime as dt
import warnings

import numpy as np
import pytest

from trendlet import dwt, errors
from trendlet.errors import InvalidInput, as_array, as_integer, shown
from trendlet.filterbank import WaveletFilter
from trendlet.kmeans import inertia_history, kmeans_fit, kmeanspp_seed, lloyd
from trendlet.pca import pca_fit
from trendlet.pipeline import SyntheticSpec, TrendRunConfig, generate_synthetic
from trendlet.preprocess import TimeSeriesPanel
from conftest import traced_peak

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



def test_finiteness_is_checked_without_a_panel_sized_mask():
    panel = np.zeros((2000, 846))  # 13.5 MB of values, a 1.69 MB bool mask
    for layout in (panel, np.asfortranarray(panel)):
        got, peak = traced_peak(as_array, layout, "values", 2)
        assert got is layout and peak < 250_000


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_every_chunk_is_checked_for_finiteness(layout):
    size = 3 * errors._FINITE_CHUNK + 4
    for where in (0, errors._FINITE_CHUNK, 2 * errors._FINITE_CHUNK + 1, size - 1):
        for bad in (np.nan, np.inf, -np.inf):
            flat = np.zeros(size)
            flat[where] = bad
            values = flat.reshape(size // 4, 4)
            if layout == "F":
                values = np.asfortranarray(values)
            elif layout == "strided":
                values = np.repeat(values, 2, axis=1)[:, ::2]
            with pytest.raises(InvalidInput, match="^values contains non-finite values$"):
                as_array(values, "values", 2)
    assert as_array(np.zeros((size // 4, 4)), "values", 2).shape == (size // 4, 4)


def test_a_synthetic_panel_that_overflows_keeps_its_message():
    spec = SyntheticSpec(n_days=64, n_increasing=1, n_stagnating=1, n_seasonal=1, noise_sigma=1e308)
    with pytest.raises(InvalidInput, match=r"^noise_sigma=1e\+308 draws a panel with non-finite values$"):
        generate_synthetic(spec)


def test_shown_prints_an_integer_while_python_can_and_its_digit_count_beyond():
    assert [shown(n) for n in (0, -7, 10**18)] == ["0", "-7", "1" + "0" * 18]
    assert shown(10**4299) == "1" + "0" * 4299  # 4,300 digits, the default limit
    assert shown(10**4300) == "<4,301-digit integer>"
    assert shown(-(10**4300 - 1)) == "-" + "9" * 4300
    assert shown(-(10**5000)) == "-<5,001-digit integer>"


HUGE = 10**5000  # 5,001 digits: str() refuses it under Python's default limit
COEFFS = dwt.decompose(np.arange(64.0), "haar")  # 6 levels, one approx coefficient

# (entry point, its message for an integer argument of 5,001 digits)
HUGE_INTEGERS = {
    "as_integer": (lambda: as_integer(-HUGE, "seed", 0), "seed must be non-negative, got -<5,001-digit integer>"),
    "SyntheticSpec": (
        lambda: SyntheticSpec(n_days=HUGE),
        "n_days must be <= 2915730 to end by 9999-12-31 from 2017-01-01, got <5,001-digit integer>",
    ),
    "kmeans_fit": (lambda: kmeans_fit(POINTS, HUGE), "k=<5,001-digit integer> outside 2..6"),
    "kmeanspp_seed": (
        lambda: kmeanspp_seed(POINTS, HUGE, np.random.default_rng(0)), "k=<5,001-digit integer> outside 1..6"
    ),
    "TrendRunConfig": (
        lambda: TrendRunConfig(k=HUGE, anchors={"cluster1": "a"}),
        "anchor name 'cluster1' is reserved for an unanchored cluster at k=<5,001-digit integer>",
    ),
    "truncate_to_level": (
        lambda: dwt.truncate_to_level(COEFFS, HUGE), "keep_levels=<5,001-digit integer> outside 0..6"
    ),
    "reconstruct_single-level": (
        lambda: dwt.reconstruct_single(COEFFS, dwt.CoefficientIndex("detail", HUGE, 0)),
        "detail level <5,001-digit integer> outside 0..5",
    ),
    "reconstruct_single-approx-level": (
        lambda: dwt.reconstruct_single(COEFFS, dwt.CoefficientIndex("approx", -HUGE, 0)),
        "approx band has level 0 only, got -<5,001-digit integer>",
    ),
    "reconstruct_single-position": (
        lambda: dwt.reconstruct_single(COEFFS, dwt.CoefficientIndex("approx", 0, HUGE)),
        "approx position <5,001-digit integer> outside 0..0",
    ),
    "pca_fit": (lambda: pca_fit(POINTS, HUGE), "r=<5,001-digit integer> outside 1..2"),
    "max_level": (lambda: dwt.max_level(-HUGE, 2), "n_samples must be non-negative, got -<5,001-digit integer>"),
}


@pytest.mark.parametrize("entry", HUGE_INTEGERS)
def test_an_integer_too_long_to_print_is_invalid_input_showing_its_digit_count(entry):
    call, message = HUGE_INTEGERS[entry]
    with pytest.raises(InvalidInput) as info:
        call()
    assert str(info.value) == message


def test_reserved_anchor_names_compare_with_a_k_too_long_to_print():
    below, at = "cluster" + "9" * 5000, "cluster1" + "0" * 5000  # HUGE - 1 and HUGE
    with pytest.raises(InvalidInput, match=r"^anchor name 'cluster9{5000}' is reserved .* at k=<5,001-digit integer>$"):
        TrendRunConfig(k=HUGE, anchors={below: "a"})
    assert TrendRunConfig(k=HUGE, anchors={at: "a"}).anchors == {at: "a"}
