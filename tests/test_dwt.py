import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendlet import dwt, filterbank, pipeline, preprocess
from trendlet.dwt import CoefficientIndex
from trendlet.errors import IndexOutOfRange, InsufficientDepth, InvalidInput

SQRT2 = math.sqrt(2.0)
ALL_NAMES = filterbank.WAVELET_ORDER


def conv_downsample_oracle(x, filt):
    """Explicit zero-extension + convolution + downsample, plain loops."""
    n, m = len(x), len(filt)
    padded = [0.0] * (m - 1) + [float(v) for v in x] + [0.0] * (m - 1)
    full = []
    for i in range(n + m - 1):
        acc = 0.0
        for j in range(m):
            acc += float(filt[j]) * padded[i + (m - 1) - j]
        full.append(acc)
    return np.array(full[1::2])


def recurrence_lengths(n, m, levels):
    lengths = [n]
    for _ in range(levels):
        lengths.append((lengths[-1] + m - 1) // 2)
    return tuple(reversed(lengths))


# ---------------------------------------------------------------- max_level

def test_max_level_examples():
    assert dwt.max_level(846, 4) == 8
    assert dwt.max_level(846, 6) == 7
    assert dwt.max_level(8, 2) == 3
    assert dwt.max_level(846, 2) == 9


def test_max_level_matches_float_log():
    for m in (2, 4, 6):
        for n in range(m, 3000, 7):
            expect = int(math.floor(math.log2(n if m == 2 else n / (m - 1))))
            assert dwt.max_level(n, m) == expect, (n, m)


def test_max_level_invalid():
    with pytest.raises(InvalidInput):
        dwt.max_level(3, 4)
    with pytest.raises(InvalidInput):
        dwt.max_level(10, 1)


# ---------------------------------------------------------------- decompose

def test_constant_signal_haar():
    coeffs = dwt.decompose([1.0, 1.0, 1.0, 1.0], "haar", levels=1)
    np.testing.assert_allclose(coeffs.approx, [SQRT2, SQRT2], atol=1e-12)
    np.testing.assert_allclose(coeffs.details[0], [0.0, 0.0], atol=1e-12)


def test_two_point_haar():
    coeffs = dwt.decompose([2.0, 4.0], "haar", levels=1)
    np.testing.assert_allclose(coeffs.approx, [6.0 / SQRT2], atol=1e-12)
    np.testing.assert_allclose(coeffs.details[0], [-2.0 / SQRT2], atol=1e-12)


def test_full_depth_sym2_band_lengths(rng):
    x = rng.standard_normal(846)
    coeffs = dwt.decompose(x, "sym2")
    assert coeffs.levels == 8
    assert coeffs.lengths == recurrence_lengths(846, 4, 8)
    band_lengths = [len(coeffs.approx)] + [len(d) for d in coeffs.details]
    assert band_lengths == [6, 6, 9, 16, 29, 55, 108, 213, 424]
    assert len(dwt.select_coarse(coeffs)) == 21


def test_decompose_errors():
    with pytest.raises(InvalidInput):
        dwt.decompose([], "haar")
    with pytest.raises(InvalidInput):
        dwt.decompose([1.0, 2.0, 3.0], "db2")  # shorter than the filter
    with pytest.raises(InvalidInput):
        dwt.decompose([1.0, np.nan, 3.0, 4.0], "haar")
    with pytest.raises(InvalidInput):
        dwt.decompose(np.ones(16), "haar", levels=5)  # max level is 4
    with pytest.raises(InvalidInput):
        dwt.decompose(np.ones(16), "haar", levels=0)


def test_decompose_bit_reproducible(rng):
    x = rng.standard_normal(200)
    a = dwt.decompose(x, "coif1")
    b = dwt.decompose(x.copy(), "coif1")
    np.testing.assert_array_equal(a.approx, b.approx)
    for da, db in zip(a.details, b.details):
        np.testing.assert_array_equal(da, db)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_single_level_matches_convolution_oracle(name, rng):
    wf = filterbank.get_filter(name)
    for _ in range(20):
        n = int(rng.integers(wf.filter_length, 201))
        x = rng.standard_normal(n)
        approx, detail = dwt.analyze_level(x, wf)
        np.testing.assert_allclose(approx, conv_downsample_oracle(x, wf.dec_lo), atol=1e-12)
        np.testing.assert_allclose(detail, conv_downsample_oracle(x, wf.dec_hi), atol=1e-12)
        assert len(approx) == (n + wf.filter_length - 1) // 2


@pytest.mark.parametrize("name", ALL_NAMES)
def test_analyze_level_runs_along_last_axis(name, rng):
    wf = filterbank.get_filter(name)
    x = rng.standard_normal((4, 37))
    approx, detail = dwt.analyze_level(x, wf)
    assert approx.shape == detail.shape == (4, (37 + wf.filter_length - 1) // 2)
    for row, a, d in zip(x, approx, detail):
        np.testing.assert_array_equal(a, dwt.analyze_level(row, wf)[0])
        np.testing.assert_array_equal(d, dwt.analyze_level(row, wf)[1])
        np.testing.assert_allclose(a, conv_downsample_oracle(row, wf.dec_lo), atol=1e-12)
        np.testing.assert_allclose(d, conv_downsample_oracle(row, wf.dec_hi), atol=1e-12)


def test_analyze_level_errors():
    with pytest.raises(InvalidInput, match="expected a 1-D series or a 2-D"):
        dwt.analyze_level(np.ones((2, 2, 8)), "haar")
    with pytest.raises(InvalidInput, match="non-finite"):
        dwt.analyze_level(np.array([[1.0, 2.0], [np.inf, 0.0]]), "haar")
    with pytest.raises(InvalidInput, match="shorter than the db2 filter"):
        dwt.analyze_level(np.ones((3, 3)), "db2")
    with pytest.raises(InvalidInput, match="expected a 1-D series"):
        dwt.decompose(np.ones((2, 16)), "haar")


# ---------------------------------------------------------------- reconstruct

@pytest.mark.parametrize("name", ALL_NAMES)
def test_roundtrip_full_depth(name, rng):
    wf = filterbank.get_filter(name)
    for _ in range(25):
        n = int(rng.integers(64, 500))
        x = rng.standard_normal(n)
        rec = dwt.reconstruct(dwt.decompose(x, wf))
        assert rec.shape == x.shape
        assert np.max(np.abs(rec - x)) <= 1e-8


def test_all_zero_coefficients_reconstruct_to_zero():
    coeffs = dwt.decompose(np.zeros(64), "db2")
    assert np.all(dwt.reconstruct(coeffs) == 0.0)


def test_constant_signal_lives_in_approx():
    coeffs = dwt.decompose([1.0, 1.0, 1.0, 1.0], "haar", levels=1)
    truncated = dwt.truncate_to_level(coeffs, 0)
    np.testing.assert_allclose(dwt.reconstruct(truncated), [1.0, 1.0, 1.0, 1.0], atol=1e-12)


def test_reconstruct_rejects_inconsistent_bands(rng):
    coeffs = dwt.decompose(rng.standard_normal(64), "haar")
    bad = dwt.CoefficientSet(
        wavelet_name=coeffs.wavelet_name,
        original_length=coeffs.original_length,
        levels=coeffs.levels,
        approx=coeffs.approx[:-1],
        details=coeffs.details,
        lengths=coeffs.lengths,
    )
    with pytest.raises(InvalidInput):
        dwt.reconstruct(bad)


def test_energy_preservation_haar_even_n(rng):
    for n in (2, 16, 64, 846):
        x = rng.standard_normal(n)
        approx, detail = dwt.analyze_level(x, "haar")
        energy = (approx**2).sum() + (detail**2).sum()
        assert abs(energy - (x**2).sum()) <= 1e-10


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=14),
    st.floats(-5, 5, allow_nan=False),
    st.floats(-5, 5, allow_nan=False),
)
def test_linearity(wavelet_index, a, b):
    name = ALL_NAMES[wavelet_index]
    rng = np.random.default_rng(77)
    x = rng.standard_normal(90)
    y = rng.standard_normal(90)
    combo = dwt.decompose(a * x + b * y, name)
    cx = dwt.decompose(x, name)
    cy = dwt.decompose(y, name)
    np.testing.assert_allclose(combo.approx, a * cx.approx + b * cy.approx, atol=1e-10)
    for dc, dx, dy in zip(combo.details, cx.details, cy.details):
        np.testing.assert_allclose(dc, a * dx + b * dy, atol=1e-10)


def test_length_recurrence_every_level(rng):
    for name in ALL_NAMES:
        wf = filterbank.get_filter(name)
        n = int(rng.integers(64, 400))
        coeffs = dwt.decompose(rng.standard_normal(n), wf)
        assert coeffs.lengths == recurrence_lengths(n, wf.filter_length, coeffs.levels)
        for i, det in enumerate(coeffs.details):
            assert len(det) == coeffs.lengths[i]
        assert len(coeffs.approx) == coeffs.lengths[0]


# ---------------------------------------------------------------- truncate / select

def test_truncate_identity_and_smooth(rng):
    x = rng.standard_normal(128)
    coeffs = dwt.decompose(x, "sym2")
    full = dwt.truncate_to_level(coeffs, coeffs.levels)
    np.testing.assert_array_equal(dwt.reconstruct(full), dwt.reconstruct(coeffs))
    smooth = dwt.truncate_to_level(coeffs, 2)
    for i, det in enumerate(smooth.details):
        if i >= 2:
            assert np.all(det == 0.0)
        else:
            np.testing.assert_array_equal(det, coeffs.details[i])
    with pytest.raises(InvalidInput):
        dwt.truncate_to_level(coeffs, coeffs.levels + 1)
    with pytest.raises(InvalidInput):
        dwt.truncate_to_level(coeffs, -1)


def test_select_coarse_lengths(rng):
    coeffs = dwt.decompose(rng.standard_normal(16), "haar")
    assert coeffs.levels == 4
    features = dwt.select_coarse(coeffs)
    assert len(features) == 4  # 1 + 1 + 2
    np.testing.assert_array_equal(
        features, np.concatenate([coeffs.approx, coeffs.details[0], coeffs.details[1]])
    )


def test_select_coarse_insufficient_depth(rng):
    coeffs = dwt.decompose(rng.standard_normal(12), "coif1", levels=1)
    with pytest.raises(InsufficientDepth):
        dwt.select_coarse(coeffs)


def test_selected_length_examples():
    assert dwt.selected_length(846, 2) == 8
    assert dwt.selected_length(846, 4) == 21
    assert dwt.selected_length(846, 6) == 40
    with pytest.raises(InsufficientDepth):
        dwt.selected_length(12, 6)
    with pytest.raises(InvalidInput):
        dwt.selected_length(4, 6)


def test_coefficient_names_sym2():
    names = dwt.coefficient_names(846, 4)
    assert len(names) == 21
    assert names[:6] == [f"c0,{i}" for i in range(6)]
    assert names[6:12] == [f"d0,{i}" for i in range(6)]
    assert names[12:] == [f"d1,{i}" for i in range(9)]


# ---------------------------------------------------------------- single coefficient

def test_single_coefficient_sum_is_full_reconstruction(rng):
    x = rng.standard_normal(101)
    coeffs = dwt.decompose(x, "db2")
    total = np.zeros_like(x)
    for pos in range(len(coeffs.approx)):
        total += dwt.reconstruct_single(coeffs, CoefficientIndex("approx", 0, pos))
    for level, band in enumerate(coeffs.details):
        for pos in range(len(band)):
            total += dwt.reconstruct_single(coeffs, CoefficientIndex("detail", level, pos))
    assert np.max(np.abs(total - dwt.reconstruct(coeffs))) <= 1e-8


def test_single_zero_coefficient_gives_zero(rng):
    x = rng.standard_normal(64)
    coeffs = dwt.decompose(x, "haar")
    zeroed = dwt.truncate_to_level(coeffs, 1)  # every d1 coefficient is zero
    rec = dwt.reconstruct_single(zeroed, CoefficientIndex("detail", 1, 0))
    assert np.all(rec == 0.0)


def test_single_coefficient_index_errors(rng):
    coeffs = dwt.decompose(rng.standard_normal(64), "haar")
    with pytest.raises(IndexOutOfRange):
        dwt.reconstruct_single(coeffs, CoefficientIndex("approx", 1, 0))
    with pytest.raises(IndexOutOfRange):
        dwt.reconstruct_single(coeffs, CoefficientIndex("approx", 0, len(coeffs.approx)))
    with pytest.raises(IndexOutOfRange):
        dwt.reconstruct_single(coeffs, CoefficientIndex("detail", coeffs.levels, 0))
    with pytest.raises(IndexOutOfRange):
        dwt.reconstruct_single(coeffs, CoefficientIndex("detail", 0, 10**6))
    with pytest.raises(IndexOutOfRange):
        dwt.reconstruct_single(coeffs, CoefficientIndex("smooth", 0, 0))


def test_seasonal_coefficient_localizes_summer():
    spec = pipeline.SyntheticSpec(
        n_increasing=1, n_stagnating=1, n_seasonal=1, noise_sigma=0.0, seed=3
    )
    panel, planted = pipeline.generate_synthetic(spec)
    normalized = preprocess.normalize(panel)
    series = normalized.values[planted.index("seasonal")]
    coeffs = dwt.decompose(series, "sym2")
    d1_len = coeffs.lengths[1]
    n = coeffs.original_length
    # first mid-July peak of the planted sinusoid
    peak_day = next(
        i for i, day in enumerate(panel.dates) if day.timetuple().tm_yday == spec.seasonal_peak_doy
    )
    position = min(d1_len - 1, round(peak_day * d1_len / n))
    rec = dwt.reconstruct_single(coeffs, CoefficientIndex("detail", 1, position))
    span = math.ceil(n / d1_len)
    peak_of_rec = int(np.argmax(np.abs(rec)))
    assert abs(peak_of_rec - peak_day) <= 2 * span
