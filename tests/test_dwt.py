import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendlet import dwt, filterbank, pipeline, preprocess
from trendlet.dwt import CoefficientIndex
from trendlet.errors import InvalidInput, UnknownWavelet
from conftest import traced_peak

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
    assert dwt.max_level(3, 4) == 0


def test_max_level_matches_float_log():
    for m in (2, 4, 6):
        for n in range(m, 3000, 7):
            expect = int(math.floor(math.log2(n if m == 2 else n / (m - 1))))
            assert dwt.max_level(n, m) == expect, (n, m)


def test_max_level_invalid():
    with pytest.raises(InvalidInput, match="n_samples must be non-negative"):
        dwt.max_level(-1, 4)
    with pytest.raises(InvalidInput):
        dwt.max_level(10, 1)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda x: dwt.truncate_to_level(dwt.decompose(x, "db3"), 1.5), "keep_levels"),
        (lambda x: dwt.band_lengths(64.9, 6), "n_samples"),
        (lambda x: dwt.band_lengths(64, 6.0), "filter_length"),
        (lambda x: dwt.max_level(846.9, 6), "n_samples"),
        (lambda x: dwt.max_level(846, "6"), "filter_length"),
    ],
)
def test_non_integer_depths_and_lengths_are_rejected(call, name):
    with pytest.raises(InvalidInput, match=rf"^{name} must be an integer, got "):
        call(np.arange(100.0))


def test_numpy_integer_depths_and_lengths_pass():
    x = np.arange(100.0)
    assert dwt.max_level(np.int64(846), np.int32(6)) == 7
    assert dwt.band_lengths(np.uint16(64), np.int8(6)) == dwt.band_lengths(64, 6)
    coeffs = dwt.decompose(x, "db3")
    kept = dwt.truncate_to_level(coeffs, np.int32(1))
    assert np.array_equal(kept.details[0], coeffs.details[0]) and not kept.details[1].any()


# ---------------------------------------------------------------- decompose

def test_constant_signal_haar():
    coeffs = dwt.decompose([1.0, 1.0, 1.0, 1.0], "haar")
    assert coeffs.levels == 2
    np.testing.assert_allclose(coeffs.approx, [2.0], atol=1e-12)
    np.testing.assert_allclose(coeffs.details[0], [0.0], atol=1e-12)
    np.testing.assert_allclose(coeffs.details[1], [0.0, 0.0], atol=1e-12)


def test_two_point_haar():
    coeffs = dwt.decompose([2.0, 4.0], "haar")
    assert coeffs.levels == 1
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
        dwt.decompose([1.0, 2.0, 3.0], "db2")  # shorter than one level
    with pytest.raises(InvalidInput):
        dwt.decompose([1.0, np.nan, 3.0, 4.0], "haar")


@pytest.mark.parametrize("n", range(10))
def test_a_series_too_short_for_one_level_fails_alike(n):
    """db3 supports no level of a series of 0..9 samples, shorter than its filter or not."""
    assert dwt.max_level(n, 6) == 0
    message = rf"^series of length {n} supports no decomposition level of a length-6 filter$"
    x = np.arange(float(n))
    for call in (
        lambda: dwt.decompose(x, "db3"),
        lambda: dwt.coarse_features(x[None], "db3"),
        lambda: dwt.band_lengths(n, 6),
        lambda: dwt.selected_length(n, 6),
    ):
        with pytest.raises(InvalidInput, match=message):
            call()


def test_decompose_derives_the_band_lengths_once(monkeypatch, rng):
    """The set's ``band_lengths`` is the only one; ``decompose`` takes its depth from ``max_level``."""
    calls = []
    real = dwt.band_lengths
    monkeypatch.setattr(dwt, "band_lengths", lambda *args: calls.append(args) or real(*args))
    dwt.decompose(rng.standard_normal(846), "db3")
    assert calls == [(846, 6)]


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
    # every length below the filter's, then random lengths from 1
    for n in [*range(1, wf.filter_length), *rng.integers(1, 201, size=20).tolist()]:
        x = rng.standard_normal(n)
        approx, detail = dwt.analyze_level(x, name)
        np.testing.assert_allclose(approx, conv_downsample_oracle(x, wf.dec_lo), atol=1e-12)
        np.testing.assert_allclose(detail, conv_downsample_oracle(x, wf.dec_hi), atol=1e-12)
        assert len(approx) == (n + wf.filter_length - 1) // 2


def test_analyze_level_errors():
    with pytest.raises(InvalidInput, match=r"^series must be 1-D, got shape \(4, 37\)$"):
        dwt.analyze_level(np.ones((4, 37)), "haar")
    with pytest.raises(InvalidInput, match="non-finite"):
        dwt.analyze_level(np.array([1.0, 2.0, np.inf, 0.0]), "haar")
    with pytest.raises(InvalidInput, match="^empty series$"):
        dwt.analyze_level([], "haar")
    with pytest.raises(InvalidInput, match=r"^series must be 1-D, got shape \(2, 16\)$"):
        dwt.decompose(np.ones((2, 16)), "haar")


# ---------------------------------------------------------------- reconstruct

@pytest.mark.parametrize("name", ALL_NAMES)
def test_roundtrip_full_depth(name, rng):
    wf = filterbank.get_filter(name)
    for _ in range(25):
        n = int(rng.integers(64, 500))
        x = rng.standard_normal(n)
        rec = dwt.reconstruct(dwt.decompose(x, name))
        assert rec.shape == x.shape
        assert np.max(np.abs(rec - x)) <= 1e-8


def test_all_zero_coefficients_reconstruct_to_zero():
    coeffs = dwt.decompose(np.zeros(64), "db2")
    assert np.all(dwt.reconstruct(coeffs) == 0.0)


def test_constant_signal_lives_in_approx():
    coeffs = dwt.decompose([1.0, 1.0, 1.0, 1.0], "haar")
    truncated = dwt.truncate_to_level(coeffs, 0)
    np.testing.assert_allclose(dwt.reconstruct(truncated), [1.0, 1.0, 1.0, 1.0], atol=1e-12)


def set_fields(coeffs, **changes):
    """The constructor arguments of ``coeffs``, with ``changes`` applied."""
    return {f.name: getattr(coeffs, f.name) for f in dataclasses.fields(coeffs) if f.init} | changes


@pytest.mark.parametrize(
    "change, match",
    [
        (lambda c: {"approx": c.approx[:-1]}, r"^approx band has length 0, expected 1$"),
        (
            lambda c: {"details": c.details[:2] + (np.zeros(5),) + c.details[3:]},
            r"^detail band 2 has length 5, expected 4$",
        ),
        (lambda c: {"details": c.details[:-1]}, r"^5 detail bands for 6 levels$"),
        (lambda c: {"details": c.details + (np.zeros(64),)}, r"^7 detail bands for 6 levels$"),
        (lambda c: {"details": ()}, r"^0 detail bands for 6 levels$"),
        (lambda c: {"approx": c.approx.tolist()}, r"^approx band must be a 1-D float64 array, got list$"),
        (
            lambda c: {"details": c.details[:1] + (c.details[1][None],) + c.details[2:]},
            r"^detail band 1 must be a 1-D float64 array, got 2-D float64 array$",
        ),
        (
            lambda c: {"details": c.details[:5] + (c.details[5].astype(np.int64),)},
            r"^detail band 5 must be a 1-D float64 array, got 1-D int64 array$",
        ),
    ],
    ids=["short-approx", "long-detail", "fewer-details", "levels-above-max", "no-levels",
         "list-band", "2d-band", "integer-band"],
)
def test_coefficient_set_rejects_inconsistent_bands(rng, change, match):
    coeffs = dwt.decompose(rng.standard_normal(64), "haar")
    with pytest.raises(InvalidInput, match=match):
        dwt.CoefficientSet(**set_fields(coeffs, **change(coeffs)))


def test_coefficient_set_rejects_an_unknown_wavelet(rng):
    coeffs = dwt.decompose(rng.standard_normal(64), "haar")
    with pytest.raises(UnknownWavelet, match="nope"):
        dwt.CoefficientSet(**set_fields(coeffs, wavelet_name="nope"))


def test_only_registry_filters_are_accepted(rng):
    """A set records only the wavelet's name, so the transforms take nothing but a name."""
    x = rng.standard_normal(64)
    bior31 = filterbank.get_filter("bior3.1")
    taps = (bior31.dec_lo, bior31.dec_hi, bior31.rec_lo, bior31.rec_hi)
    impostor = filterbank.WaveletFilter("db2", *taps)
    for call in (dwt.decompose, dwt.analyze_level, lambda x, wf: dwt.coarse_features(x[None], wf)):
        for wf in (filterbank.get_filter("db2"), impostor):
            with pytest.raises(UnknownWavelet):
                call(x, wf)


def test_coefficient_set_derives_its_lengths(rng):
    coeffs = dwt.decompose(rng.standard_normal(127), "db3")
    for derived in ("levels", "lengths"):
        with pytest.raises(TypeError, match=derived):
            dwt.CoefficientSet(**set_fields(coeffs), **{derived: getattr(coeffs, derived)})
    rebuilt = dwt.CoefficientSet(**set_fields(coeffs))
    assert (rebuilt.levels, rebuilt.lengths) == (coeffs.levels, coeffs.lengths)


def test_replace_checks_the_set_again(rng):
    coeffs = dwt.decompose(rng.standard_normal(64), "db2")
    with pytest.raises(InvalidInput, match="approx band"):
        dataclasses.replace(coeffs, approx=coeffs.approx[:-1])


def test_truncate_keeps_the_lengths(rng):
    coeffs = dwt.decompose(rng.standard_normal(846), "sym2")
    for m in range(coeffs.levels + 1):
        assert dwt.truncate_to_level(coeffs, m).lengths == coeffs.lengths


def test_coefficient_set_stores_details_as_a_tuple(rng):
    coeffs = dwt.decompose(rng.standard_normal(64), "haar")
    details = list(coeffs.details)
    stored = dwt.CoefficientSet(**set_fields(coeffs, details=details))
    details.pop()
    assert isinstance(stored.details, tuple) and len(stored.details) == coeffs.levels
    np.testing.assert_array_equal(dwt.reconstruct(stored), dwt.reconstruct(coeffs))


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
        coeffs = dwt.decompose(rng.standard_normal(n), name)
        assert coeffs.levels == dwt.max_level(n, wf.filter_length)
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


def too_shallow(n, m):
    """The message for a length-n series with one level under a length-m filter, as a regex."""
    return (rf"^series of length {n} supports 1 decomposition level of a length-{m} filter; "
            r"selecting \(c0, d0, d1\) needs 2$")


def test_select_coarse_insufficient_depth(rng):
    for n, name in ((12, "coif1"), (16, "db3")):
        coeffs = dwt.decompose(rng.standard_normal(n), name)
        assert coeffs.levels == 1
        with pytest.raises(InvalidInput, match=too_shallow(n, 6)):
            dwt.select_coarse(coeffs)


def test_selected_length_examples():
    assert dwt.selected_length(846, 2) == 8
    assert dwt.selected_length(846, 4) == 21
    assert dwt.selected_length(846, 6) == 40
    with pytest.raises(InvalidInput, match=too_shallow(12, 6)):
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
    with pytest.raises(InvalidInput, match=r"^approx band has level 0 only, got 1$"):
        dwt.reconstruct_single(coeffs, CoefficientIndex("approx", 1, 0))
    with pytest.raises(InvalidInput, match=r"^approx position 1 outside 0\.\.0$"):
        dwt.reconstruct_single(coeffs, CoefficientIndex("approx", 0, len(coeffs.approx)))
    with pytest.raises(InvalidInput, match=r"^detail level 6 outside 0\.\.5$"):
        dwt.reconstruct_single(coeffs, CoefficientIndex("detail", coeffs.levels, 0))
    with pytest.raises(InvalidInput, match=r"^detail 0 position 1000000 outside 0\.\.0$"):
        dwt.reconstruct_single(coeffs, CoefficientIndex("detail", 0, 10**6))
    with pytest.raises(InvalidInput, match=r"^band must be 'approx' or 'detail', got 'smooth'$"):
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
        i for i, day in enumerate(panel.dates) if day.timetuple().tm_yday == pipeline.SEASONAL_PEAK_DOY
    )
    position = min(d1_len - 1, round(peak_day * d1_len / n))
    rec = dwt.reconstruct_single(coeffs, CoefficientIndex("detail", 1, position))
    span = math.ceil(n / d1_len)
    peak_of_rec = int(np.argmax(np.abs(rec)))
    assert abs(peak_of_rec - peak_day) <= 2 * span


# ---------------------------------------------------------------- synthesis against the old arithmetic

def convolve_synthesis_reference(coeffs):
    """The inverse transform as it was first written: per level, upsample
    each band, np.convolve it with its reconstruction filter, add, trim
    M - 2 samples from each side and cut to the next band length."""
    wf = filterbank.get_filter(coeffs.wavelet_name)
    m = wf.filter_length
    approx = coeffs.approx
    for i, det in enumerate(coeffs.details):
        up_lo = np.zeros(2 * len(approx) - 1)
        up_lo[::2] = approx
        up_hi = np.zeros(2 * len(det) - 1)
        up_hi[::2] = det
        merged = np.convolve(up_lo, wf.rec_lo) + np.convolve(up_hi, wf.rec_hi)
        if m > 2:
            merged = merged[m - 2 : len(merged) - (m - 2)]
        approx = merged[: coeffs.lengths[i + 1]]
    return approx


def addresses(coeffs):
    """(address, band, position) of every coefficient of a pyramid."""
    for pos in range(len(coeffs.approx)):
        yield CoefficientIndex("approx", 0, pos), coeffs.approx, pos
    for level, band in enumerate(coeffs.details):
        for pos in range(len(band)):
            yield CoefficientIndex("detail", level, pos), band, pos


@pytest.mark.parametrize("name", ALL_NAMES)
def test_synthesis_matches_convolve_reference(name):
    rng = np.random.default_rng(2024)
    for n in (64, 65, 127, 846):
        coeffs = dwt.decompose(rng.standard_normal(n), name)
        assert np.max(np.abs(dwt.reconstruct(coeffs) - convolve_synthesis_reference(coeffs))) <= 1e-12
        zero_approx = np.zeros_like(coeffs.approx)
        zero_details = [np.zeros_like(det) for det in coeffs.details]
        for which, band, pos in addresses(coeffs):
            approx = zero_approx.copy()
            details = [det.copy() for det in zero_details]
            (approx if which.band == "approx" else details[which.level])[pos] = band[pos]
            alone = dwt.CoefficientSet(coeffs.wavelet_name, n, approx, tuple(details))
            got = dwt.reconstruct_single(coeffs, which)
            assert got.shape == (n,)
            assert np.max(np.abs(got - convolve_synthesis_reference(alone))) <= 1e-12, (n, which)


# ---------------------------------------------------------------- truncated reconstruction

def level_by_level(coeffs):
    """The inverse transform with one synthesis level per detail band, zero or not."""
    wf = filterbank.get_filter(coeffs.wavelet_name)
    bank = dwt._bank(wf.rec_lo, wf.rec_hi)
    approx = coeffs.approx
    for i, det in enumerate(coeffs.details):
        approx = dwt._synthesize_level(approx, det, bank, coeffs.lengths[i + 1])
    return approx


@pytest.mark.parametrize("n", [64, 65, 127, 846])
def test_truncated_reconstruction_matches_every_level(n):
    rng = np.random.default_rng(n)
    for name in ALL_NAMES:
        coeffs = dwt.decompose(rng.standard_normal(n), name)
        for keep in range(coeffs.levels + 1):
            truncated = dwt.truncate_to_level(coeffs, keep)
            got, want = dwt.reconstruct(truncated), level_by_level(truncated)
            assert got.shape == (n,)
            assert np.max(np.abs(got - want)) <= 1e-12, (name, keep)
            if keep == coeffs.levels:  # no zero tail: the same levels run, so the same bytes
                assert got.tobytes() == want.tobytes(), name


def test_truncation_runs_only_the_levels_with_a_nonzero_detail(monkeypatch, rng):
    coeffs = dwt.decompose(rng.standard_normal(846), "db3")
    truncated = [dwt.truncate_to_level(coeffs, keep) for keep in range(coeffs.levels + 1)]
    dwt._shape.cache_clear()
    for each in truncated:
        dwt.reconstruct(each)
    info = dwt._shape.cache_info()
    # one tail shape per depth 1..7 below the kept levels; levels:7 reads none
    assert (info.misses, info.currsize) == (coeffs.levels, coeffs.levels)
    runs = []
    synthesize = dwt._synthesize_level
    monkeypatch.setattr(dwt, "_synthesize_level", lambda *args: runs.append(1) or synthesize(*args))
    for keep, each in enumerate(truncated):
        runs.clear()
        dwt.reconstruct(each)
        assert len(runs) == keep


def test_a_zero_finest_band_below_a_nonzero_one_is_skipped():
    # constant on pairs: every haar detail of the finest level is exactly 0
    x = np.repeat(np.random.default_rng(3).standard_normal(32), 2)
    coeffs = dwt.decompose(x, "haar")
    assert not coeffs.details[-1].any() and coeffs.details[-2].any()
    got = dwt.reconstruct(coeffs)
    assert np.max(np.abs(got - level_by_level(coeffs))) <= 1e-12
    assert np.max(np.abs(got - x)) <= 1e-8


def test_an_all_zero_set_reconstructs_to_positive_zeros():
    for name in ALL_NAMES:
        for n in (64, 127):
            zero = dwt.truncate_to_level(dwt.decompose(np.zeros(n), name), 0)
            got = dwt.reconstruct(zero)
            assert np.all(got == 0.0) and not np.any(np.signbit(got)), (name, n)


def test_single_coefficient_index_must_be_an_integer(rng):
    coeffs = dwt.decompose(rng.standard_normal(64), "haar")
    with pytest.raises(InvalidInput, match=r"^detail level must be an integer, got 1\.0$"):
        dwt.reconstruct_single(coeffs, CoefficientIndex("detail", 1.0, 2))
    with pytest.raises(InvalidInput, match=r"^approx level must be an integer, got 0\.0$"):
        dwt.reconstruct_single(coeffs, CoefficientIndex("approx", 0.0, 0))
    with pytest.raises(InvalidInput, match=r"^approx position must be an integer, got 1\.5$"):
        dwt.reconstruct_single(coeffs, CoefficientIndex("approx", 0, 1.5))
    with pytest.raises(InvalidInput, match=r"^detail 1 position must be an integer, got '3'$"):
        dwt.reconstruct_single(coeffs, CoefficientIndex("detail", 1, "3"))
    got = dwt.reconstruct_single(coeffs, CoefficientIndex("detail", np.int64(2), np.int32(3)))
    np.testing.assert_array_equal(got, dwt.reconstruct_single(coeffs, CoefficientIndex("detail", 2, 3)))


# ---------------------------------------------------------------- basis cache

def test_zero_coefficient_gives_no_negative_zero(rng):
    for name in ALL_NAMES:
        coeffs = dwt.decompose(rng.standard_normal(127), name)
        zeroed = dwt.CoefficientSet(
            coeffs.wavelet_name, coeffs.original_length,
            np.zeros_like(coeffs.approx), tuple(np.zeros_like(d) for d in coeffs.details),
        )
        for which, _, _ in addresses(zeroed):
            rec = dwt.reconstruct_single(zeroed, which)
            assert np.all(rec == 0.0) and not np.any(np.signbit(rec)), (name, which)


ALIASES = ("haar", "db1", "bior1.1", "rbio1.1")


def rec_key(name):
    wf = filterbank.get_filter(name)
    return (tuple(wf.rec_lo.tolist()), tuple(wf.rec_hi.tolist()))


def dec_key(name):
    """The reversed analysis filters: the synthesis bank of the adjoint pyramid."""
    wf = filterbank.get_filter(name)
    return (tuple(wf.dec_lo[::-1].tolist()), tuple(wf.dec_hi[::-1].tolist()))


def test_basis_cache_is_bounded_by_its_constant():
    # the shapes of single-coefficient reconstructions live in the one cache
    caches = [value for value in vars(dwt).values() if hasattr(value, "cache_info")]
    assert caches == [dwt._shape]
    assert dwt._shape.cache_info().maxsize == dwt._SHAPE_CACHE_SIZE


def test_operator_cache_is_bounded_by_its_constant(rng):
    # the operator is assembled per call from the same bounded shape cache
    dwt._shape.cache_clear()
    for n in (64, 127, 846):
        x = rng.standard_normal((2, n))
        for name in ALL_NAMES:
            dwt.coarse_features(x, name)
            assert dwt._shape.cache_info().currsize <= dwt._SHAPE_CACHE_SIZE
    assert dwt._shape.cache_info().maxsize == dwt._SHAPE_CACHE_SIZE


def test_equal_filters_share_one_basis(rng):
    x = rng.standard_normal(100)
    which = CoefficientIndex("detail", 1, 2)
    dwt._shape.cache_clear()
    singles = [dwt.reconstruct_single(dwt.decompose(x, name), which) for name in ALIASES]
    for other in singles[1:]:
        np.testing.assert_array_equal(other, singles[0])
    info = dwt._shape.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 3, 1)


def test_equal_analysis_filters_share_one_operator(rng):
    x = rng.standard_normal((1, 100))
    dwt._shape.cache_clear()
    # the features read c0 and d0 at depth J and d1 (the detail band above) at J - 1
    features = [dwt.coarse_features(x, name) for name in ALIASES]
    for other in features[1:]:
        np.testing.assert_array_equal(other, features[0])
    info = dwt._shape.cache_info()
    assert (info.misses, info.hits, info.currsize) == (3, 9, 3)
    # a reconstruction of an alias at d1's depth hits the entry the features made
    coeffs = dwt.decompose(x[0], "haar")
    dwt.reconstruct_single(coeffs, CoefficientIndex("detail", 1, 2))
    info = dwt._shape.cache_info()
    assert (info.misses, info.hits, info.currsize) == (3, 10, 3)


def assert_shapes_read_only(key, coeffs, n):
    j, lengths = coeffs.levels, coeffs.lengths
    bands = (("approx", j, lengths[0]), ("detail", j, lengths[0]), ("detail", j - 1, lengths[1]))
    for band, k, size in bands:
        unit = dwt._shape(key, band, k)
        assert unit[1] == 2**k and not unit[2].flags.writeable
        with pytest.raises(ValueError):
            unit[2][0] = 1.0
        for position in range(size):
            start, values = dwt._crop(unit, position, n)
            assert 0 <= start and start + len(values) <= n


def test_cached_spans_are_read_only_and_results_are_fresh(rng):
    coeffs = dwt.decompose(rng.standard_normal(846), "db3")
    which = CoefficientIndex("detail", 1, 4)
    first = dwt.reconstruct_single(coeffs, which)
    expect = first.copy()
    first[:] = 7.0
    np.testing.assert_array_equal(dwt.reconstruct_single(coeffs, which), expect)
    assert_shapes_read_only(rec_key("db3"), coeffs, 846)


def test_operator_is_read_only(rng):
    # no operator is cached: each call gets fresh features from read-only shapes
    panel = rng.standard_normal((3, 846))
    features = dwt.coarse_features(panel, "db3")
    expect = features.copy()
    features[:] = 7.0
    np.testing.assert_array_equal(dwt.coarse_features(panel, "db3"), expect)
    operator_t = dwt._operator_t(filterbank.get_filter("db3"), 846)
    assert operator_t.shape == (dwt.selected_length(846, 6), 846)
    assert operator_t.flags.writeable and operator_t.flags.c_contiguous
    assert_shapes_read_only(dec_key("db3"), dwt.decompose(panel[0], "db3"), 846)


def dual(name):
    """The wavelet whose synthesis bank is ``name``'s reversed analysis bank."""
    if name.startswith("bior"):
        return "rbio" + name[4:]
    if name.startswith("rbio"):
        return "bior" + name[4:]
    return name


@pytest.mark.parametrize("name", ALL_NAMES)
def test_features_reuse_the_shapes_of_reconstructions(rng, name):
    assert dec_key(name) == rec_key(dual(name))
    x = rng.standard_normal(127)
    coeffs = dwt.decompose(x, dual(name))
    dwt._shape.cache_clear()
    for band, level in (("approx", 0), ("detail", 0), ("detail", 1)):
        dwt.reconstruct_single(coeffs, CoefficientIndex(band, level, 0))
    dwt.coarse_features(x[None], name)
    info = dwt._shape.cache_info()
    assert (info.misses, info.hits, info.currsize) == (3, 3, 3)


def test_units_cropped_whole_give_zeros(rng):
    coeffs = dwt.decompose(rng.standard_normal(64), "bior1.3")
    unit = dwt._shape(rec_key("bior1.3"), "approx", coeffs.levels)
    # c0 position 0 ends 6 samples before the series; positions 10 and 11 start after it
    assert (unit[0], len(unit[2])) == (-14, 8)
    for position in (0, 10, 11):
        assert coeffs.approx[position] != 0.0
        start, values = dwt._crop(unit, position, 64)
        assert len(values) == 0, position
        rec = dwt.reconstruct_single(coeffs, CoefficientIndex("approx", 0, position))
        assert np.all(rec == 0.0) and not np.any(np.signbit(rec)), position


def identity_basis(filters, lengths, band, level):
    """A band's rows: its whole identity matrix through the pyramid."""
    bank = dwt._bank(*filters)
    size = lengths[level]
    unit, zero = np.eye(size), np.zeros((size, size))
    approx, detail = (unit, zero) if band == "approx" else (zero, unit)
    for out_len in lengths[level + 1 :]:
        approx = dwt._synthesize_level(approx, detail, bank, out_len)
        detail = np.zeros_like(approx)
    return approx


@pytest.mark.parametrize("n", [64, 65, 127, 846])
def test_shapes_match_identity_basis_bit_for_bit(n):
    for name in ALL_NAMES:
        lengths = dwt.band_lengths(n, filterbank.get_filter(name).filter_length)
        levels = len(lengths) - 1
        bands = [("approx", 0)] + [("detail", level) for level in range(levels)]
        for filters in (rec_key(name), dec_key(name)):
            for band, level in bands:
                unit = dwt._shape(filters, band, levels - level)
                got = np.zeros((lengths[level], n))
                for position, row in enumerate(got):
                    start, values = dwt._crop(unit, position, n)
                    row[start : start + len(values)] = values
                want = identity_basis(filters, lengths, band, level)
                assert got.tobytes() == want.tobytes(), (name, filters, band, level)


# ---------------------------------------------------------------- analysis operator

def einsum_features(x, wf):
    """(c0, d0, d1) of each row through the einsum pyramid, level by level."""
    bank = dwt._bank(wf.dec_lo, wf.dec_hi)
    approx, details = x, []
    for _ in range(dwt.max_level(x.shape[-1], wf.filter_length)):
        approx, det = dwt._analyze(approx, bank)
        details.append(det)
    return np.concatenate([approx, details[-1], details[-2]], axis=-1)


@pytest.mark.parametrize("n", [64, 65, 127, 846])
def test_coarse_features_match_einsum_pyramid(n, rng):
    x = rng.standard_normal((6, n))
    for name in ALL_NAMES:
        wf = filterbank.get_filter(name)
        got = dwt.coarse_features(x, name)
        want = einsum_features(x, wf)
        assert got.shape == want.shape == (6, dwt.selected_length(n, wf.filter_length))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=name)


def identity_operator(wf, n):
    """The (n, p) operator built as before the shape cache: blocks of unit
    features through the synthesis kernel with the analysis filters as its bank."""
    bank = dwt._bank(wf.dec_lo[::-1], wf.dec_hi[::-1])
    lengths = dwt.band_lengths(n, wf.filter_length)
    c = lengths[0]
    p = 2 * c + lengths[1]
    rows = max(1, (1 << 21) // (4 * 8 * n))
    blocks = []
    for first in range(0, p, rows):
        unit = np.eye(min(rows, p - first), p, first)
        block = dwt._synthesize_level(unit[:, :c], unit[:, c : 2 * c], bank, lengths[1])
        block = dwt._synthesize_level(block, unit[:, 2 * c :], bank, lengths[2])
        for out_len in lengths[3:]:
            block = dwt._synthesize_level(block, np.zeros_like(block), bank, out_len)
        blocks.append(block)
    return np.concatenate(blocks).T


def test_operator_matches_identity_block_build(monkeypatch):
    want = {
        (name, n): identity_operator(filterbank.get_filter(name), n)
        for name in ALL_NAMES
        for n in (64, 65, 127, 846)
    }
    dwt._shape.cache_clear()
    monkeypatch.setattr(dwt, "_analyze", None)  # the analysis pyramid is never run
    for (name, n), operator in want.items():
        got = dwt._operator_t(filterbank.get_filter(name), n)
        assert got.shape == operator.T.shape and got.flags.c_contiguous, (name, n)
        assert operator.T.flags.c_contiguous
        assert got.tobytes() == operator.T.tobytes(), (name, n)


def test_coarse_features_of_no_rows():
    # short panels are checked against the per-row path in test_pipeline.py
    for name in ALL_NAMES:
        p = dwt.selected_length(64, filterbank.get_filter(name).filter_length)
        assert dwt.coarse_features(np.empty((0, 64)), name).shape == (0, p), name


def layouts(values):
    """C-ordered, F-ordered and strided copies of a 2-D array."""
    strided = np.zeros((2 * values.shape[0], 3 * values.shape[1]))[::2, ::3]
    strided[:] = values
    return {"C": np.ascontiguousarray(values), "F": np.asfortranarray(values), "strided": strided}


@pytest.mark.parametrize("sigma", [8.0, 40.0])
def test_features_keep_their_bytes_in_every_layout(sigma):
    spec = pipeline.SyntheticSpec(noise_sigma=sigma)
    copies = layouts(preprocess.normalize(pipeline.generate_synthetic(spec)[0]).values)
    for name in ALL_NAMES:
        got = {layout: dwt.coarse_features(x, name) for layout, x in copies.items()}
        for layout, features in got.items():
            assert features.flags.c_contiguous, (name, layout)
            assert features.tobytes() == got["C"].tobytes(), (name, layout)


def test_features_do_not_copy_a_c_ordered_panel(rng):
    panel = rng.standard_normal((2000, 846))  # 13.5 MB
    features, peak = traced_peak(dwt.coarse_features, panel, "db3")
    assert features.shape == (2000, 40)
    assert peak < 2_000_000  # the operator and two feature copies: 1.6 MB (15 MB for the F-ordered panel, copied)
