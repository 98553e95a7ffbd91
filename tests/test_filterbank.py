import hashlib
import math
import re

import numpy as np
import pytest

import trendlet
from trendlet import dwt, filterbank
from trendlet.errors import UnknownWavelet

SQRT2 = math.sqrt(2.0)

ALL_NAMES = filterbank.WAVELET_ORDER
ORTHOGONAL = sorted(filterbank.ORTHOGONAL_NAMES)


def recurrence_selected(n, m):
    """Independent count of the (c0, d0, d1) feature length."""
    if m == 2:
        levels = int(math.floor(math.log2(n)))
    else:
        levels = 0
        while (m - 1) * 2 ** (levels + 1) <= n:
            levels += 1
    lengths = [n]
    for _ in range(levels):
        lengths.append((lengths[-1] + m - 1) // 2)
    return 2 * lengths[-1] + lengths[-2]


def test_registry_names_and_lengths():
    assert len(ALL_NAMES) == 15
    by_length = {}
    for name in ALL_NAMES:
        by_length.setdefault(filterbank.get_filter(name).filter_length, []).append(name)
    assert sorted(by_length) == [2, 4, 6]
    assert sorted(by_length[2]) == ["bior1.1", "db1", "haar", "rbio1.1"]
    assert sorted(by_length[4]) == ["bior3.1", "db2", "rbio3.1", "sym2"]
    assert sorted(by_length[6]) == [
        "bior1.3", "bior2.2", "coif1", "db3", "rbio1.3", "rbio2.2", "sym3",
    ]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_filter_sums(name):
    wf = filterbank.get_filter(name)
    assert len(wf.dec_lo) == len(wf.dec_hi) == len(wf.rec_lo) == len(wf.rec_hi)
    assert abs(wf.dec_lo.sum() - SQRT2) <= 1e-10
    assert abs(wf.dec_hi.sum()) <= 1e-10


@pytest.mark.parametrize("name", ORTHOGONAL)
def test_orthogonal_invariants(name):
    wf = filterbank.get_filter(name)
    m = wf.filter_length
    assert abs((wf.dec_lo**2).sum() - 1.0) <= 1e-10
    mirror = np.array([(-1.0) ** n * wf.dec_lo[m - 1 - n] for n in range(m)])
    assert (
        min(np.abs(wf.dec_hi - mirror).max(), np.abs(wf.dec_hi + mirror).max()) <= 1e-10
    )


def test_haar_values():
    wf = filterbank.get_filter("haar")
    np.testing.assert_allclose(wf.dec_lo, [1 / SQRT2, 1 / SQRT2], atol=1e-15)
    assert abs(wf.dec_hi.sum()) <= 1e-15


def test_db2_closed_form():
    wf = filterbank.get_filter("db2")
    expected = sorted(
        [
            (1 + math.sqrt(3)) / (4 * SQRT2),
            (3 + math.sqrt(3)) / (4 * SQRT2),
            (3 - math.sqrt(3)) / (4 * SQRT2),
            (1 - math.sqrt(3)) / (4 * SQRT2),
        ]
    )
    np.testing.assert_allclose(sorted(wf.dec_lo), expected, atol=1e-15)
    # two vanishing moments of the analysis high-pass
    n = np.arange(4)
    assert abs(wf.dec_hi.sum()) <= 1e-10
    assert abs((n * wf.dec_hi).sum()) <= 1e-10


def test_length2_entries_numerically_identical():
    haar = filterbank.get_filter("haar")
    for alias in ("db1", "bior1.1", "rbio1.1"):
        other = filterbank.get_filter(alias)
        assert other.name == alias
        for attr in ("dec_lo", "dec_hi", "rec_lo", "rec_hi"):
            np.testing.assert_array_equal(getattr(haar, attr), getattr(other, attr))


def test_sym2_equals_db2():
    db2 = filterbank.get_filter("db2")
    sym2 = filterbank.get_filter("sym2")
    for attr in ("dec_lo", "dec_hi", "rec_lo", "rec_hi"):
        np.testing.assert_array_equal(getattr(db2, attr), getattr(sym2, attr))


def test_get_filter_case_insensitive_and_pure():
    a = filterbank.get_filter("SYM2")
    b = filterbank.get_filter("sym2")
    np.testing.assert_array_equal(a.dec_lo, b.dec_lo)
    with pytest.raises(ValueError):
        a.dec_lo[0] = 0.0  # read-only storage


def test_wavelet_filter_copies_the_callers_arrays():
    a = np.array([0.5, 0.5])
    wf = filterbank.WaveletFilter("x", a, a, a, a)
    a[0] = 1.0  # still writable
    fields = (wf.dec_lo, wf.dec_hi, wf.rec_lo, wf.rec_hi)
    for i, taps in enumerate(fields):
        assert not taps.flags.writeable
        np.testing.assert_array_equal(taps, [0.5, 0.5])
        assert not any(np.shares_memory(taps, other) for other in (a, *fields[i + 1 :]))


def test_registry_bytes_are_pinned():
    """Every tap of every bank, in registry order; reruns depend on these bits."""
    digest = hashlib.sha256()
    for name in ALL_NAMES:
        wf = filterbank.get_filter(name)
        for taps in (wf.dec_lo, wf.dec_hi, wf.rec_lo, wf.rec_hi):
            assert taps.flags.c_contiguous and not taps.flags.writeable, name
            assert not np.any(np.signbit(taps) & (taps == 0.0)), name
            digest.update(np.ascontiguousarray(taps).tobytes())
    assert digest.hexdigest() == "614a6546e446ddb1b30fb77b62efc8b12536178986cb19574bfe4e1b20f9a658"


def test_unknown_wavelet():
    with pytest.raises(UnknownWavelet, match=r"^unknown wavelet 'foo'; supported: haar, db1, "):
        filterbank.get_filter("foo")
    # a name that is not a str is named by its type, not printed whole
    for name, kind in ((filterbank.get_filter("db2"), "WaveletFilter"), (None, "NoneType"), (3, "int")):
        with pytest.raises(UnknownWavelet) as info:
            dwt.decompose([1.0] * 8, name)
        assert str(info.value) == f"wavelet name must be a string, got {kind}"


@pytest.mark.parametrize("name", ALL_NAMES)
def test_roundtrip_random_signals(name, rng):
    wf = filterbank.get_filter(name)
    # shortest length with one decomposable level
    shortest = 2 * (wf.filter_length - 1) if wf.filter_length > 2 else 2
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(shortest, 65))
        x = rng.standard_normal(n)
        err = np.max(np.abs(dwt.reconstruct(dwt.decompose(x, name)) - x))
        worst = max(worst, err)
    assert worst <= 1e-8


def test_list_filters_counts():
    rows = filterbank.list_filters()
    assert len(rows) == 15
    for name, length, count in rows:
        assert count == recurrence_selected(846, length)
        if length == 4:
            assert count == 21
        elif length == 6:
            assert count == 40
        else:
            # computed value; the published table prints 14 for this group,
            # which the zero-padding recurrence does not reproduce
            assert count == 8
    # grouped by filter length
    lengths = [length for _, length, _ in rows]
    assert lengths == sorted(lengths)


def _bank(name, dec_lo, rec_lo):
    """A WaveletFilter whose high-pass filters follow the alternating-sign rule."""
    dec_lo, rec_lo = np.array(dec_lo), np.array(rec_lo)
    signs = (-1.0) ** np.arange(len(dec_lo))
    return filterbank.WaveletFilter(name, dec_lo, -signs * rec_lo, rec_lo, signs * dec_lo)


H = SQRT2 / 2
HAAR = filterbank.get_filter("haar")


@pytest.mark.parametrize(
    "bank, message",
    [
        (filterbank.WaveletFilter("x", [H, H], [H, -H, 0.0, 0.0], [H, H], [H, -H]), "x: filter lengths differ"),
        (_bank("x", [SQRT2, 0.0, 0.0], [SQRT2, 0.0, 0.0]), "x: unsupported filter length 3"),
        (_bank("x", [1.0, 1.0], [1.0, 1.0]), "x: dec_lo does not sum to sqrt(2)"),
        (_bank("x", [H, H], [H, 2 * H]), "x: dec_hi does not sum to 0"),
        (filterbank.WaveletFilter("x", HAAR.dec_lo, HAAR.dec_hi, HAAR.rec_lo, -HAAR.rec_hi),
         "x: high-pass filters break the alternating-sign rule"),
        (_bank("db2", [SQRT2 / 4] * 4, [SQRT2 / 4] * 4), "db2: dec_lo not orthonormal"),
        (_bank("haar", [H, H], [2 * H, 2 * H]), "haar: rec_lo is not dec_lo reversed"),
    ],
    ids=["lengths", "length-3", "dec-lo-sum", "dec-hi-sum", "alternating-sign", "orthonormal", "reversed"],
)
def test_check_algebra_names_each_broken_identity(bank, message):
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        filterbank._check_algebra(bank)


def test_startup_selfcheck_catches_a_corrupted_registry_filter(monkeypatch):
    good = filterbank.get_filter("db2")
    # db2 with its synthesis low-pass reversed no longer inverts its own analysis
    bad = filterbank.WaveletFilter("db2", good.dec_lo, good.dec_hi, good.rec_lo[::-1], good.rec_hi)
    monkeypatch.setitem(filterbank._REGISTRY, "db2", bad)
    with pytest.raises(AssertionError, match=r"^filter db2 failed the reconstruction self-check$"):
        trendlet._startup_selfcheck()
