"""Registry of the 15 short wavelet filter banks used for trend clustering.

Each entry is a quadruple of decomposition/reconstruction low/high-pass
filters, built at import from low-pass prototypes written once at full
float64 precision.  Each orthogonal family (haar, db2, db3, coif1; closed
forms) stores its analysis low-pass, and its synthesis low-pass is the
reverse.  Each biorthogonal family (the short spline filters bior1.3, bior2.2,
bior3.1) stores its (analysis, synthesis) low-pass pair, zero-padded to one
length.  Both high-pass filters follow from the two low-pass filters by one
alternating-sign (quadrature-mirror) rule:

    dec_hi[n] = (-1)**(n + 1) * rec_lo[n]      rec_hi[n] = (-1)**n * dec_lo[n]

Each rbioX bank is biorX with its low-pass filters swapped and reversed, so
an rbioX synthesis bank is exactly the reversed biorX analysis bank.  The
aliases db1, bior1.1 and rbio1.1 (haar), sym2 (db2) and sym3 (db3) reuse
their prototype's taps under their own name.

Filter tap ordering and high-pass signs follow this one convention,
validated by the perfect-reconstruction checks in the test suite (and a
cheap self-check at package import), not by matching any external library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnknownWavelet, as_array

__all__ = ["WaveletFilter", "WAVELET_ORDER", "ORTHOGONAL_NAMES", "get_filter", "list_filters"]


@dataclass(frozen=True, eq=False)
class WaveletFilter:
    """Immutable four-filter bank for one named wavelet."""

    name: str
    dec_lo: np.ndarray
    dec_hi: np.ndarray
    rec_lo: np.ndarray
    rec_hi: np.ndarray

    def __post_init__(self):
        # each filter is copied, so freezing it leaves the caller's array writable
        for attr in ("dec_lo", "dec_hi", "rec_lo", "rec_hi"):
            arr = as_array(getattr(self, attr), attr, 1).copy()
            arr.flags.writeable = False
            object.__setattr__(self, attr, arr)

    @property
    def filter_length(self) -> int:
        return len(self.dec_lo)


# Analysis low-pass of each orthogonal family; its synthesis low-pass is the
# reverse.
_ORTHOGONAL_LOW_PASS: dict[str, tuple[float, ...]] = {
    "haar": (0.7071067811865475, 0.7071067811865475),
    # db2 taps: {(1 +- sqrt3)/(4 sqrt2), (3 +- sqrt3)/(4 sqrt2)}
    "db2": (-0.12940952255126034, 0.2241438680420134, 0.8365163037378077, 0.4829629131445341),
    # db3 taps: sqrt2/32 * {1+r+s, 5+r+3s, 10-2r+2s, 10-2r-2s, 5+r-3s, 1+r-s}
    # with r = sqrt10, s = sqrt(5+2 sqrt10)
    "db3": (0.03522629188570956, -0.08544127388202666, -0.13501102001025464,
            0.45987750211849154, 0.8068915093110928, 0.3326705529500827),
    # coif1 taps: {-3+r, 1-r, 14-2r, 14+2r, 5+r, 1-r} / (16 sqrt2) with r = sqrt7
    "coif1": (-0.015655728135791986, -0.07273261951252645, 0.3848648468648577,
              0.8525720202116003, 0.33789766245748176, -0.07273261951252645),
}
# (analysis, synthesis) low-pass of each biorthogonal spline family,
# zero-padded to one length.
_BIORTHOGONAL_LOW_PASS: dict[str, tuple[tuple[float, ...], tuple[float, ...]]] = {
    "bior1.3": ((-0.08838834764831843, 0.08838834764831843, 0.7071067811865475,
                 0.7071067811865475, 0.08838834764831843, -0.08838834764831843),
                (0.0, 0.0, 0.7071067811865475, 0.7071067811865475, 0.0, 0.0)),
    "bior2.2": ((0.0, -0.17677669529663687, 0.35355339059327373, 1.0606601717798212,
                 0.35355339059327373, -0.17677669529663687),
                (0.0, 0.35355339059327373, 0.7071067811865475, 0.35355339059327373, 0.0, 0.0)),
    "bior3.1": ((-0.35355339059327373, 1.0606601717798212, 1.0606601717798212,
                 -0.35355339059327373),
                (0.17677669529663687, 0.5303300858899106, 0.5303300858899106,
                 0.17677669529663687)),
}
# Names whose taps are another entry's.
_ALIASES = {"db1": "haar", "bior1.1": "haar", "rbio1.1": "haar", "sym2": "db2", "sym3": "db3"}

# Registry order is canonical and stable: it defines the per-wavelet index
# used to derive sub-seeds, so adding entries at the end never perturbs
# existing results.
WAVELET_ORDER: tuple[str, ...] = (
    "haar", "db1", "db2", "db3", "sym2", "sym3", "coif1",
    "bior1.1", "bior1.3", "bior2.2", "bior3.1",
    "rbio1.1", "rbio1.3", "rbio2.2", "rbio3.1",
)

# bior1.1 and rbio1.1 share haar's taps but belong to the biorthogonal families.
ORTHOGONAL_NAMES = frozenset(
    name for name in WAVELET_ORDER if not name.startswith(("bior", "rbio"))
)

_SQRT2 = math.sqrt(2.0)


def _signs(m: int) -> np.ndarray:
    """(-1)**n for n = 0 .. m - 1."""
    return (-1.0) ** np.arange(m)


def _low_pass(name: str) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(dec_lo, rec_lo) taps of a registry name."""
    name = _ALIASES.get(name, name)
    if name in _ORTHOGONAL_LOW_PASS:
        taps = _ORTHOGONAL_LOW_PASS[name]
        return taps, taps[::-1]
    if name.startswith("rbio"):
        dec_lo, rec_lo = _BIORTHOGONAL_LOW_PASS["bior" + name[4:]]
        return rec_lo[::-1], dec_lo[::-1]
    return _BIORTHOGONAL_LOW_PASS[name]


def _build(name: str) -> WaveletFilter:
    """The bank of ``name``: its low-pass pair and the alternating-sign rule.

    ``+ 0.0`` turns each negated zero tap into 0.0.
    """
    dec_lo, rec_lo = map(np.array, _low_pass(name))
    signs = _signs(len(dec_lo))
    dec_hi, rec_hi = -signs * rec_lo + 0.0, signs * dec_lo + 0.0
    return WaveletFilter(name, dec_lo, dec_hi, rec_lo, rec_hi)


_REGISTRY: dict[str, WaveletFilter] = {name: _build(name) for name in WAVELET_ORDER}


def _check_algebra(wf: WaveletFilter) -> None:
    """Raise if the stored constants violate the filter-bank identities."""
    m = wf.filter_length
    if not (len(wf.dec_hi) == len(wf.rec_lo) == len(wf.rec_hi) == m):
        raise AssertionError(f"{wf.name}: filter lengths differ")
    if m not in (2, 4, 6):
        raise AssertionError(f"{wf.name}: unsupported filter length {m}")
    if abs(wf.dec_lo.sum() - _SQRT2) > 1e-10:
        raise AssertionError(f"{wf.name}: dec_lo does not sum to sqrt(2)")
    if abs(wf.dec_hi.sum()) > 1e-10:
        raise AssertionError(f"{wf.name}: dec_hi does not sum to 0")
    signs = _signs(m)
    if max(np.abs(wf.dec_hi + signs * wf.rec_lo).max(),
           np.abs(wf.rec_hi - signs * wf.dec_lo).max()) > 1e-10:
        raise AssertionError(f"{wf.name}: high-pass filters break the alternating-sign rule")
    if wf.name in ORTHOGONAL_NAMES:
        if abs((wf.dec_lo**2).sum() - 1.0) > 1e-10:
            raise AssertionError(f"{wf.name}: dec_lo not orthonormal")
        if np.abs(wf.rec_lo - wf.dec_lo[::-1]).max() > 1e-10:
            raise AssertionError(f"{wf.name}: rec_lo is not dec_lo reversed")


for _wf in _REGISTRY.values():
    _check_algebra(_wf)


def get_filter(name: str) -> WaveletFilter:
    """Look up a wavelet by name (case-insensitive).

    haar, db1, bior1.1 and rbio1.1 are distinct registry entries built from
    the same length-2 taps; likewise sym2/db2 and sym3/db3.  A name that is
    not a ``str`` raises UnknownWavelet naming its type.
    """
    if not isinstance(name, str):
        raise UnknownWavelet(f"wavelet name must be a string, got {type(name).__name__}")
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise UnknownWavelet(
            f"unknown wavelet {name!r}; supported: {', '.join(WAVELET_ORDER)}"
        ) from None


def list_filters(n_samples: int = 846) -> list[tuple[str, int, int]]:
    """All registry entries as (name, filter_length, selected_count) rows.

    The third column is the length of the (c0, d0, d1) feature vector for a
    series of ``n_samples`` points, grouped by filter length.
    """
    from . import dwt  # local import; dwt depends on this module

    rows = [
        (name, wf.filter_length, dwt.selected_length(n_samples, wf.filter_length))
        for name, wf in _REGISTRY.items()
    ]
    rows.sort(key=lambda r: (r[1], WAVELET_ORDER.index(r[0])))
    return rows
