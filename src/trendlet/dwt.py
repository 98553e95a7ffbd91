"""Pyramidal discrete wavelet transform with zero-padded boundaries.

One analysis level convolves the current approximation with the
decomposition filters against a zero-extended signal and keeps every second
sample, so a length-n band shrinks to floor((n + M - 1) / 2) for filter
length M.  Zero padding makes the transform slightly redundant at the
boundaries, which is exactly what keeps it perfectly invertible: synthesis
upsamples, convolves with the reconstruction filters and trims the M - 2
boundary samples from each side, then cuts back to the stored band length.

``analyze_level`` and ``decompose`` run the one analysis kernel on one
series, and ``reconstruct`` runs the one synthesis kernel on one series.
Every array argument goes through ``errors.as_array`` once per call, not
once per level.

The pyramid is linear, and both diagnostics read its map from one cache,
``_shape``: what a unit coefficient k levels above the series synthesizes
to, which every position of a band shifts by 2**k and crops to the series.
``reconstruct_single`` scales the shape the reconstruction filters give.
``reconstruct`` runs the synthesis kernel only down to the finest detail
band with a nonzero value; the k levels below it carry the approximation
alone, and by the noble identities those equal one placement of the
k-level approximation shape (``_place``), so a ``levels:m`` smooth costs m
levels and one einsum instead of J levels.  The adjoint of an analysis
level is a synthesis level whose bank rows are the analysis filters, so
``coarse_features`` assembles its operator from the shapes the reversed
analysis filters give and takes one matrix product.  Those reversed pairs
are the reconstruction pairs of the 15 names (bior X pairs with rbio X),
and equal filters (haar = db1 = bior1.1 = rbio1.1, sym2 = db2, sym3 = db3)
give one key, so the two uses share every entry.  Only the features lose
exact cancellation to the product's fused multiply-adds; ``decompose``,
``reconstruct`` and ``reconstruct_single`` take einsums, whose
multiply-adds are not fused.  A set without a zero tail (every full
decomposition of real data) reconstructs level by level, bit for bit as
before; a truncated one agrees with the level-by-level pyramid within
rounding (the tests allow 1e-12).

Every pyramid has full depth: the largest J with (M - 1) * 2**J <= n,
the depth at which at least one coefficient per band is free of boundary
effects.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import filterbank
from .errors import InvalidInput, as_array, as_integer, shown
from .filterbank import WaveletFilter

__all__ = [
    "CoefficientSet",
    "CoefficientIndex",
    "max_level",
    "band_lengths",
    "analyze_level",
    "decompose",
    "coarse_features",
    "reconstruct",
    "truncate_to_level",
    "select_coarse",
    "selected_length",
    "coefficient_names",
    "reconstruct_single",
]


@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """Full coefficient pyramid (c0, d0, ..., d_{J-1}) for one series.

    ``details[0]`` is the coarsest detail band d0.  The set is checked when
    it is built (and again by ``dataclasses.replace``): the wavelet name must
    be registered, the series long enough for one level, and there must be
    one detail band per level of the full-depth pyramid, each a 1-D float64
    ``numpy.ndarray`` as long as the recurrence says (finiteness is not
    checked, which keeps a set cheap).  ``details`` is stored as a tuple.
    ``levels`` and ``lengths`` are derived, not passed: ``band_lengths``
    gives the approximation length at every level from coarsest to the
    original, lengths[0] == len(approx) == len(details[0]), lengths[i] ==
    len(details[i]) for i >= 1, and lengths[levels] == original_length.
    """

    wavelet_name: str
    original_length: int
    approx: np.ndarray
    details: tuple[np.ndarray, ...]
    levels: int = field(init=False)
    lengths: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        wf = filterbank.get_filter(self.wavelet_name)
        lengths = band_lengths(self.original_length, wf.filter_length)
        levels = len(lengths) - 1
        details = tuple(self.details)
        if len(details) != levels:
            raise InvalidInput(f"{len(details)} detail bands for {levels} levels")
        # approx and d0 have lengths[0] entries, d_i has lengths[i]
        for i, (band, length) in enumerate(zip((self.approx, *details), (lengths[0], *lengths))):
            if not isinstance(band, np.ndarray) or band.ndim != 1 or band.dtype != _FLOAT64:
                got = type(band).__name__
                if isinstance(band, np.ndarray):
                    got = f"{band.ndim}-D {band.dtype} array"
                raise InvalidInput(f"{_band_name(i)} must be a 1-D float64 array, got {got}")
            if len(band) != length:
                raise InvalidInput(f"{_band_name(i)} has length {len(band)}, expected {length}")
        object.__setattr__(self, "details", details)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "lengths", lengths)


_FLOAT64 = np.dtype(np.float64)


def _band_name(i: int) -> str:
    """Name of band i of (approx, d0, d1, ...) in a message."""
    return "approx band" if i == 0 else f"detail band {i - 1}"


@dataclass(frozen=True)
class CoefficientIndex:
    """Address of one coefficient: band 'approx' or 'detail', level, position.

    Detail level 0 is the coarsest band d0.  The level of the approximation
    band must be 0 (there is only c0 in a completed pyramid).
    """

    band: str
    level: int
    position: int


def max_level(n_samples: int, filter_length: int) -> int:
    """Deepest usable decomposition level for a length-n signal.

    Largest J with (M - 1) * 2**J <= n, in integer arithmetic; 0 when no
    level fits, which ``band_lengths`` rejects.  A negative n is InvalidInput.
    """
    n = as_integer(n_samples, "n_samples", 0)
    m = as_integer(filter_length, "filter_length", 2)
    reach = m - 1
    level = 0
    while reach * 2 <= n:
        reach *= 2
        level += 1
    return level


def band_lengths(n_samples: int, filter_length: int) -> tuple[int, ...]:
    """Approximation lengths (coarsest first) of the full-depth pyramid of n.

    The one place that decides a depth, and the one length rule: a pyramid
    has ``max_level`` levels, so a series too short for one level raises
    InvalidInput naming its length and the filter length.  Applies
    len_next = floor((len + M - 1) / 2) repeatedly; the last entry is
    ``n_samples`` itself.
    """
    n = as_integer(n_samples, "n_samples")
    m = as_integer(filter_length, "filter_length")
    depth = max_level(n, m)
    if depth < 1:
        raise InvalidInput(
            f"series of length {n} supports no decomposition level of a length-{m} filter"
        )
    out = [n]
    for _ in range(depth):
        out.append((out[-1] + m - 1) // 2)
    return tuple(reversed(out))


def _bank(lo, hi) -> np.ndarray:
    """(2, M) matrix of a low- and a high-pass filter, each reversed."""
    return np.array((lo[::-1], hi[::-1]))


def _windows(padded: np.ndarray, m: int, count: int, start: int, hop: int) -> np.ndarray:
    """(..., m, count) strided view of the last axis of a C-ordered array.

    Entry [..., i, t] is padded[..., start + hop * t + i]: window t is m
    consecutive samples from start + hop * t.  No sample is copied.
    """
    step = padded.itemsize
    return np.ndarray(
        padded.shape[:-1] + (m, count),
        buffer=padded,
        offset=start * step,
        strides=padded.strides[:-1] + (step, hop * step),
    )


def _analyze(x: np.ndarray, bank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One analysis level along the last axis of a checked array, without checks.

    Output t of the full convolution with filter h, kept at index 2t + 1, is
    sum_i h[M - 1 - i] * padded[2t + 1 + i] over the signal zero-extended by
    M - 1 on each side.  The (M, L) windows are a strided view of
    ``padded``, so the one contraction reads every sample in place and
    allocates only its (..., 2, L) result.  It is an einsum, not a matmul:
    the BLAS and matmul loops fuse multiply-adds, so a pair that should
    cancel exactly (a haar detail of two equal samples) would leave 1e-17.
    """
    m = bank.shape[1]
    n = x.shape[-1]
    half = (n + m - 1) // 2
    padded = np.zeros(x.shape[:-1] + (n + 2 * (m - 1),))
    padded[..., m - 1 : m - 1 + n] = x
    out = np.einsum("bi,...it->...bt", bank, _windows(padded, m, half, 1, 2))
    return out[..., 0, :], out[..., 1, :]


def analyze_level(series, name: str) -> tuple[np.ndarray, np.ndarray]:
    """One analysis step of the registry wavelet ``name`` (case-insensitive).

    A zero-padded convolution and downsampling by 2 of one 1-D series.
    Returns (approximation, detail), each of length floor((n + M - 1) / 2).
    One level takes any non-empty n: the zero padding defines it below the
    filter length too.  An empty series is InvalidInput.
    """
    wf = filterbank.get_filter(name)
    x = as_array(series, "series", 1)
    if not x.size:
        raise InvalidInput("empty series")
    return _analyze(x, _bank(wf.dec_lo, wf.dec_hi))


def _synthesize_level(
    approx: np.ndarray, detail: np.ndarray, bank: np.ndarray, out_len: int
) -> np.ndarray:
    """One synthesis level along the last axis of two equal-shape bands, without checks.

    Each band is upsampled by 2 and fully convolved with its reconstruction
    filter; the sum, trimmed by M - 2 samples on each side and cut to
    ``out_len``, is the next approximation.  Both upsampled bands sit in one
    zero-extended (..., 2, 2L + 2M - 3) buffer, so sample t of the result is
    sum_{b,i} bank[b, i] * padded[b, t + M - 2 + i], with ``bank`` holding
    the reversed filters: one einsum over a strided (..., 2, M, out_len)
    view, with multiply-adds not fused (see ``_analyze``).
    """
    m = bank.shape[1]
    n = approx.shape[-1]
    padded = np.zeros(approx.shape[:-1] + (2, 2 * n + 2 * m - 3))
    padded[..., 0, m - 1 : m - 1 + 2 * n : 2] = approx
    padded[..., 1, m - 1 : m - 1 + 2 * n : 2] = detail
    return np.einsum("bi,...bit->...t", bank, _windows(padded, m, out_len, m - 2, 1))


def decompose(series, name: str) -> CoefficientSet:
    """Full-depth pyramidal analysis of a series.

    ``name`` is a registry wavelet name (case-insensitive); the set records
    the registry's spelling.  The depth is ``max_level``; at depth 0 no
    level runs and the set's ``band_lengths`` raises its InvalidInput for a
    series too short for one level, the empty series included.
    Deterministic and bit-reproducible for identical inputs.
    """
    wf = filterbank.get_filter(name)
    x = as_array(series, "series", 1)
    n = x.size
    depth = max_level(n, wf.filter_length)
    bank = _bank(wf.dec_lo, wf.dec_hi)
    approx = x
    details: list[np.ndarray] = []
    for _ in range(depth):
        approx, det = _analyze(approx, bank)
        details.append(det)
    details.reverse()  # coarsest first
    return CoefficientSet(
        wavelet_name=wf.name,
        original_length=n,
        approx=approx,
        details=tuple(details),
    )


def coarse_features(values, name: str) -> np.ndarray:
    """(c0, d0, d1) of every row of a 2-D (rows x samples) array, in one product.

    ``name`` is a registry wavelet name (case-insensitive).  The selection
    is a fixed linear map of each row, so the features are ``values``
    times the operator that ``_operator_t`` assembles.  Row i agrees
    with ``select_coarse(decompose(values[i], name))`` to
    rounding (the product fuses multiply-adds, so a haar detail that
    cancels exactly in ``decompose`` may leave 1e-17 here), and rows that
    call rejects raise the same error here.  The product reads a C-ordered
    copy of F-ordered or strided input (C-ordered input is not copied), so
    equal values give equal bytes in every memory layout.
    """
    wf = filterbank.get_filter(name)
    x = np.ascontiguousarray(as_array(values, "values", 2))
    operator_t = _operator_t(wf, x.shape[-1])
    # x @ operator, computed transposed: BLAS then packs the panel in small
    # blocks per thread instead of panel-wide strips (7 MB less at
    # 3,000 x 846); the copy gives the features their row-major layout.
    return np.ascontiguousarray((operator_t @ x.T).T)


def _operator_t(wf: WaveletFilter, n: int) -> np.ndarray:
    """(p, n) C-ordered matrix whose row f maps a series to feature f.

    Row f is the adjoint pyramid applied to unit feature f.  The adjoint of
    one analysis level is one synthesis level whose bank rows are the
    analysis filters themselves (``_analyze`` correlates where
    ``_synthesize_level`` convolves), so row f is the cached shape of a unit
    coefficient under the reversed analysis filters: c0 and d0 enter J
    levels above the series, d1 one level lower.  The product's bytes
    depend on this layout, so the rows are filled in place.

    Row j of a band is the band's shape placed at position j and cropped
    to the series by ``_crop``, the placement ``reconstruct_single`` uses.
    """
    bands = _coarse_bands(n, wf.filter_length)
    filters = (tuple(wf.dec_lo[::-1].tolist()), tuple(wf.dec_hi[::-1].tolist()))
    operator_t = np.zeros((sum(size for *_, size in bands), n))
    row = 0
    for _, band, k, size in bands:
        unit = _shape(filters, band, k)
        for j in range(size):
            start, values = _crop(unit, j, n)
            operator_t[row + j, start : start + len(values)] = values
        row += size
    return operator_t


def reconstruct(coeffs: CoefficientSet) -> np.ndarray:
    """Inverse transform back to a series of the original length.

    Levels run one by one down to the finest detail band that holds a
    nonzero value.  Below it the k levels carry the approximation alone,
    and those equal one placement of the k-level approximation shape
    (``_place``), within rounding.  A set whose finest band is nonzero runs
    every level; an all-zero set gives +0.0 everywhere.
    """
    wf = filterbank.get_filter(coeffs.wavelet_name)
    bank = _bank(wf.rec_lo, wf.rec_hi)
    approx = coeffs.approx
    synthesized = coeffs.levels
    while synthesized and not np.count_nonzero(coeffs.details[synthesized - 1]):
        synthesized -= 1
    for i in range(synthesized):
        approx = _synthesize_level(approx, coeffs.details[i], bank, coeffs.lengths[i + 1])
    if synthesized == coeffs.levels:
        return approx
    rec = (tuple(wf.rec_lo.tolist()), tuple(wf.rec_hi.tolist()))
    return _place(approx, _shape(rec, "approx", coeffs.levels - synthesized), coeffs.original_length)


def truncate_to_level(coeffs: CoefficientSet, keep_levels: int) -> CoefficientSet:
    """Copy with every detail band of index >= keep_levels zeroed.

    keep_levels = m keeps c0, d0, ..., d_{m-1}; band lengths are unchanged,
    so the truncated set reconstructs a smoothed series of the same length.
    """
    keep = as_integer(keep_levels, "keep_levels")
    if not 0 <= keep <= coeffs.levels:
        raise InvalidInput(f"keep_levels={shown(keep)} outside 0..{coeffs.levels}")
    kept, dropped = coeffs.details[:keep], coeffs.details[keep:]
    details = tuple(det.copy() for det in kept) + tuple(np.zeros(len(det)) for det in dropped)
    return CoefficientSet(coeffs.wavelet_name, coeffs.original_length, coeffs.approx.copy(), details)


def select_coarse(coeffs: CoefficientSet) -> np.ndarray:
    """Feature vector c0 || d0 || d1, the coarse-trend coefficients."""
    m = filterbank.get_filter(coeffs.wavelet_name).filter_length
    _coarse_bands(coeffs.original_length, m)  # refuses a pyramid too shallow for d1
    return np.concatenate([coeffs.approx, coeffs.details[0], coeffs.details[1]], axis=-1)


def _coarse_bands(n: int, m: int) -> tuple[tuple[str, str, int, int], ...]:
    """(name, band, k, length) of c0, d0 and d1 at full depth J, in feature order.

    k is how many levels above the series the band sits: J for c0 and d0,
    J - 1 for d1.  A pyramid too shallow for d1 is InvalidInput, in
    ``band_lengths``' words.
    """
    lengths = band_lengths(n, m)
    depth = len(lengths) - 1
    if depth < 2:
        raise InvalidInput(
            f"series of length {n} supports {depth} decomposition level of a length-{m} "
            "filter; selecting (c0, d0, d1) needs 2"
        )
    return (
        ("c0", "approx", depth, lengths[0]),
        ("d0", "detail", depth, lengths[0]),
        ("d1", "detail", depth - 1, lengths[1]),
    )


def selected_length(n_samples: int, filter_length: int) -> int:
    """Length of the (c0, d0, d1) feature vector for an n-sample series."""
    return sum(size for *_, size in _coarse_bands(n_samples, filter_length))


def coefficient_names(n_samples: int, filter_length: int) -> list[str]:
    """Names of the selected coefficients, e.g. 'c0,2' or 'd1,7'."""
    bands = _coarse_bands(n_samples, filter_length)
    return [f"{name},{i}" for name, _, _, size in bands for i in range(size)]


def reconstruct_single(coeffs: CoefficientSet, which: CoefficientIndex) -> np.ndarray:
    """Inverse transform keeping only the addressed coefficient.

    The inverse transform is linear, so this is the coefficient's value
    times the series its unit vector synthesizes to: the band's cached
    ``_shape``, placed at its position and cropped to the series.  Summing
    these over all addresses reproduces the full reconstruction.  Every
    call returns a new array; a zero coefficient gives +0.0 everywhere,
    including the cropped ends of its shape.  A band other than 'approx'
    or 'detail', and a level or position that is not an integer or lies
    outside the pyramid, is InvalidInput.
    """
    wf = filterbank.get_filter(coeffs.wavelet_name)
    if which.band == "approx":
        level = as_integer(which.level, "approx level")
        if level != 0:
            raise InvalidInput(f"approx band has level 0 only, got {shown(level)}")
        band, name = coeffs.approx, "approx"
    elif which.band == "detail":
        level = as_integer(which.level, "detail level")
        if not 0 <= level < coeffs.levels:
            raise InvalidInput(f"detail level {shown(level)} outside 0..{coeffs.levels - 1}")
        band, name = coeffs.details[level], f"detail {level}"
    else:
        raise InvalidInput(f"band must be 'approx' or 'detail', got {which.band!r}")
    position = as_integer(which.position, f"{name} position")
    if not 0 <= position < len(band):
        raise InvalidInput(f"{name} position {shown(position)} outside 0..{len(band) - 1}")
    rec = (tuple(wf.rec_lo.tolist()), tuple(wf.rec_hi.tolist()))
    n = coeffs.original_length
    start, values = _crop(_shape(rec, which.band, coeffs.levels - level), position, n)
    out = np.zeros(n)
    placed = out[start : start + len(values)]
    np.multiply(values, band[position], out=placed)
    placed += 0.0  # turns -0.0 into 0.0
    return out


# Shapes kept by _shape.  Reconstructing every (c0, d0, d1) coefficient of
# series of one length, and their levels:m smooth, needs 40: three bands and
# the tail shape below m levels for each of the 10 distinct filter pairs
# among the 15 names; the features of those series use the same three bands.
_SHAPE_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _shape(
    filters: tuple[tuple[float, ...], tuple[float, ...]], band: str, k: int
) -> tuple[int, int, np.ndarray]:
    """What a unit coefficient of ``band`` k levels above the series synthesizes to.

    ``filters`` is the (lo, hi) pair of filter values the synthesis
    convolves with, so wavelets with equal filters share entries.  Returns
    (offset, step, shape): ``shape`` is the read-only span from the first
    to the last nonzero sample, and unit j of the band places it at
    offset + step * j, step = 2**k, before the series crops it.

    Unit j spreads to samples from 2**k * j - (M - 2) * (2**k - 1) on, and
    samples a level crops never reach the kept range of the next.  So the
    shape is synthesized once, for a unit at position M - 2 of a band just
    long enough that no level crops it (its start is then M - 2 at every
    level), and every unit of the band is that shape shifted by 2**k per
    position and cropped to the series.  Hence the key holds neither the
    series length nor the band lengths.
    """
    bank = _bank(*filters)
    m = bank.shape[1]
    unit = np.zeros(m - 1)
    unit[m - 2] = 1.0
    zero = np.zeros_like(unit)
    approx, detail = (unit, zero) if band == "approx" else (zero, unit)
    for _ in range(k):
        approx = _synthesize_level(approx, detail, bank, 2 * len(approx))
        detail = np.zeros_like(approx)
    nonzero = np.flatnonzero(approx)
    shape = approx[nonzero[0] : nonzero[-1] + 1]
    shape.flags.writeable = False
    step = 2**k
    return int(nonzero[0]) - step * (m - 2), step, shape


def _place(approx: np.ndarray, unit: tuple[int, int, np.ndarray], n: int) -> np.ndarray:
    """Every position of an approximation band placed with its ``_shape``, summed and cropped to n.

    With the shape zero-extended to ``taps`` whole steps, output offset +
    step * q + r is sum_i approx[q - i] * shape[r + step * i]: per phase r,
    a full convolution of the band with every step-th shape sample.  One
    einsum takes every phase at once, over the (taps, step) phase matrix
    and a reversed strided view of the band zero-extended by taps - 1 on
    each side.  Multiply-adds are not fused (see ``_analyze``).
    """
    offset, step, shape = unit
    taps = -(-len(shape) // step)
    phases = np.zeros((taps, step))
    phases.ravel()[: len(shape)] = shape
    count = len(approx) + taps - 1
    padded = np.zeros(count + taps - 1)
    padded[taps - 1 : taps - 1 + len(approx)] = approx
    windows = _windows(padded, taps, count, 0, 1)[::-1]  # [i, q] = approx[q - i]
    placed = np.einsum("ir,iq->qr", phases, windows).ravel()
    start, values = _crop((offset, step, placed), 0, n)
    out = np.zeros(n)
    np.add(values, 0.0, out=out[start : start + len(values)])  # + 0.0 turns -0.0 into 0.0
    return out


def _crop(unit: tuple[int, int, np.ndarray], position: int, n: int) -> tuple[int, np.ndarray]:
    """(start, values) of a ``_shape`` entry placed at ``position``, cropped to [0, n)."""
    offset, step, shape = unit
    lo = offset + step * position
    # clamped without max() and min(), whose calls cost half of this function
    start = lo if lo > 0 else 0
    end = lo + len(shape)
    end = n if end > n else end
    # a unit cropped whole ends at its start: past the series, end - lo < 0 would wrap around
    end = start if end < start else end
    return start, shape[start - lo : end - lo]
