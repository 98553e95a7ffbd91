"""Pyramidal discrete wavelet transform with zero-padded boundaries.

One analysis level convolves the current approximation with the
decomposition filters against a zero-extended signal and keeps every second
sample, so a length-n band shrinks to floor((n + M - 1) / 2) for filter
length M.  Zero padding makes the transform slightly redundant at the
boundaries, which is exactly what keeps it perfectly invertible: synthesis
upsamples, convolves with the reconstruction filters and trims the M - 2
boundary samples from each side, then cuts back to the stored band length.

The one analysis kernel runs along the last axis, so a level of one series
and a level of a whole (rows x samples) panel are the same call:
``decompose`` runs it on one series.  Inputs are checked once per call,
not once per level.

The one synthesis kernel runs along the last axis too: ``reconstruct`` runs
it on one series.

The pyramid is linear, and both diagnostics read its map from one cache,
``_shape``: what a unit coefficient k levels above the series synthesizes
to, which every position of a band shifts by 2**k and crops to the series.
``reconstruct_single`` scales the shape the reconstruction filters give.
The adjoint of an analysis level is a synthesis level whose bank rows are
the analysis filters, so ``coarse_features`` assembles its operator from
the shapes the reversed analysis filters give and takes one matrix
product.  Those reversed pairs are the reconstruction pairs of the 15
names (bior X pairs with rbio X), and equal filters (haar = db1 = bior1.1
= rbio1.1, sym2 = db2, sym3 = db3) give one key, so the two uses share
every entry.  Only the features lose exact cancellation to the product's
fused multiply-adds; ``decompose`` and the reconstructions keep the einsum
kernels.

The decomposition depth is capped at the largest J such that
(M - 1) * 2**J <= n (for M = 2: 2**J <= n), the depth at which at least one
coefficient per band is free of boundary effects.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, replace

import numpy as np

from . import filterbank
from .errors import IndexOutOfRange, InsufficientDepth, InvalidInput, as_integer
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

    ``details[0]`` is the coarsest detail band d0.  ``lengths`` holds the
    approximation length at every level from coarsest to the original:
    lengths[0] == len(approx) == len(details[0]), lengths[i] == len(details[i])
    for i >= 1, and lengths[levels] == original_length.
    """

    wavelet_name: str
    original_length: int
    levels: int
    approx: np.ndarray
    details: tuple[np.ndarray, ...]
    lengths: tuple[int, ...]


@dataclass(frozen=True)
class CoefficientIndex:
    """Address of one coefficient: band 'approx' or 'detail', level, position.

    Detail level 0 is the coarsest band d0.  The level of the approximation
    band must be 0 (there is only c0 in a completed pyramid).
    """

    band: str
    level: int
    position: int


def _resolve(wavelet: str | WaveletFilter) -> WaveletFilter:
    if isinstance(wavelet, WaveletFilter):
        return wavelet
    return filterbank.get_filter(wavelet)


def max_level(n_samples: int, filter_length: int) -> int:
    """Deepest usable decomposition level for a length-n signal.

    Largest J with (M - 1) * 2**J <= n, computed in integer arithmetic;
    the M = 2 case degenerates to 2**J <= n.
    """
    n = as_integer(n_samples, "n_samples")
    m = as_integer(filter_length, "filter_length")
    if m < 2:
        raise InvalidInput(f"filter length must be >= 2, got {m}")
    if n < m:
        raise InvalidInput(f"series of length {n} is shorter than the filter ({m})")
    reach = m - 1 if m > 2 else 1
    level = 0
    while reach * 2 <= n:
        reach *= 2
        level += 1
    return level


def band_lengths(n_samples: int, filter_length: int, levels: int | None = None) -> tuple[int, ...]:
    """Approximation lengths (coarsest first) down ``levels`` steps from n.

    Applies len_next = floor((len + M - 1) / 2) repeatedly; the last entry
    is ``n_samples`` itself.
    """
    n = as_integer(n_samples, "n_samples")
    m = as_integer(filter_length, "filter_length")
    depth = max_level(n, m) if levels is None else as_integer(levels, "levels")
    if levels is not None and not 0 <= depth <= max_level(n, m):
        raise InvalidInput(f"levels={depth} outside 0..{max_level(n, m)} for n={n}, M={m}")
    out = [n]
    for _ in range(depth):
        out.append((out[-1] + m - 1) // 2)
    return tuple(reversed(out))


_SHAPES = {1: "a 1-D series", 2: "a 2-D (rows x samples) array"}


def _as_signal(series, wf: WaveletFilter, ndims: tuple[int, ...] = (1,)) -> np.ndarray:
    """``series`` as float64, checked once per call: shape, values, length."""
    x = np.asarray(series, dtype=np.float64)
    if x.ndim not in ndims:
        shapes = " or ".join(_SHAPES[d] for d in ndims)
        raise InvalidInput(f"expected {shapes}, got shape {x.shape}")
    n = x.shape[-1]
    if n == 0:
        raise InvalidInput("empty series")
    if not np.all(np.isfinite(x)):
        raise InvalidInput("series contains non-finite values")
    if n < wf.filter_length:
        raise InvalidInput(
            f"series of length {n} is shorter than the {wf.name} filter ({wf.filter_length})"
        )
    return x


def _bank(lo, hi) -> np.ndarray:
    """(2, M) matrix of a low- and a high-pass filter, each reversed."""
    return np.array((lo[::-1], hi[::-1]))


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
    if not padded.size:  # an array of no rows: nothing to view, nothing to compute
        return padded[..., :half], padded[..., :half]
    step = padded.itemsize
    windows = np.ndarray(
        x.shape[:-1] + (m, half),
        buffer=padded,
        offset=step,
        strides=padded.strides[:-1] + (step, 2 * step),
    )
    out = np.einsum("bi,...it->...bt", bank, windows)
    return out[..., 0, :], out[..., 1, :]


def analyze_level(series, wavelet: str | WaveletFilter) -> tuple[np.ndarray, np.ndarray]:
    """One analysis step: zero-padded convolution and downsampling by 2.

    Works along the last axis of one series or of a 2-D (rows x samples)
    array.  Returns (approximation, detail), each of length
    floor((n + M - 1) / 2) along that axis.
    """
    wf = _resolve(wavelet)
    return _analyze(_as_signal(series, wf, (1, 2)), _bank(wf.dec_lo, wf.dec_hi))


def _depth(n: int, wf: WaveletFilter, levels: int | None) -> int:
    deepest = max_level(n, wf.filter_length)
    depth = deepest if levels is None else as_integer(levels, "levels")
    if depth < 1:
        raise InvalidInput(f"series of length {n} supports no {wf.name} decomposition level")
    if depth > deepest:
        raise InvalidInput(f"levels={depth} exceeds max level {deepest} for n={n}")
    return depth


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
    step = padded.itemsize
    windows = np.ndarray(
        padded.shape[:-1] + (m, out_len),
        buffer=padded,
        offset=(m - 2) * step,
        strides=padded.strides[:-1] + (step, step),
    )
    return np.einsum("bi,...bit->...t", bank, windows)


def decompose(series, wavelet: str | WaveletFilter, levels: int | None = None) -> CoefficientSet:
    """Full pyramidal analysis of a series down to ``levels`` (default: max).

    Deterministic and bit-reproducible for identical inputs.
    """
    wf = _resolve(wavelet)
    x = _as_signal(series, wf)
    n = x.size
    depth = _depth(n, wf, levels)
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
        levels=depth,
        approx=approx,
        details=tuple(details),
        lengths=band_lengths(n, wf.filter_length, depth),
    )


def coarse_features(values, wavelet: str | WaveletFilter) -> np.ndarray:
    """(c0, d0, d1) of every row of a 2-D (rows x samples) array, in one product.

    The selection is a fixed linear map of each row, so the features are
    ``values`` times the operator that ``_operator_t`` assembles.  Row i
    agrees with ``select_coarse(decompose(values[i], wavelet))`` to
    rounding (the product fuses multiply-adds, so a haar detail that
    cancels exactly in ``decompose`` may leave 1e-17 here), and rows that
    call rejects raise the same error here.
    """
    wf = _resolve(wavelet)
    x = _as_signal(values, wf, (2,))
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

    Row j of a band holds the shape at column offset + step * j, cropped
    to the series: the length-n window, starting step * j samples further
    left per row, of one zero-padded copy of the shape.  So a band is one
    strided view of that copy, written with one assignment.
    """
    depth = _depth(n, wf, None)
    _check_selectable(depth)
    lengths = band_lengths(n, wf.filter_length, depth)
    filters = (tuple(wf.dec_lo[::-1].tolist()), tuple(wf.dec_hi[::-1].tolist()))
    bands = (
        ("approx", depth, lengths[0]),
        ("detail", depth, lengths[0]),
        ("detail", depth - 1, lengths[1]),
    )
    operator_t = np.empty((2 * lengths[0] + lengths[1], n))  # every row is written whole
    row = 0
    for band, k, size in bands:
        offset, step, shape = _shape(filters, band, k)
        # row j is the length-n window of padded from lead - offset - step * j
        # on; the pads keep the windows of all size rows inside it
        lead = max(0, offset + step * (size - 1))
        padded = np.zeros(lead + len(shape) + max(0, n - offset - len(shape)))
        padded[lead : lead + len(shape)] = shape
        last = lead - offset - step * (size - 1)  # the last row's window start
        windows = np.ndarray(  # a view, checked to lie inside padded
            (size, n),
            buffer=padded,
            offset=last * padded.itemsize,
            strides=(step * padded.itemsize, padded.itemsize),
        )
        operator_t[row : row + size] = windows[::-1]
        row += size
    return operator_t


def _check_set(coeffs: CoefficientSet) -> WaveletFilter:
    wf = filterbank.get_filter(coeffs.wavelet_name)
    expect = band_lengths(coeffs.original_length, wf.filter_length, coeffs.levels)
    if coeffs.lengths != expect:
        raise InvalidInput(f"stored lengths {coeffs.lengths} do not match recurrence {expect}")
    if len(coeffs.details) != coeffs.levels:
        raise InvalidInput(
            f"{len(coeffs.details)} detail bands for {coeffs.levels} levels"
        )
    if len(coeffs.approx) != expect[0]:
        raise InvalidInput(f"approx band has length {len(coeffs.approx)}, expected {expect[0]}")
    for i, det in enumerate(coeffs.details):
        if len(det) != expect[i]:
            raise InvalidInput(f"detail band {i} has length {len(det)}, expected {expect[i]}")
    return wf


def reconstruct(coeffs: CoefficientSet) -> np.ndarray:
    """Inverse transform back to a series of the original length."""
    wf = _check_set(coeffs)
    bank = _bank(wf.rec_lo, wf.rec_hi)
    approx = coeffs.approx
    for i, det in enumerate(coeffs.details):
        approx = _synthesize_level(approx, det, bank, coeffs.lengths[i + 1])
    return approx


def truncate_to_level(coeffs: CoefficientSet, keep_levels: int) -> CoefficientSet:
    """Copy with every detail band of index >= keep_levels zeroed.

    keep_levels = m keeps c0, d0, ..., d_{m-1}; band lengths are unchanged,
    so the truncated set reconstructs a smoothed series of the same length.
    """
    keep = as_integer(keep_levels, "keep_levels")
    if not 0 <= keep <= coeffs.levels:
        raise InvalidInput(f"keep_levels={keep} outside 0..{coeffs.levels}")
    details = tuple(
        det.copy() if i < keep else np.zeros_like(det) for i, det in enumerate(coeffs.details)
    )
    return replace(coeffs, approx=coeffs.approx.copy(), details=details)


def _check_selectable(levels: int) -> None:
    if levels < 2:
        raise InsufficientDepth(f"need at least 2 levels to select (c0, d0, d1); have {levels}")


def select_coarse(coeffs: CoefficientSet) -> np.ndarray:
    """Feature vector c0 || d0 || d1, the coarse-trend coefficients."""
    _check_selectable(coeffs.levels)
    return np.concatenate([coeffs.approx, coeffs.details[0], coeffs.details[1]], axis=-1)


def selected_length(n_samples: int, filter_length: int) -> int:
    """Length of the (c0, d0, d1) feature vector for an n-sample series."""
    lengths = band_lengths(n_samples, filter_length)
    _check_selectable(len(lengths) - 1)
    return 2 * lengths[0] + lengths[1]


def coefficient_names(n_samples: int, filter_length: int) -> list[str]:
    """Names of the selected coefficients, e.g. 'c0,2' or 'd1,7'."""
    lengths = band_lengths(n_samples, filter_length)
    _check_selectable(len(lengths) - 1)
    names = [f"c0,{i}" for i in range(lengths[0])]
    names += [f"d0,{i}" for i in range(lengths[0])]
    names += [f"d1,{i}" for i in range(lengths[1])]
    return names


def _index(value, what: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise IndexOutOfRange(f"{what} must be an integer, got {value!r}") from None


def reconstruct_single(coeffs: CoefficientSet, which: CoefficientIndex) -> np.ndarray:
    """Inverse transform keeping only the addressed coefficient.

    The inverse transform is linear, so this is the coefficient's value
    times the series its unit vector synthesizes to: the band's cached
    ``_shape``, placed at its position and cropped to the series.  Summing
    these over all addresses reproduces the full reconstruction.  Every
    call returns a new array; a zero coefficient gives +0.0 everywhere,
    including the cropped ends of its shape.
    """
    wf = _check_set(coeffs)
    if which.band == "approx":
        level = _index(which.level, "approx level")
        if level != 0:
            raise IndexOutOfRange(f"approx band has level 0 only, got {level}")
        band, name = coeffs.approx, "approx"
    elif which.band == "detail":
        level = _index(which.level, "detail level")
        if not 0 <= level < coeffs.levels:
            raise IndexOutOfRange(f"detail level {level} outside 0..{coeffs.levels - 1}")
        band, name = coeffs.details[level], f"detail {level}"
    else:
        raise IndexOutOfRange(f"band must be 'approx' or 'detail', got {which.band!r}")
    position = _index(which.position, f"{name} position")
    if not 0 <= position < len(band):
        raise IndexOutOfRange(f"{name} position {position} outside 0..{len(band) - 1}")
    rec = (tuple(wf.rec_lo.tolist()), tuple(wf.rec_hi.tolist()))
    n = coeffs.original_length
    start, values = _crop(_shape(rec, which.band, coeffs.levels - level), position, n)
    out = np.zeros(n)
    out[start : start + len(values)] = band[position] * values + 0.0  # + 0.0 turns -0.0 into 0.0
    return out


# Shapes kept by _shape.  Reconstructing every (c0, d0, d1) coefficient of
# series of one length needs 30: three bands for each of the 10 distinct
# filter pairs among the 15 names; the features of those series use the
# same 30.
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


def _crop(unit: tuple[int, int, np.ndarray], position: int, n: int) -> tuple[int, np.ndarray]:
    """(start, values) of a ``_shape`` entry placed at ``position``, cropped to [0, n)."""
    offset, step, shape = unit
    lo = offset + step * position
    start = max(lo, 0)
    # a unit cropped whole ends at its start: past the series, end - lo < 0 would wrap around
    end = max(start, min(lo + len(shape), n))
    return start, shape[start - lo : end - lo]
