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
``decompose`` runs it on one series, ``coarse_features`` on blocks of a
panel's rows.  Inputs are checked once per call, not once per level.

The decomposition depth is capped at the largest J such that
(M - 1) * 2**J <= n (for M = 2: 2**J <= n), the depth at which at least one
coefficient per band is free of boundary effects.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import filterbank
from .errors import IndexOutOfRange, InsufficientDepth, InvalidInput
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
    n = int(n_samples)
    m = int(filter_length)
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
    n = int(n_samples)
    m = int(filter_length)
    depth = max_level(n, m) if levels is None else int(levels)
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


def _bank(wf: WaveletFilter) -> np.ndarray:
    """(2, M) matrix of the reversed analysis low- and high-pass filters."""
    return np.array((wf.dec_lo[::-1], wf.dec_hi[::-1]))


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
    return _analyze(_as_signal(series, wf, (1, 2)), _bank(wf))


def _depth(n: int, wf: WaveletFilter, levels: int | None) -> int:
    deepest = max_level(n, wf.filter_length)
    depth = deepest if levels is None else int(levels)
    if depth < 1:
        raise InvalidInput(f"series of length {n} supports no {wf.name} decomposition level")
    if depth > deepest:
        raise InvalidInput(f"levels={depth} exceeds max level {deepest} for n={n}")
    return depth


def _synthesize_level(
    approx: np.ndarray, detail: np.ndarray, wf: WaveletFilter, out_len: int
) -> np.ndarray:
    m = wf.filter_length
    up_lo = np.zeros(2 * len(approx) - 1)
    up_lo[::2] = approx
    up_hi = np.zeros(2 * len(detail) - 1)
    up_hi[::2] = detail
    merged = np.convolve(up_lo, wf.rec_lo) + np.convolve(up_hi, wf.rec_hi)
    if m > 2:
        merged = merged[m - 2 : len(merged) - (m - 2)]
    return merged[:out_len]


def decompose(series, wavelet: str | WaveletFilter, levels: int | None = None) -> CoefficientSet:
    """Full pyramidal analysis of a series down to ``levels`` (default: max).

    Deterministic and bit-reproducible for identical inputs.
    """
    wf = _resolve(wavelet)
    x = _as_signal(series, wf)
    n = x.size
    depth = _depth(n, wf, levels)
    bank = _bank(wf)
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


# Rows per kernel call in coarse_features: blocks of about 2 MB of samples
# keep the padded copy and the level's output in cache, and keep the
# transient memory small next to a panel of thousands of rows.
_BLOCK_BYTES = 1 << 21


def coarse_features(values, wavelet: str | WaveletFilter) -> np.ndarray:
    """(c0, d0, d1) of every row of a 2-D (rows x samples) array, in one pass.

    Row i agrees with ``select_coarse(decompose(values[i], wavelet))`` to
    rounding, and rows that call rejects raise the same error here.  Each
    level is one kernel call on a block of rows; only the two coarsest
    detail bands are kept along the way.
    """
    wf = _resolve(wavelet)
    x = _as_signal(values, wf, (2,))
    depth = _depth(x.shape[-1], wf, None)
    bank = _bank(wf)
    rows = max(1, _BLOCK_BYTES // (x.itemsize * x.shape[-1]))
    features = []
    for start in range(0, max(len(x), 1), rows):  # one empty block for no rows
        approx = x[start : start + rows]
        coarse: list[np.ndarray] = []
        for _ in range(depth):
            approx, det = _analyze(approx, bank)
            coarse = [det, *coarse[:1]]  # coarsest first
        features.append(_select(approx, coarse, depth))
    return np.concatenate(features)


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
    return _synthesize(coeffs, _check_set(coeffs))


def _synthesize(coeffs: CoefficientSet, wf: WaveletFilter) -> np.ndarray:
    approx = coeffs.approx
    for i, det in enumerate(coeffs.details):
        approx = _synthesize_level(approx, det, wf, coeffs.lengths[i + 1])
    return approx


def truncate_to_level(coeffs: CoefficientSet, keep_levels: int) -> CoefficientSet:
    """Copy with every detail band of index >= keep_levels zeroed.

    keep_levels = m keeps c0, d0, ..., d_{m-1}; band lengths are unchanged,
    so the truncated set reconstructs a smoothed series of the same length.
    """
    keep = int(keep_levels)
    if not 0 <= keep <= coeffs.levels:
        raise InvalidInput(f"keep_levels={keep} outside 0..{coeffs.levels}")
    details = tuple(
        det.copy() if i < keep else np.zeros_like(det) for i, det in enumerate(coeffs.details)
    )
    return replace(coeffs, approx=coeffs.approx.copy(), details=details)


def _select(approx: np.ndarray, details, levels: int) -> np.ndarray:
    if levels < 2:
        raise InsufficientDepth(f"need at least 2 levels to select (c0, d0, d1); have {levels}")
    return np.concatenate([approx, details[0], details[1]], axis=-1)


def select_coarse(coeffs: CoefficientSet) -> np.ndarray:
    """Feature vector c0 || d0 || d1, the coarse-trend coefficients."""
    return _select(coeffs.approx, coeffs.details, coeffs.levels)


def selected_length(n_samples: int, filter_length: int) -> int:
    """Length of the (c0, d0, d1) feature vector for an n-sample series."""
    lengths = band_lengths(n_samples, filter_length)
    if len(lengths) - 1 < 2:
        raise InsufficientDepth(
            f"series of length {n_samples} reaches only {len(lengths) - 1} "
            f"level(s) with filter length {filter_length}"
        )
    return 2 * lengths[0] + lengths[1]


def coefficient_names(n_samples: int, filter_length: int) -> list[str]:
    """Names of the selected coefficients, e.g. 'c0,2' or 'd1,7'."""
    lengths = band_lengths(n_samples, filter_length)
    if len(lengths) - 1 < 2:
        raise InsufficientDepth("no d1 band at this depth")
    names = [f"c0,{i}" for i in range(lengths[0])]
    names += [f"d0,{i}" for i in range(lengths[0])]
    names += [f"d1,{i}" for i in range(lengths[1])]
    return names


def reconstruct_single(coeffs: CoefficientSet, which: CoefficientIndex) -> np.ndarray:
    """Inverse transform keeping only the addressed coefficient.

    Everything else is zeroed first, so summing these over all addresses
    reproduces the full reconstruction (the inverse transform is linear).
    """
    wf = _check_set(coeffs)
    approx = np.zeros_like(coeffs.approx)
    details = tuple(np.zeros_like(det) for det in coeffs.details)
    if which.band == "approx":
        if which.level != 0:
            raise IndexOutOfRange(f"approx band has level 0 only, got {which.level}")
        if not 0 <= which.position < len(coeffs.approx):
            raise IndexOutOfRange(
                f"approx position {which.position} outside 0..{len(coeffs.approx) - 1}"
            )
        approx[which.position] = coeffs.approx[which.position]
    elif which.band == "detail":
        if not 0 <= which.level < coeffs.levels:
            raise IndexOutOfRange(f"detail level {which.level} outside 0..{coeffs.levels - 1}")
        band = coeffs.details[which.level]
        if not 0 <= which.position < len(band):
            raise IndexOutOfRange(
                f"detail {which.level} position {which.position} outside 0..{len(band) - 1}"
            )
        details[which.level][which.position] = band[which.position]
    else:
        raise IndexOutOfRange(f"band must be 'approx' or 'detail', got {which.band!r}")
    return _synthesize(replace(coeffs, approx=approx, details=details), wf)
