"""Exception types raised across the package.

Each class carries the CLI exit code it maps to: 2 usage error, 3 data
error, 4 numeric or degenerate error (the default).  A class exists for
an exit code, or for a failure the program itself catches
(``AnchorCollision``, caught by ``pipeline.co_occurrence``); every other
failure is one of these, and its message names the cause.
"""

import operator
from decimal import Decimal

import numpy as np


class TrendletError(Exception):
    """Base class for all trendlet errors."""

    exit_code = 4


class UnknownWavelet(TrendletError):
    """Requested wavelet name is not in the registry."""

    exit_code = 2


class ParseError(TrendletError):
    """The panel or its CSV is malformed: a bad cell or row, a missing date, no data rows."""

    exit_code = 3


class InvalidInput(TrendletError):
    """An argument violates a precondition: shape, range, finiteness, depth or degeneracy."""


class AnchorCollision(TrendletError):
    """Two anchor entities fell into the same cluster."""


def shown(number: int) -> str:
    """How a message shows an integer: in full while Python prints it
    (``sys.get_int_max_str_digits()``, 4,300 digits by default), else as its
    sign and digit count, such as ``-<5,001-digit integer>``."""
    try:
        return str(number)
    except ValueError:
        sign = "-" if number < 0 else ""
        return f"{sign}<{Decimal(number).adjusted() + 1:,}-digit integer>"


def as_integer(value, what: str, minimum: int | None = None) -> int:
    """``value`` as an int, for depths, counts and seeds: an int, a NumPy
    integer or anything else ``operator.index`` takes; a float is
    InvalidInput, never truncated.  Below ``minimum`` is InvalidInput too:
    "must be non-negative" for 0, "must be >= minimum" otherwise."""
    try:
        number = operator.index(value)
    except TypeError:
        raise InvalidInput(f"{what} must be an integer, got {value!r}") from None
    if minimum is not None and number < minimum:
        bound = "non-negative" if minimum == 0 else f">= {minimum}"
        raise InvalidInput(f"{what} must be {bound}, got {shown(number)}")
    return number


def as_array(value, what: str, ndim: int) -> np.ndarray:
    """``value`` as a float64 array of rank ``ndim`` whose entries are all finite.

    A number is a bool, an integer or a float.  Anything else (a ragged
    list, strings, complex, None, an int too large for NumPy), another rank
    and a nan or inf are InvalidInput.  A float64 array is not copied.
    """
    try:
        array = np.asarray(value)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"{what} is not an array: {exc}") from None
    if array.dtype.kind not in "biuf":
        raise InvalidInput(f"{what} must hold bools, integers or floats, got dtype {array.dtype}")
    if array.ndim != ndim:
        rank = "a single number" if ndim == 0 else f"{ndim}-D"
        raise InvalidInput(f"{what} must be {rank}, got shape {array.shape}")
    array = array.astype(np.float64, copy=False)
    if not all_finite(array):
        raise InvalidInput(f"{what} contains non-finite values")
    return array


# Values checked per step by all_finite: its bool mask stays at 64 KB.
_FINITE_CHUNK = 1 << 16


def all_finite(array: np.ndarray) -> bool:
    """Whether every entry is finite, checked in chunks of its values in
    memory order (``ravel(order="K")``), so a C- or F-contiguous array is
    neither copied nor shadowed by a full-size mask."""
    flat = array.ravel(order="K")
    for start in range(0, flat.size, _FINITE_CHUNK):
        if not np.isfinite(flat[start : start + _FINITE_CHUNK]).all():
            return False
    return True
