"""Exception types raised across the package.

Each class carries the CLI exit code it maps to: 2 usage error, 3 data
error, 4 numeric or degenerate error (the default).
"""

import operator

import numpy as np


class TrendletError(Exception):
    """Base class for all trendlet errors."""

    exit_code = 4


class UnknownWavelet(TrendletError):
    """Requested wavelet name is not in the registry."""

    exit_code = 2


class InvalidInput(TrendletError):
    """Input violates a precondition (shape, range, finiteness)."""


class InsufficientDepth(TrendletError):
    """Decomposition too shallow to select the coarse bands c0, d0, d1."""


class IndexOutOfRange(TrendletError):
    """Coefficient address outside the pyramid."""


class ParseError(TrendletError):
    """Malformed CSV cell or row."""

    exit_code = 3


class GapError(TrendletError):
    """Date column is not gap-free at daily frequency."""

    exit_code = 3


class EmptyInput(TrendletError):
    """No data rows found."""

    exit_code = 3


class DegenerateSeries(TrendletError):
    """A series cannot be z-scored (constant, or its scale over- or underflows)."""


class Degenerate(TrendletError):
    """Fewer distinct points than requested clusters."""


class AnchorCollision(TrendletError):
    """Two anchor entities fell into the same cluster."""


class RequiresTwoComponents(TrendletError):
    """Biplot needs at least two principal components."""


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
        raise InvalidInput(f"{what} must be {bound}, got {number}")
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
    if not np.isfinite(array).all():
        raise InvalidInput(f"{what} contains non-finite values")
    return array
