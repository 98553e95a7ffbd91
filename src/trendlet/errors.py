"""Exception types raised across the package.

Each class carries the CLI exit code it maps to: 2 usage error, 3 data
error, 4 numeric or degenerate error (the default).
"""


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
