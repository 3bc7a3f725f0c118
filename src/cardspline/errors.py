"""Exception hierarchy for the cardspline package."""


class CardsplineError(Exception):
    """Base class for all cardspline errors."""


class ParameterDomainError(CardsplineError):
    """Raised when spline parameters lie outside the supported domain."""


class QuadratureConvergenceError(CardsplineError):
    """Raised when an adaptive quadrature fails to converge within its sample cap."""


class ToleranceUnreachableError(CardsplineError):
    """Raised when a requested tolerance cannot be certified."""


class WindowOverflowError(CardsplineError):
    """Raised when a summation window would exceed its hard cap, or when the
    requested tolerance is unattainable for the given data growth."""


class MissingDataError(CardsplineError):
    """Raised when a data sequence cannot supply a sample inside the window."""


class UnknownTargetError(CardsplineError):
    """Raised for an unrecognized band-limited target name."""


class UnknownBasisError(CardsplineError):
    """Raised for an unrecognized or out-of-span reproduction basis name."""


class DataFormatError(CardsplineError):
    """Raised for malformed data files (non-integer or duplicate indices, bad grids)."""
