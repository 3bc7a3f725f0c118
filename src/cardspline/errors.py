"""Exception hierarchy for the cardspline package.

Each class carries the CLI exit code of a run that ends in it: 2 for bad
parameters or input unless a class says otherwise."""


class CardsplineError(Exception):
    """Base class for all cardspline errors."""

    exit_code = 2


class ParameterDomainError(CardsplineError):
    """Raised when spline parameters lie outside the supported domain."""


class QuadratureConvergenceError(CardsplineError):
    """Raised when an adaptive quadrature fails to converge within its sample cap."""

    exit_code = 3


class ToleranceUnreachableError(CardsplineError):
    """Raised when a requested tolerance cannot be certified."""

    exit_code = 3


class WindowOverflowError(CardsplineError):
    """Raised when a summation window would exceed its hard cap, or when the
    requested tolerance is unattainable for the given data growth."""

    exit_code = 4


class MissingDataError(CardsplineError):
    """Raised when a data sequence cannot supply a sample inside the window."""


class UnknownTargetError(CardsplineError):
    """Raised for an unrecognized band-limited target name."""


class UnknownBasisError(CardsplineError):
    """Raised for an unrecognized or out-of-span reproduction basis name."""


class DataFormatError(CardsplineError):
    """Raised for malformed data files (non-integer or duplicate indices, bad
    grids) and for an output path that the run's other files would overwrite."""
