"""Polyhyperbolic cardinal splines.

Construction and evaluation of the fundamental function of interpolation for
the operator (D^2 - a^2)^k on the integer lattice, cardinal interpolation of
polynomially growing data, and spectral error analysis for band-limited
targets.
"""

__version__ = "0.1.0"

from .bandlimited_analysis import (BandlimitedTarget, ErrorReport,
                                   aliasing_envelope, error_sweep,
                                   gallery_names, l2_error_bound,
                                   l2_error_spectral, sup_error_grid,
                                   target_gallery)
from .cardinal_interpolation import (DataSequence, FundamentalFunction,
                                     GrowthModel, build_fundamental,
                                     eval_fundamental, interpolate_at,
                                     interpolate_grid, sequence_from_csv,
                                     sequence_from_rule, sequence_from_table)
from .errors import (CardsplineError, DataFormatError, MissingDataError,
                     ParameterDomainError,
                     QuadratureConvergenceError, ToleranceUnreachableError,
                     UnknownBasisError, UnknownTargetError,
                     WindowOverflowError)
from .greens_kernel import (GreenKernel, K_MAX, SplineParams,
                            build_green_kernel, eval_green, eval_green_hat)
from .spectral_symbol import (CoefficientTable, compute_coefficients,
                              fundamental_hat, periodized_green_hat)

__all__ = [
    "BandlimitedTarget", "CardsplineError", "CoefficientTable", "DataFormatError",
    "DataSequence", "ErrorReport", "FundamentalFunction",
    "GreenKernel", "GrowthModel", "K_MAX", "MissingDataError",
    "ParameterDomainError", "QuadratureConvergenceError", "SplineParams",
    "ToleranceUnreachableError", "UnknownBasisError", "UnknownTargetError",
    "WindowOverflowError", "aliasing_envelope", "build_fundamental",
    "build_green_kernel", "compute_coefficients", "error_sweep",
    "eval_fundamental", "eval_green", "eval_green_hat", "fundamental_hat",
    "gallery_names", "interpolate_at", "interpolate_grid", "l2_error_bound",
    "l2_error_spectral", "periodized_green_hat", "sequence_from_csv",
    "sequence_from_rule", "sequence_from_table", "sup_error_grid", "target_gallery",
]
