"""Green kernel of the operator (D^2 - a^2)^k on the real line.

Under the symmetric Fourier convention

    fhat(xi) = (2 pi)^{-1/2} int f(x) e^{-i x xi} dx,

the kernel E_k is the even function whose transform is

    Ehat_k(xi) = (-1)^k (xi^2 + a^2)^{-k}.

In space it has the closed form E_k(x) = e^{-a|x|} * p(|x|) with p a
polynomial of degree k-1.  The coefficients are generated by the
a-derivative recurrence: writing G_m for the inverse transform of
(xi^2+a^2)^{-m},

    G_1(x)     = sqrt(pi/2) e^{-a|x|} / a,
    G_{m+1}    = -(1/(2 m a)) dG_m/da,
    E_k        = (-1)^k G_k.

On the coefficient representation G_m = sqrt(pi/2) e^{-a|x|} sum_i q_{m,i}
a^{-(2m-1-i)} |x|^i the recurrence closes over rationals,

    q_{m+1,i} = ((2m-1-i) q_{m,i} + q_{m,i-1}) / (2m),   q_{1,0} = 1,

and is carried out exactly with Fraction arithmetic before the single
evaluation at the numeric a.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ParameterDomainError

# Beyond this order, symbol ratios like (pi^2+a^2)^{-k} reach the 1e-16
# underflow scale for a ~ 1 and double precision runs out of headroom.
K_MAX = 30

_SQRT_PI_OVER_2 = math.sqrt(math.pi / 2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class SplineParams:
    """The pair (a, k): decay rate of the operator and spline order.

    a must be strictly positive and 1 <= k <= K_MAX.
    """

    alpha: float
    k: int

    def __post_init__(self):
        if not (isinstance(self.k, (int, np.integer)) and not isinstance(self.k, bool)):
            raise ParameterDomainError(f"k must be an integer, got {self.k!r}")
        if not (1 <= self.k <= K_MAX):
            raise ParameterDomainError(f"k must satisfy 1 <= k <= {K_MAX}, got {self.k}")
        if not (isinstance(self.alpha, (int, float, np.floating)) and math.isfinite(self.alpha)):
            raise ParameterDomainError(f"alpha must be a finite real, got {self.alpha!r}")
        if self.alpha <= 0:
            raise ParameterDomainError(f"alpha must be > 0, got {self.alpha}")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "k", int(self.k))


@lru_cache(maxsize=None)
def _rational_poly(k: int) -> tuple:
    """Exact rational coefficients q_{k,i}, i = 0..k-1, of the recurrence."""
    q = [Fraction(1)]
    for m in range(1, k):
        nxt = []
        for i in range(m + 1):
            t = Fraction(0)
            if i < m:
                t += (2 * m - 1 - i) * q[i]
            if i >= 1:
                t += q[i - 1]
            nxt.append(t / (2 * m))
        q = nxt
    return tuple(q)


@dataclass(frozen=True)
class GreenKernel:
    """The kernel E_k(x) = e^{-a|x|} sum_{m<k} c_m |x|^m.

    The sign (-1)^k is folded into the coefficients, so sign(c_0) = (-1)^k.
    Immutable after construction; evaluation is pure.
    """

    params: SplineParams
    poly_coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        coeffs = np.asarray(self.poly_coeffs, dtype=float)
        if coeffs.shape != (self.params.k,):
            raise ParameterDomainError(
                f"expected {self.params.k} polynomial coefficients, got shape {coeffs.shape}")
        coeffs.setflags(write=False)
        object.__setattr__(self, "poly_coeffs", coeffs)

    @property
    def peak(self) -> float:
        """max |E_k| = |E_k(0)| (the transform has one sign, so the peak is at 0)."""
        return abs(float(self.poly_coeffs[0]))


def build_green_kernel(params: SplineParams) -> GreenKernel:
    """Construct E_k for the given (a, k) via the exact recurrence."""
    a, k = params.alpha, params.k
    q = _rational_poly(k)
    sign = -1.0 if k % 2 else 1.0
    # a ** -n raises where it overflows, but its product with sqrt(pi/2) q_i
    # rounds to inf without raising (alpha = 6e-309, k = 1)
    try:
        coeffs = np.array([sign * _SQRT_PI_OVER_2 * float(qi) * a ** (-(2 * k - 1 - i))
                           for i, qi in enumerate(q)])
        finite = bool(np.all(np.isfinite(coeffs)))
    except OverflowError:
        finite = False
    if not finite:
        raise ParameterDomainError(f"alpha={a:g} is too small for k={k}: the kernel's "
                                   f"alpha^-{2 * k - 1} overflows double precision")
    return GreenKernel(params=params, poly_coeffs=coeffs)


def eval_green(kernel: GreenKernel, x) -> float | np.ndarray:
    """Evaluate E_k(x).  Even in x by construction; accepts scalars or arrays.

    Every step works in place on its own copy of |x| (a 0-d array for scalar
    input, since ufuncs return scalars for 0-d operands without out=).

    The polynomial has its coefficients' one sign and is capped at the largest
    double: where it overflows, e^{-a|x|} is 0 (alpha >= 1e-4), so E_k is 0 of
    that sign, not inf * 0 = NaN.  NaN and infinite x still give NaN.
    """
    ax = np.array(x, dtype=float)
    np.abs(ax, out=ax)
    p = np.zeros_like(ax)
    with np.errstate(over="ignore"):
        for cm in kernel.poly_coeffs[::-1]:
            p *= ax
            p += cm
        np.multiply(-kernel.params.alpha, ax, out=ax)
    c0 = kernel.poly_coeffs[0]
    (np.minimum if c0 > 0 else np.maximum)(p, math.copysign(sys.float_info.max, c0), out=p)
    np.exp(ax, out=ax)
    ax *= p
    return float(ax) if np.isscalar(x) or np.ndim(x) == 0 else ax


def eval_green_hat(params: SplineParams, xi) -> float | np.ndarray:
    """Evaluate Ehat_k(xi) = (-1)^k (xi^2 + a^2)^{-k}."""
    xi_a = np.asarray(xi, dtype=float)
    sign = -1.0 if params.k % 2 else 1.0
    out = sign * (xi_a * xi_a + params.alpha * params.alpha) ** (-params.k)
    return float(out) if np.isscalar(xi) or np.ndim(xi) == 0 else out

