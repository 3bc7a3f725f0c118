"""Periodized symbol of the Green kernel and the lattice coefficients of the
fundamental function.

The central objects, all 2 pi periodic in xi:

    P(xi)     = sum_j Ehat_k(xi - 2 pi j)          (periodized symbol)
    Lhat(xi)  = (2 pi)^{-1/2} Ehat_k(xi) / P(xi)   (fundamental function transform)

The periodic reciprocal symbol sigma = 1 / P is real analytic, so its
Fourier coefficients

    c_j = (2 pi)^{-1} int_{-pi}^{pi} sigma(xi) e^{i j xi} d xi

decay exponentially; they are the lattice weights of the spatial synthesis
L_k(x) = (2 pi)^{-1/2} sum_j c_j E_k(x - j).

The periodization is summed directly over |j| <= M and the two tails are
corrected with the midpoint Euler-Maclaurin expansion

    sum_{j>M} f(j) = int_{M+1/2}^inf f + f'(M+1/2)/24 - 7 f'''(M+1/2)/5760 + R,

whose remainder is certified through a fifth-derivative envelope.  A plain
truncated sum would need M ~ 1/tol lattice shifts at k = 1; the corrected form
keeps M in the hundreds at every order.

The coefficients come from the exponential B-spline beta of (D^2 - a^2)^k
instead: c is a (2k+1)-tap filter of the inverse of beta on the integers,
and |c_j| decays exactly at the rate -log|l| of the Euler-Frobenius root l
nearest -1 (compute_coefficients).  The symbol of beta is palindromic, so
its roots come from a polynomial of half the degree in w = z + 1/z
(_inner_roots).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, getcontext, localcontext
from functools import lru_cache

import numpy as np

from .errors import (ParameterDomainError, QuadratureConvergenceError,
                     ToleranceUnreachableError)
from .greens_kernel import SplineParams, _rational_poly, eval_green_hat

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_TWO_PI = 2.0 * math.pi

# Hard cap on lattice shifts; unreachable for k >= 1 once the tail is
# Euler-Maclaurin corrected, kept as a defensive guard.
_M_CAP = 10 ** 7

# decimal digits for beta and the roots of its symbol: 60, doubled up to
# _MAX_DIGITS until beta(k-1), the smallest, keeps _KEPT_DIGITS of them
# through the cancellation of its sum (it does not at (0.05, 22))
_DIGITS = 60
_KEPT_DIGITS = 20
_MAX_DIGITS = 960
_ROOT_TOL = Decimal("1e-40")
_ROOT_STEPS = 50
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def _series(order: int, q: float) -> list:
    """The coefficients C(order + n - 1, n) / (2 order + 2 n - 1) of
    int_u^inf (v^2 + a^2)^{-order} dv / u^{1 - 2 order} in x = -(a/u)^2, up
    to the first term that falls below 1e-17 of the partial sum at x = -q
    (at most 120)."""
    coeffs, total, xn = [], 0.0, 1.0
    for n in range(120):
        coeffs.append(math.comb(order + n - 1, n) / (2 * order + 2 * n - 1))
        term = coeffs[-1] * xn
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
        xn *= -q
    return coeffs


def _tail_integrals(u0, alpha: float, orders: tuple) -> np.ndarray:
    """int_{u0}^inf (u^2 + a^2)^{-m} du for each m in orders, one row each.

    The textbook reduction recurrence cancels catastrophically here (the m-th
    integral is u0^{2m-2} times smaller than the first), so the integrand is
    expanded in x = -(a/u)^2 and integrated termwise; u0 exceeds 2 pi M >> a,
    making the series converge geometrically with every digit intact.  Every
    point takes the terms the largest q = (a/u0)^2 needs, summed by Horner's
    rule for all the orders at once (a shorter order's leading zeros add
    nothing).
    """
    u0 = np.asarray(u0, dtype=float)
    x = -(alpha / u0) ** 2
    q = -float(np.min(x)) if len(x) else 0.0
    coeffs = [_series(m, q) for m in orders]
    table = np.zeros((max(map(len, coeffs)), len(orders), 1))
    for i, c in enumerate(coeffs):
        table[:len(c), i, 0] = c
    acc = np.zeros((len(orders), len(u0)))
    for c in table[::-1]:
        acc *= x
        acc += c
    for i, m in enumerate(orders):
        acc[i] *= u0 ** (1 - 2 * m)
    return acc


def _em_remainder_bound(M: int, alpha: float, k: int) -> float:
    """Upper bound on the Euler-Maclaurin remainder after the f''' term.

    |g^(5)(u)| <= c5 u^{-2k-5} with c5 = prod_{i<5}(2k+3i); the remainder
    coefficient 31/967680 is padded by a factor 8 for the two tails and the
    non-monotone pre-asymptotic range.
    """
    u_min = _TWO_PI * (M + 0.5) - np.pi
    if u_min <= max(2.0 * alpha, 1.0):
        return np.inf
    c5 = 1.0
    for i in range(5):
        c5 *= (2 * k + 3 * i)
    return 8.0 * (31.0 / 967680.0) * _TWO_PI ** 5 * 2.0 * c5 * u_min ** (-2 * k - 5)


@lru_cache(maxsize=512)
def _choose_shift_count(alpha: float, order: int, tol: float) -> int:
    """Smallest M whose corrected order-`order` tail is certified below tol."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol:g}")
    M = max(8, int(math.ceil(alpha / math.pi)) + 4)
    while _em_remainder_bound(M, alpha, order) >= tol / 2.0:
        M = 2 * M
        if M > _M_CAP:
            raise ToleranceUnreachableError(
                f"periodization would need more than {_M_CAP} lattice shifts "
                f"for tol={tol:g} at (alpha={alpha}, order={order})")
    # shrink back to the smallest admissible M
    lo, hi = M // 2, M
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if _em_remainder_bound(mid, alpha, order) < tol / 2.0:
            hi = mid
        else:
            lo = mid
    return hi


def lattice_sum(xi, alpha: float, order: int, tol: float = 1e-12) -> np.ndarray:
    """sum_j ((xi - 2 pi j)^2 + a^2)^{-order} to absolute accuracy tol, xi
    reduced into [-pi, pi]: |j| <= M summed directly, both tails corrected."""
    M = _choose_shift_count(alpha, order, tol)
    xi_a = np.atleast_1d(np.asarray(xi, dtype=float))
    xr = xi_a - _TWO_PI * np.round(xi_a / _TWO_PI)   # reduce by periodicity

    out = np.zeros_like(xr)
    j = np.arange(-M, M + 1)
    # chunk the (points, shifts) outer sum to bound memory
    block = max(1, int(4e6 // (2 * M + 1)))
    a2 = alpha * alpha
    for s in range(0, len(xr), block):
        u = xr[s:s + block, None] - _TWO_PI * j[None, :]
        np.multiply(u, u, out=u)
        u += a2
        u **= -order
        out[s:s + block] = np.sum(u, axis=1)
    out += _em_tails(xr, alpha, (order,), M)[0]
    return out


def _em_tails(xr, alpha: float, orders: tuple, M: int) -> np.ndarray:
    """sum_{|j| > M} ((xr - 2 pi j)^2 + a^2)^{-m} for reduced xr, one row per
    order m in orders: both tails of every order corrected in one pass from
    u = 2 pi (M + 1/2) -+ xr, with u^2 + a^2 formed once, as

        int_u^inf g / (2 pi) + 2 pi g'(u) / 24 - 7 (2 pi)^3 g'''(u) / 5760

    for g = (u^2 + a^2)^{-m}.
    """
    u = _TWO_PI * (M + 0.5) + np.concatenate([-xr, xr])
    a2 = alpha * alpha
    s = u * u + a2
    ti = _tail_integrals(u, alpha, orders)
    out = np.empty((len(orders), len(xr)))
    for i, m in enumerate(orders):
        g1 = -2.0 * m * u * s ** (-m - 1)
        g3 = -4.0 * m * (m + 1) * u * s ** (-m - 3) * ((2 * m + 1) * u * u - 3 * a2)
        out[i] = (ti[i].reshape(2, -1).sum(axis=0) / _TWO_PI
                  + _TWO_PI * g1.reshape(2, -1).sum(axis=0) / 24.0
                  - 7.0 * _TWO_PI ** 3 * g3.reshape(2, -1).sum(axis=0) / 5760.0)
    return out


def periodized_green_hat(params: SplineParams, xi, tol: float = 1e-12):
    """sum_j Ehat_k(xi - 2 pi j), certified to absolute accuracy tol.

    The sum has one sign, (-1)^k, and its magnitude dominates every single
    term |Ehat_k(xi - 2 pi j)|.  Accepts scalars or arrays.
    """
    out = (-1.0 if params.k % 2 else 1.0) * lattice_sum(xi, params.alpha, params.k, tol)
    return float(out[0]) if np.isscalar(xi) or np.ndim(xi) == 0 else out


def fundamental_hat(params: SplineParams, xi, tol: float = 1e-12):
    """Lhat_k(xi) = (2 pi)^{-1/2} Ehat_k(xi) / P(xi).

    Strictly positive for every real xi and bounded by (2 pi)^{-1/2}, since the
    denominator accumulates same-sign terms including Ehat_k(xi) itself.  tol is
    a relative target; it is converted to the absolute scale of P at xi = pi,
    where |P| is smallest.
    """
    p_tol = tol * abs(eval_green_hat(params, np.pi))
    denom = periodized_green_hat(params, xi, p_tol)
    return _INV_SQRT_2PI * eval_green_hat(params, xi) / denom


@dataclass(frozen=True)
class CoefficientTable:
    """Symmetric table of lattice coefficients c_{-J}..c_J of the reciprocal
    symbol, c_j = coeffs[J + j]: |c_j| <= decay_amplitude e^{-decay_rate |j|},
    decay_rate exact, tail_bound the envelope's bound on sum_{|j| > J} |c_j|,
    and cond_B = B(0) / B(pi) for the symbol B of the exponential B-spline.
    At k = 1 the table is exact: J = 1, no tail and an infinite rate."""

    params: SplineParams
    coeffs: np.ndarray = field(repr=False)
    decay_rate: float
    decay_amplitude: float
    cond_B: float

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or len(c) % 2 == 0:
            raise ValueError("coefficient array must have odd length 2*half_width+1")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def half_width(self) -> int:
        return len(self.coeffs) // 2

    @property
    def tail_bound(self) -> float:
        return _envelope_tail(self.decay_amplitude, self.decay_rate, self.half_width)

    @property
    def indices(self) -> np.ndarray:
        return np.arange(-self.half_width, self.half_width + 1)

    @property
    def max_abs_coeff(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    @property
    def compact_support(self) -> bool:
        """k = 1: the reciprocal symbol is a degree-1 trigonometric polynomial."""
        return self.params.k == 1


def _bspline_samples(params: SplineParams) -> tuple[list, list]:
    """(beta(0..k-1), p_0..p_k) in the current decimal context, raising its
    precision as _DIGITS says.  p are the taps of (z - 2 cosh a + 1/z)^k and
    beta(n) = sum_m p_m G(n - m), G = E_k / ((-1)^k sqrt(pi/2)) from the
    exact rationals of E_k: beta has the sign (-1)^k and support (-k, k).
    """
    k = params.k
    a = Decimal(params.alpha)
    ctx = getcontext()
    while True:
        t = (-a).exp()
        two_cosh, p = t + 1 / t, [Decimal(1)]
        for _ in range(k):          # times z^2 - 2 cosh(a) z + 1
            p = [u - two_cosh * v + w
                 for u, v, w in zip(p + [0, 0], [0] + p + [0], [0, 0] + p)]
        q = [Decimal(f.numerator) / f.denominator / a ** (2 * k - 1 - i)
             for i, f in enumerate(_rational_poly(k))]
        G = []
        for d in range(2 * k):
            poly = Decimal(0)
            for qi in reversed(q):
                poly = poly * d + qi
            G.append(t ** d * poly)
        terms = [[pm * G[abs(n + k - m)] for m, pm in enumerate(p)] for n in range(k)]
        beta = [sum(row) for row in terms]
        if abs(beta[-1]) >= sum(map(abs, terms[-1])).scaleb(_KEPT_DIGITS - ctx.prec) \
                or ctx.prec >= _MAX_DIGITS:
            return beta, p[k:]
        ctx.prec *= 2


def _laguerre(poly: list, starts: list, tol, sqrt) -> list:
    """Roots of the real-rooted poly (highest power first) by Laguerre's
    method with deflation, in poly's number type.  Search i starts at
    starts[i] or, past the end of starts or where that is not finite, at
    the last root found (at -2 for the first); it runs on poly with the
    roots found so far divided out, and stops once a step is within tol of
    w or no shorter than the one before (rounding noise, which in double
    comes first).  The list ends at the first search that does not stop in
    _ROOT_STEPS steps."""
    num = type(poly[0])
    poly, roots, zero, w = list(poly), [], num(0), num(-2)
    for n in range(len(poly) - 1, 0, -1):       # degree of poly
        i = len(roots)
        if i < len(starts) and math.isfinite(starts[i]):
            w = num(starts[i])
        last = num("inf")
        for _ in range(_ROOT_STEPS):
            f = df = d2f = zero
            for b in poly:
                d2f, df, f = d2f * w + df, df * w + f, f * w + b
            if f == 0:
                break
            g = df / f
            root = sqrt(max(zero, (n - 1) * (n * (g * g - 2 * d2f / f) - g * g)))
            step = n / (g + root if g >= 0 else g - root)
            w -= step
            if abs(step) <= tol * abs(w) or abs(step) >= last:
                break
            last = abs(step)
        else:
            break
        roots.append(w)
        for j in range(1, n):
            poly[j] += w * poly[j - 1]
        poly.pop()
    return roots


def _half_degree_poly(beta: list) -> list:
    """R(w) = beta(0) + sum_{n>=1} beta(n) D_n(w), highest power first, for
    the Dickson polynomials D_0 = 2, D_1 = w, D_n = w D_{n-1} - D_{n-2}."""
    R = [beta[0]] + [Decimal(0)] * (len(beta) - 1)
    lo, hi = [Decimal(2)], [Decimal(0), Decimal(1)]     # D_0, D_1, lowest power first
    for b in beta[1:]:
        for i, v in enumerate(hi):
            R[i] += b * v
        lo, hi = hi, [v - u for u, v in zip(lo + [0, 0], [0] + hi)]
    return R[::-1]


def _inner_roots(params: SplineParams, beta: list) -> list:
    """The k - 1 roots in (-1, 0) of Q(z) = z^{k-1} sum_{|n|<k} beta(|n|) z^n,
    from the one nearest 0 outwards, in the current decimal context.

    Q is palindromic: Q(z) = z^{k-1} R(z + 1/z) for R(w) = beta(0) +
    sum_{n>=1} beta(n) D_n(w) (_half_degree_poly), as the Dickson
    polynomials have D_n(z + 1/z) = z^n + z^{-n}.  So the roots come from
    the k - 1 roots w < -2 of R, of half the degree, as l = 2 / (w -
    sqrt(w^2 - 4)); (w + sqrt(w^2 - 4)) / 2 would cancel to 0 once w^2
    outgrows the digits, from about alpha = 140.  Every root of R is real,
    so Laguerre's method converges from any real start to a root next to
    it.  A first pass in double, from w = -2 outwards on R with the roots
    found so far divided out, smallest |w| first (the stable order), gives
    each root to 8-16 digits.  The decimal pass polishes each from its
    double estimate, or from the last root where double ran out of range,
    so a root takes two or three steps; Laguerre's square root only scales
    a step near the root, so it is taken to 30 digits.  The roots are
    sorted at the end, whatever order the searches found them in.  (np.roots
    in double turns two real roots of Q at (0.25, 28) into -0.580 +-
    0.042i.)
    """
    k = len(beta)
    poly = _half_degree_poly(beta)
    try:
        starts = _laguerre([float(c) for c in poly], [], _EPS, math.sqrt)
    except ArithmeticError:
        starts = []
    ctx = getcontext()
    short = Context(prec=30, Emax=ctx.Emax, Emin=ctx.Emin)
    try:
        roots = [2 / (w - (w * w - 4).sqrt()) for w in
                 sorted(_laguerre(poly, starts, _ROOT_TOL, lambda v: v.sqrt(short)))
                 if w < -2]
    except ArithmeticError:
        roots = []
    if len(roots) != k - 1 or not all(-1 < float(z) < 0 for z in roots) \
            or len({float(z) for z in roots}) != k - 1:
        raise QuadratureConvergenceError(
            f"the exponential B-spline symbol of (alpha={params.alpha}, "
            f"k={params.k}) does not resolve into {k - 1} distinct roots in "
            f"(-1, 0) at {ctx.prec} digits")
    return roots


def _cascade(x: list, roots: list, n: int) -> list:
    """y_0..y_n of y = x * prod_l 1 / ((1 - l z)(1 - l / z)) for the even x
    given by x_0.. and zero beyond: per root, a causal recursion started
    from its mirror image sum_m l^m x_m, then an anticausal one started from
    u_n / (1 - l^2), which drops the input past n at an error that decays
    like l^{n-j} at j.  Negative roots on alternating x: nothing cancels.
    """
    y = x + [0.0] * (n + 1 - len(x))
    for lam in roots:
        acc = 0.0
        for v in reversed(y):
            acc = acc * lam + v
        u = [acc] + [acc := v + lam * acc for v in y[1:]]
        acc /= 1.0 - lam * lam
        y = [acc] + [acc := v + lam * acc for v in reversed(u[:-1])]
        y.reverse()
    return y


def _envelope_tail(amplitude: float, rate: float, J: int) -> float:
    """sum_{|j| > J} A e^{-r |j|}."""
    return 2.0 * amplitude * math.exp(-rate * (J + 1)) / (1.0 - math.exp(-rate))


def _check_tol(tol: float) -> float:
    """tol, if it lies in [1e-14, 1e-2] (NaN does not)."""
    if not (1e-14 <= tol <= 1e-2):
        raise ParameterDomainError(f"tol must lie in [1e-14, 1e-2], got {tol:g}")
    return tol


def compute_coefficients(params: SplineParams, tol: float = 1e-10) -> CoefficientTable:
    """Fourier coefficients of sigma = 1 / P from the exponential B-spline.

    (2 (cosh a - cos xi))^k P(xi) = B(xi) / 2 for B the symbol of beta on
    the integers, so c = (-1)^k 2 (p * beta^{-1}), and 1 / B(z) =
    prod_l (1 - l)^2 / ((1 - l z)(1 - l / z)) / B(1) over its roots l in
    (-1, 0), which _cascade applies.  |c_j| decays at exactly
    r = -log|l| for the root l nearest -1 (Micchelli, "Cardinal
    L-splines", 1976; Unser, Aldroubi and Eden, IEEE Trans. Signal
    Process. 41(2), 1993); A = max_j |c_j| e^{r|j|}, and J is the smallest
    index whose envelope tail lies below both tol and eps max|c_j|.

    Raises ParameterDomainError for a tol outside [1e-14, 1e-2] and for an
    (alpha, k) whose B-spline samples leave decimal's exponent range.
    """
    _check_tol(tol)
    k = params.k
    with localcontext() as ctx:
        # the full exponent range: (2 cosh a)^k passes the default 10^999999
        # at (1e5, 24)
        ctx.prec, ctx.Emax, ctx.Emin = _DIGITS, MAX_EMAX, MIN_EMIN
        try:
            beta, taps = _bspline_samples(params)
        except ArithmeticError:     # e^{-a} underflows, or (2 cosh a)^k overflows
            raise ParameterDomainError(
                f"alpha={params.alpha:g} at k={k} lies outside the decimal "
                "exponent range of the B-spline samples") from None
        roots = _inner_roots(params, beta)
        b_0 = 2 * sum(beta) - beta[0]
        b_pi = 2 * sum(b if n % 2 == 0 else -b for n, b in enumerate(beta)) - beta[0]
        gain = (-1) ** k * 2 / b_0
        for z in roots:
            gain *= (1 - z) ** 2
        x = [float(gain * pm) for pm in taps]
        cond = float(b_0 / b_pi)
    lams = [float(z) for z in roots]

    if k == 1:
        c, J, rate, amplitude = x, 1, math.inf, abs(x[0])
    else:
        rate = -math.log(-min(lams))
        margin = math.ceil(20.0 / rate)     # l^{2 margin} < 1e-17
        n = max(2 * k, math.ceil(75.0 / rate))
        while True:
            c = _cascade(x, lams, n)
            # in logs, as e^{r j} overflows at large r; subnormals have lost
            # their digits
            amplitude = math.exp(max(math.log(abs(v)) + rate * j for j, v in
                                     enumerate(c[:n - margin + 1]) if abs(v) >= _TINY))
            bound = min(tol, _EPS * max(map(abs, c)))
            # the tail lies below bound once r (J + 1) > log(2A / bound) -
            # log(1 - e^{-r}); the two checks settle the rounding
            J = max(1, math.floor((math.log(2.0) + math.log(amplitude) - math.log(bound)
                                   - math.log1p(-math.exp(-rate))) / rate))
            while _envelope_tail(amplitude, rate, J) >= bound:
                J += 1
            while J > 1 and _envelope_tail(amplitude, rate, J - 1) < bound:
                J -= 1
            if J + margin <= n:
                break
            n *= 2

    sym = np.array(c[J:0:-1] + c[:J + 1])
    return CoefficientTable(params=params, coeffs=sym, decay_rate=rate,
                            decay_amplitude=amplitude, cond_B=cond)
