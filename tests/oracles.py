"""Independent oracles for the test suite.

Everything here is deliberately built on different machinery than the shipped
code paths: QUADPACK quadrature over the real line for transforms and for L_k
itself (eval_fundamental_spectral), the spatial cosine-series (Poisson
summation) route for the periodized symbol, the k = 1 hyperbolic closed
forms, mpmath lattice sums for the error split S, T (term by term,
or at k = 1, 2 from their closed form), mpmath quadrature for the lattice
sums' tail integrals (tail_integral_mp), and mpmath roots and residues for
the coefficient table (coefficients_mp) and for L_k itself in the
exponential B-spline basis (fundamental_mp, the extended-precision judge).  The exceptions are plain or earlier forms kept as bitwise references for their
faster replacements: interpolate_pointwise (one point at a time: its own
window solve, samples read from the data's dict or rule rather than through
the package's table lookup, its own prefilter of one np.dot per entry and
one np.dot with its kernel row, for the shared prefilters and kernel rows
of interpolate_grid),
eval_fundamental_direct (one kernel row and one np.dot per point, for the
shared kernel rows and gathered contraction of eval_fundamental; each value
of both is its own BLAS ddot, so neither depends on the batch),
eval_green_out_of_place (for the in-place eval_green), panel_nodes_loop (one
panel at a time, for _panel_nodes), solve_window_loop (one
center at a time, for _solve_windows) and fundamental_checks_four_calls (one
eval_fundamental call per check, for the one call of build_fundamental, and
the evenness that build_fundamental leaves to eval_fundamental's fold); and
two reference quantities that only the tests read: the exact one-sided knot
derivatives of E_k and the plain (uncorrected) periodization tail bound.

scipy and mpmath are imported here only; the package itself needs neither.
"""

import math

import mpmath
import numpy as np
from scipy.integrate import quad

from cardspline import cardinal_interpolation as ci
from cardspline.bandlimited_analysis import _panel_nodes
from cardspline.cardinal_interpolation import _solve_window, eval_fundamental
from cardspline.errors import MissingDataError, WindowOverflowError
from cardspline.greens_kernel import (SplineParams, _rational_poly,
                                      build_green_kernel, eval_green, eval_green_hat)
from cardspline.spectral_symbol import (compute_coefficients, fundamental_hat,
                                        periodized_green_hat)

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def green_transform_quad(alpha: float, k: int, x: float) -> float:
    """(2 pi)^{-1/2} int (-1)^k (xi^2+a^2)^{-k} e^{i x xi} d xi over the whole
    line, via QUADPACK (Fourier weights for the oscillatory part).  The peak
    region around the origin, sharp for small alpha, is integrated separately."""
    sign = (-1.0) ** k
    f = lambda xi: sign * (xi * xi + alpha * alpha) ** (-k)
    split = 2.0
    if x == 0:
        v1, _ = quad(f, 0.0, split, points=[alpha], epsabs=1e-13, limit=200)
        v2, _ = quad(f, split, np.inf, epsabs=1e-13, limit=200)
    else:
        v1, _ = quad(f, 0.0, split, weight="cos", wvar=abs(x),
                     epsabs=1e-13, limit=400)
        v2, _ = quad(f, split, np.inf, weight="cos", wvar=abs(x),
                     epsabs=1e-13, limit=400, limlst=300)
    return 2.0 * INV_SQRT_2PI * (v1 + v2)


def green_convolution_quad(alpha: float, m: int, k: int, x: float) -> float:
    """(2 pi)^{-1/2} (E_m * E_{k-m})(x) by adaptive quadrature, splitting the
    integrand at its |.| kinks."""
    km1 = build_green_kernel(SplineParams(alpha, m))
    km2 = build_green_kernel(SplineParams(alpha, k - m))
    f = lambda t: eval_green(km1, t) * eval_green(km2, x - t)
    lim = 40.0 / alpha
    pts = sorted({0.0, float(x)})
    v, _ = quad(f, -lim, lim, points=pts, limit=400, epsabs=1e-13, epsrel=1e-12)
    return INV_SQRT_2PI * v


def _cos_integral_panels(fn, x: float, T: float, fine_until: float = 64.0) -> float:
    """int_0^T fn(xi) cos(x xi) d xi by Gauss-24 panels: quarter-period panels
    while the integrand still has structure at the kernel scale, one panel per
    period beyond."""
    gx, gw = np.polynomial.legendre.leggauss(24)
    fine_edges = np.arange(0.0, fine_until + 1e-9, math.pi / 2.0)
    coarse_start = float(fine_edges[-1])
    n_coarse = max(0, int(math.ceil((T - coarse_start) / (2.0 * math.pi))))
    coarse_edges = coarse_start + 2.0 * math.pi * np.arange(1, n_coarse + 1)
    edges = np.concatenate([fine_edges, coarse_edges])
    total = 0.0
    block = 2000
    for s in range(0, len(edges) - 1, block):
        e = min(s + block, len(edges) - 1)
        lo, hi = edges[s:e], edges[s + 1:e + 1]
        half = 0.5 * (hi - lo)
        mid = 0.5 * (lo + hi)
        nodes = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
        w = (half[:, None] * gw[None, :]).ravel()
        vals = np.asarray(fn(nodes))
        total += float(np.dot(w, vals * np.cos(x * nodes)))
    return total


def eval_fundamental_spectral(params: SplineParams, x: float, tol: float = 1e-9) -> float:
    """Oracle: L_k(x) = (2 pi)^{-1/2} int Lhat_k(xi) e^{i x xi} d xi by direct
    Fourier quadrature over the whole line.

    Away from the lattice frequencies (|x| >= 0.05) QUADPACK's infinite-range
    Fourier rule extrapolates the cycle sums.  Near x = 0 the oscillation is
    too slow for cycle extrapolation; there the mean of the reciprocal symbol
    is split off, its kernel tail summed in closed form through E_k, and the
    zero-mean periodic remainder tail is bounded by integration by parts.

    Slow by design (~0.2 s per point); it arbitrates the normalization chain
    against eval_fundamental.
    """
    ax = abs(float(x))  # L_k is even
    if ax >= 0.05:
        f = lambda xi: fundamental_hat(params, xi, 1e-13)
        epsabs = max(tol / 10.0, 1e-12)
        val, _ = quad(f, 0.0, np.inf, weight="cos", wvar=ax, epsabs=epsabs,
                      limit=400, limlst=400, maxp1=80)
        return 2.0 * INV_SQRT_2PI * val

    # sigma mean by one-period trapezoid (independent of the table pipeline)
    n = 4096
    xi_grid = 2.0 * math.pi * np.arange(n) / n
    sig = 1.0 / periodized_green_hat(params, xi_grid, 1e-13 * abs(eval_green_hat(params, np.pi)))
    c_mean = float(np.mean(sig))

    # beyond T, Lhat = (2pi)^{-1/2} sigma Ehat splits into the mean part, whose
    # cosine tail is exact through the closed-form kernel transform, and a
    # zero-mean periodic remainder bounded by parts: |rem| <= max|B| (Ehat(T)
    # + |x| int_T |Ehat|), B the (periodic) antiderivative of sigma - mean
    T = 2.0 * math.pi * (160000 if params.k == 1 else 500)
    finite = _cos_integral_panels(
        lambda nodes: fundamental_hat(params, nodes, 1e-13), ax, T)
    full_kernel_cos = math.sqrt(2.0 * math.pi) / 2.0 * float(eval_green(
        build_green_kernel(params), ax))
    kernel_head = _cos_integral_panels(
        lambda nodes: eval_green_hat(params, nodes), ax, T)
    tail_cos = INV_SQRT_2PI * c_mean * (full_kernel_cos - kernel_head)
    return 2.0 * INV_SQRT_2PI * (finite + tail_cos)


def periodized_spatial(params: SplineParams, xi, n_terms: int | None = None):
    """Poisson-summation route: sum_j Ehat(xi - 2 pi j) =
    (2 pi)^{-1/2} [E_k(0) + 2 sum_{n>=1} E_k(n) cos(n xi)].

    The alternating series cancels by up to eight orders where the symbol
    dips, so the accumulation runs in extended precision; the result is still
    a float64 oracle value.
    """
    kern = build_green_kernel(params)
    if n_terms is None:
        n_terms = int(45.0 / params.alpha) + 12 * params.k
    n = np.arange(1, n_terms + 1, dtype=np.longdouble)
    a = np.longdouble(params.alpha)
    coeffs = kern.poly_coeffs.astype(np.longdouble)
    poly = np.zeros_like(n)
    for cm in coeffs[::-1]:
        poly = poly * n + cm
    en = np.exp(-a * n) * poly
    xi_a = np.atleast_1d(np.asarray(xi, dtype=float)).astype(np.longdouble)
    out = (coeffs[0] + 2.0 * np.cos(np.outer(xi_a, n)) @ en) * np.longdouble(INV_SQRT_2PI)
    out = out.astype(float)
    return float(out[0]) if np.ndim(xi) == 0 else out


def periodized_k1_closed(alpha: float, xi):
    """Exact k = 1 periodization: -(sinh a) / (2 a (cosh a - cos xi))."""
    return -np.sinh(alpha) / (2.0 * alpha * (np.cosh(alpha) - np.cos(np.asarray(xi))))


def replica_power_k1_closed(alpha: float, xi):
    """Exact k = 1 replica power T(xi) = sum_{l != 0} Ehat_1(xi - 2 pi l)^2 / P^2.

    With u_j = xi - 2 pi j, F = sum_j (u_j^2 + a^2)^{-1} = sinh a / (2 a (cosh a - cos xi))
    and G = sum_j (u_j^2 + a^2)^{-2} = -F'(a) / (2 a); T drops the j = 0 term
    of G and divides by P^2 = F^2.
    """
    xi = np.asarray(xi, dtype=float)
    d = np.cosh(alpha) - np.cos(xi)
    F = np.sinh(alpha) / (2.0 * alpha * d)
    G = F / (2.0 * alpha) * (1.0 / alpha + np.sinh(alpha) / d - 1.0 / np.tanh(alpha))
    return (G - (xi * xi + alpha * alpha) ** -2) / (F * F)


def _lattice_rest_mp(xi, a, m: int, rel):
    """sum_{j != 0} ((xi - 2 pi j)^2 + a^2)^{-m} for |xi| <= pi, summed term
    by term until the rest is certified below rel times the sum: since
    |xi -+ 2 pi t| >= 2 pi t - pi, the terms past j add at most
    2 int_j^inf (2 pi t - pi)^{-2m} dt.  Practical for m >= 3."""
    two_pi = 2 * mpmath.pi
    a2 = a * a
    total = mpmath.mpf(0)
    j = 0
    while True:
        j += 1
        total += ((xi - two_pi * j) ** 2 + a2) ** (-m) + ((xi + two_pi * j) ** 2 + a2) ** (-m)
        if 2 * (two_pi * j - mpmath.pi) ** (1 - 2 * m) / (two_pi * (2 * m - 1)) <= rel * total:
            return total


def deviation_replica_mp(alpha: float, k: int, xis, dps: int = 40):
    """[(S, T)] at each xi in [-pi, pi], as mpf values from direct lattice sums
    at dps digits, each truncated at a relative 10^-(dps - 8):

        S = sum_{j != 0} Ehat_k(xi - 2 pi j) / P,
        T = sum_{j != 0} Ehat_k(xi - 2 pi j)^2 / P^2,

    with P = sum_j Ehat_k(xi - 2 pi j) and Ehat_k = (-1)^k (u^2 + a^2)^{-k}
    (the signs cancel in both ratios)."""
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)
        rel = mpmath.mpf(10) ** (8 - dps)
        out = []
        for xi in np.asarray(xis, dtype=float).tolist():
            x = mpmath.mpf(xi)
            P_rest = _lattice_rest_mp(x, a, k, rel)
            P = (x * x + a * a) ** (-k) + P_rest
            out.append((P_rest / P, _lattice_rest_mp(x, a, 2 * k, rel) / (P * P)))
    return out


def deviation_replica_k12_mp(alpha: float, k: int, xis, dps: int = 40):
    """deviation_replica_mp for k = 1, 2, from the closed form of the lattice
    sums in place of their terms:

        sum_j (u_j^2 + s)^{-m} = (-d/ds)^{m-1} F(s) / (m-1)!  at s = a^2,
        F(s) = sinh(sqrt s) / (2 sqrt s (cosh sqrt s - cos xi)),

    u_j = xi - 2 pi j, with the derivatives of F by mpmath.diffs at dps
    digits; the j = 0 terms are subtracted at that precision."""
    if k not in (1, 2):
        raise ValueError("the closed form serves k = 1, 2")
    with mpmath.workdps(dps):
        s0 = mpmath.mpf(alpha) ** 2
        out = []
        for xi in np.asarray(xis, dtype=float).tolist():
            x = mpmath.mpf(xi)
            c = mpmath.cos(x)

            def F(s):
                r = mpmath.sqrt(s)
                return mpmath.sinh(r) / (2 * r * (mpmath.cosh(r) - c))

            d = list(mpmath.diffs(F, s0, 2 * k - 1))
            P, S2k = ((-1) ** (m - 1) * d[m - 1] / mpmath.factorial(m - 1)
                      for m in (k, 2 * k))
            centre = (x * x + s0) ** (-k)
            out.append(((P - centre) / P, (S2k - centre * centre) / (P * P)))
    return out


def l2_error_and_bound_mp(alpha: float, k: int, nodes, weights, spectrum,
                          dps: int = 40) -> tuple[float, float]:
    """(sqrt(sum w ghat^2 (S^2 + T)), sqrt(2 sum w ghat^2 S^2)): the spectral
    error and its bound by the quadrature rule (nodes, weights) with spectrum
    values ghat there, accumulated at dps digits from deviation_replica_mp,
    or from deviation_replica_k12_mp at k = 1, 2.  S and T are even in xi, so
    each distinct |xi| is referenced once."""
    split = deviation_replica_mp if k >= 3 else deviation_replica_k12_mp
    ax, inv = np.unique(np.abs(np.asarray(nodes, dtype=float)), return_inverse=True)
    ref = split(alpha, k, ax, dps)
    with mpmath.workdps(dps):
        exact = s2 = mpmath.mpf(0)
        for i, w, g in zip(inv.tolist(), np.asarray(weights, dtype=float).tolist(),
                           np.asarray(spectrum, dtype=float).tolist()):
            S, T = ref[i]
            wg2 = mpmath.mpf(w) * mpmath.mpf(g) ** 2
            exact += wg2 * (S * S + T)
            s2 += wg2 * S * S
        return float(mpmath.sqrt(exact)), float(mpmath.sqrt(2 * s2))


def plain_tail_bound(M: int, k: int) -> float:
    """Integral-comparison bound on the uncorrected tail sum_{|j|>M}; reference
    quantity showing why the plain truncation is unusable at k = 1."""
    return 2.0 * ((2 * M - 1) * np.pi) ** (1 - 2 * k) / ((2 * k - 1) * (2.0 * np.pi))


def reciprocal_k1_closed(alpha: float, xi):
    return -2.0 * alpha * (np.cosh(alpha) - np.cos(np.asarray(xi))) / np.sinh(alpha)


def fundamental_k1_closed(alpha: float, x):
    """L_1(x) = sinh(a (1 - |x|)) / sinh(a) on |x| <= 1, zero outside."""
    ax = np.abs(np.asarray(x, dtype=float))
    return np.where(ax <= 1.0, np.sinh(alpha * (1.0 - ax)) / np.sinh(alpha), 0.0)


def one_sided_derivatives(kernel, order: int) -> tuple[float, float]:
    """Derivatives of E_k at 0 from the right and from the left, exactly
    from the coefficient representation.

    For x > 0, E_k = e^{-a x} p(x) so d^m/dx^m at 0+ equals
    sum_i C(m,i) (-a)^{m-i} i! c_i; evenness gives the left value a (-1)^m factor.
    """
    a = kernel.params.alpha
    c = kernel.poly_coeffs
    right = 0.0
    for i in range(min(order, len(c) - 1) + 1):
        right += math.comb(order, i) * (-a) ** (order - i) * math.factorial(i) * c[i]
    left = (-1.0) ** order * right
    return right, left


def fd_weights(z: float, nodes, m: int) -> np.ndarray:
    """Fornberg weights for the m-th derivative at z from arbitrary nodes."""
    x = np.asarray(nodes, dtype=float)
    n = len(x)
    c = np.zeros((n, m + 1))
    c1, c4 = 1.0, x[0] - z
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2, c5, c4 = 1.0, c4, x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for v in range(mn, 0, -1):
                    c[i, v] = c1 * (v * c[i - 1, v - 1] - c5 * c[i - 1, v]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for v in range(mn, 0, -1):
                c[j, v] = (c4 * c[j, v] - v * c[j, v - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def hyperbolic_operator_residual(alpha: float, k: int, x: float, h: float = 0.2,
                                 acc: int = 8) -> float:
    """(D^2 - a^2)^k applied to E_k at x != 0 by high-order finite differences;
    should vanish off the origin.  The stencil is shifted off-center when needed
    so it never crosses the knot at 0, where E_k is only C^{2k-2}."""
    kern = build_green_kernel(SplineParams(alpha, k))
    half = k + acc // 2
    nodes = x + h * np.arange(-half, half + 1, dtype=float)
    if nodes[0] < 0.05:
        nodes += 0.05 - nodes[0]
    vals = np.asarray(eval_green(kern, nodes))
    res = 0.0
    for i in range(k + 1):
        der = float(fd_weights(x, nodes, 2 * i) @ vals) if i > 0 \
            else float(eval_green(kern, x))
        res += math.comb(k, i) * (-alpha * alpha) ** (k - i) * der
    return res


def sinc_time(x):
    x = np.asarray(x, dtype=float)
    return np.sinc(x)  # sin(pi x)/(pi x)


def triangle_time(x):
    x = np.asarray(x, dtype=float)
    return 0.5 * np.sinc(x / 2.0) ** 2


def half_band_time(x):
    # sin(pi x / 2) / (pi x) = (1/2) sinc(x/2)
    x = np.asarray(x, dtype=float)
    return 0.5 * np.sinc(x / 2.0)


def interpolate_pointwise(L, data, x: float, tol: float = 1e-8,
                          best_effort: bool = False) -> float:
    """f_b(x) one point at a time: its own window solve, b_j read from a
    dict built from the data's table or from its rule, its own prefilter
    a_p = sum_o b_{m+o} c_{p+o} (one np.dot per entry, the window scaled by
    2^-e, e >= 0 the exponent of its largest |b|) and one np.dot of a with
    the kernel row E_k(t + p), t = x - m, scaled back by 2^e."""
    table = None if data.table is None else dict(zip(*(a.tolist() for a in data.table)))

    def samples(js):
        if table is None:
            return np.asarray(data.rule(js.astype(float)), dtype=float)
        for j in js.tolist():
            if j not in table and not data.zero_fill:
                raise MissingDataError(f"no sample at index {j} in sequence {data.name!r}")
        return np.array([table.get(j, 0.0) for j in js.tolist()])

    m = int(round(x))
    if L.cardinality_ok and abs(x - m) < 1e-12:
        return float(samples(np.array([m]))[0])
    J = _solve_window(L, m, data.growth, tol, clip_to_knee=best_effort)
    b = samples(np.arange(m - J, m + J + 1))
    e = max(math.frexp(float(np.max(np.abs(b))))[1], 0)
    b = np.ldexp(b, -e)
    Q = J + L.table.half_width
    c = np.concatenate([np.zeros(2 * J), L.table.coeffs, np.zeros(2 * J)])
    a = np.array([np.dot(b, c[i:i + 2 * J + 1]) for i in range(2 * Q + 1)])
    E = eval_green(L.kernel, (x - m) + np.arange(-Q, Q + 1, dtype=float))
    return float(np.ldexp(np.dot(a, E) * INV_SQRT_2PI, e))


def eval_fundamental_direct(L, x) -> float | np.ndarray:
    """L_k(x) = (2 pi)^{-1/2} np.dot(E_k(|x| - j), c) at each point, over
    the table's indices j; the kernel rows are evaluated a block of points
    at a time."""
    xs = np.abs(np.atleast_1d(np.asarray(x, dtype=float)))
    js = L.table.indices.astype(float)
    out = np.empty_like(xs)
    for s in range(0, len(xs), 4096):
        rows = eval_green(L.kernel, xs[s:s + 4096, None] - js[None, :])
        out[s:s + 4096] = [np.dot(row, L.table.coeffs) for row in rows]
    out *= INV_SQRT_2PI
    return float(out[0]) if np.isscalar(x) or np.ndim(x) == 0 else out


def bits(a) -> np.ndarray:
    """The IEEE bit patterns of a, for comparisons that tell -0.0 from 0.0
    and one NaN from another."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def eval_green_out_of_place(kernel, x) -> float | np.ndarray:
    """E_k(x) with a fresh array for every step of the Horner loop, the
    polynomial clipped to the finite doubles as eval_green caps it."""
    ax = np.abs(np.asarray(x, dtype=float))
    p = np.zeros_like(ax)
    for cm in kernel.poly_coeffs[::-1]:
        p = p * ax + cm
    big = np.finfo(float).max
    out = np.exp(-kernel.params.alpha * ax) * np.clip(p, -big, big)
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def panel_nodes_loop(pieces, panels_per_piece: int, order: int = 24):
    """Gauss nodes and weights, one panel of one piece at a time."""
    gx, gw = np.polynomial.legendre.leggauss(order)
    nodes, weights = [], []
    for (a, b) in pieces:
        edges = np.linspace(a, b, panels_per_piece + 1)
        for i in range(panels_per_piece):
            mid = 0.5 * (edges[i] + edges[i + 1])
            half = 0.5 * (edges[i + 1] - edges[i])
            nodes.append(mid + half * gx)
            weights.append(half * gw)
    return np.concatenate(nodes), np.concatenate(weights)


def tail_integral_mp(u0, alpha: float, m: int, dps: int = 40) -> list:
    """int_{u0}^inf (u^2 + a^2)^{-m} du at each u0, as mpf values at dps
    digits: mpmath.quad on u = u0 / v, which turns it into the smooth
    u0^{1-2m} int_0^1 v^{2m-2} (1 + (a v / u0)^2)^{-m} dv."""
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)
        out = []
        for u in np.atleast_1d(np.asarray(u0, dtype=float)).tolist():
            u = mpmath.mpf(u)
            out.append(u ** (1 - 2 * m) * mpmath.quad(
                lambda v: v ** (2 * m - 2) * (1 + (a * v / u) ** 2) ** (-m), [0, 1]))
        return out


def solve_window_loop(L, center: int, growth, tol: float,
                      clip_to_knee: bool = False) -> int:
    """cardinal_interpolation._solve_windows at one center, on 1-d arrays
    and with GrowthModel.log_bound's sums written out of place."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if L.compact:
        return 1
    if growth.rate >= L.env_rate:
        raise WindowOverflowError(
            f"data growth rate {growth.rate:g} >= fundamental-function decay rate "
            f"{L.env_rate:g} for (alpha={L.params.alpha}, k={L.params.k}); the "
            "interpolation series diverges")
    d = np.arange(1, ci._WINDOW_HORIZON + 1, dtype=float)
    aj = np.abs(abs(center) + d)
    log_bound = math.log(growth.amplitude) + growth.beta * np.log1p(aj) + growth.rate * aj
    log_terms = math.log(2.0) + log_bound + math.log(L.env_amplitude) - L.env_rate * (d - 0.5)
    terms = np.full(len(d), np.exp(-745.0))
    live = log_terms > -745.0
    terms[live] = np.exp(np.minimum(log_terms[live], 700.0))
    ratio = math.exp(growth.rate - L.env_rate)
    beyond = terms[-1] * ratio / (1.0 - ratio)
    tails = np.cumsum(terms[::-1])[::-1] + beyond
    knee = ci._noise_knee(L)
    achievable = float(tails[min(int(knee), len(tails)) - 1])
    ok = np.nonzero(tails < tol)[0]
    J = int(ok[0]) + 1 if len(ok) else ci._WINDOW_HORIZON + 1
    if J > knee:
        if clip_to_knee or tol >= achievable / ci._MODEL_FLOOR_SLACK:
            return max(1, int(min(knee, ci._WINDOW_HORIZON)))
        message = (f"window tolerance {tol:g} lies below the double-precision floor "
                   f"~{achievable:.3e} for (alpha={L.params.alpha}, k={L.params.k}): "
                   f"the window would need {J} terms but the synthesis loses signal "
                   f"past {knee:.0f}")
        unit = achievable / growth.amplitude
        if tol >= unit / ci._MODEL_FLOOR_SLACK:
            message += (f"; the floor is the data's amplitude bound "
                        f"{growth.amplitude:.3e} times ~{unit:.3e}")
        raise WindowOverflowError(message)
    return J


def fundamental_checks_four_calls(params: SplineParams, tol: float = 1e-10):
    """(env_rate, env_amplitude, noise_floor, cardinality_error) of
    build_fundamental and the evenness error of its L_k, from one
    eval_fundamental call for the envelope amplitude, one for the integers
    -20..20 and one for each side of the evenness grid +-n/8."""
    kernel = build_green_kernel(params)
    table_tol = max(1e-14, tol / max(1.0, kernel.peak * INV_SQRT_2PI))
    table = compute_coefficients(params, table_tol)
    noise = 1e-16 * table.max_abs_coeff * (4.0 * kernel.peak + 1.0) * INV_SQRT_2PI
    L = ci.FundamentalFunction(kernel, table)
    rate = amp = None
    if not table.compact_support:
        xs = np.arange(2.0, 15.0, 1 / 32)
        vals = np.abs(np.asarray(eval_fundamental(L, xs)))
        rate = table.decay_rate
        with np.errstate(divide="ignore"):
            amp = ci._ENV_MARGIN * math.exp(np.max(np.log(vals) + rate * xs))
    js = np.arange(-20, 21)
    delta = (js == 0).astype(float)
    card = float(np.max(np.abs(eval_fundamental(L, js.astype(float)) - delta)))
    xs = np.arange(1, 41) / 8
    even = float(np.max(np.abs(np.asarray(eval_fundamental(L, xs))
                               - np.asarray(eval_fundamental(L, -xs)))))
    return rate, amp, noise, card, even


def euler_frobenius_roots_mp(alpha: float, k: int, dps: int = 80):
    """(p, Q, l) at dps digits: the taps p of (1 - 2 cosh(a) z + z^2)^k,
    the coefficients of Q(z) = z^{k-1} B(z) from beta(n) = sum_m p_m
    G(n + k - m), and the k - 1 roots l of Q in (-1, 0), from the one
    nearest 0 outwards.  Each root is bracketed by a sign change of Q on
    z = -e^{-t}, t in steps of 0.05 out to a + 1.5 k + 5, and refined by
    mpmath.findroot (Anderson-Bjorck) inside its bracket.  High orders
    need more than 80 digits: beta(k - 1) cancels about 80 of them at
    (0.25, 28)."""
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)
        q = [mpmath.mpf(f.numerator) / f.denominator / a ** (2 * k - 1 - i)
             for i, f in enumerate(_rational_poly(k))][::-1]
        p, two_cosh = [mpmath.mpf(1)], 2 * mpmath.cosh(a)
        for _ in range(k):
            p = [u - two_cosh * v + w for u, v, w in zip(p + [0, 0], [0] + p + [0], [0, 0] + p)]
        beta = [mpmath.fsum(pm * mpmath.exp(-a * abs(n + k - m)) * mpmath.polyval(q, abs(n + k - m))
                            for m, pm in enumerate(p)) for n in range(k)]
        Q = beta[:0:-1] + beta
        zs = [-mpmath.exp(-0.05 * i) for i in range(int(20 * alpha + 30 * k + 100), 0, -1)]
        fs = [mpmath.polyval(Q, z) for z in zs]
        ls = [mpmath.findroot(lambda z: mpmath.polyval(Q, z), (za, zb), solver="anderson",
                              verify=False)
              for za, zb, fa, fb in zip(zs, zs[1:], fs, fs[1:]) if fa * fb < 0]
    assert len(ls) == k - 1, f"{len(ls)} of {k - 1} roots bracketed at ({alpha}, {k})"
    return p, Q, ls


def coefficients_mp(alpha: float, k: int, J: int, dps: int = 80):
    """(c_0..c_J, r), k >= 2, at dps digits: beta and c = (-1)^k 2 (p *
    beta^{-1}) as in compute_coefficients, but the roots l of Q(z) =
    z^{k-1} B(z) from euler_frobenius_roots_mp, (beta^{-1})_m = sum_l
    l^{k-2+|m|} / Q'(l) from their residues, and r = -log|l_max|."""
    p, Q, ls = euler_frobenius_roots_mp(alpha, k, dps)
    with mpmath.workdps(dps):
        dQ = [mpmath.polyval([i * b for i, b in enumerate(Q)][:0:-1], z) for z in ls]
        d = [mpmath.fsum(z ** (k - 2 + m) / w for z, w in zip(ls, dQ)) for m in range(J + k + 1)]
        c = [(-1) ** k * 2 * mpmath.fsum(pm * d[abs(j + k - m)] for m, pm in enumerate(p))
             for j in range(J + 1)]
        return np.array([float(v) for v in c]), float(-mpmath.log(-min(ls)))


def fundamental_mp(alpha: float, k: int, dps: int):
    """The extended-precision judge of L_k at (alpha, k): a function that
    takes a float x and returns L_k(x) as an mpf at dps digits.

    L_k = sum_j d_j beta(x - j) in the exponential B-spline basis, with no
    Fourier transform and no synthesis table.  beta(y) = sum_m p_m G(y + k -
    m) for the taps p and G = e^{-a|u|} sum_i q_i |u|^i, q_i = q_{k,i} /
    a^{2k-1-i}, as in euler_frobenius_roots_mp, and only the 2k integers j
    with |x - j| < k contribute, sharing the G of 4k arguments x - n.  d =
    beta^{-1} on the integers, d_m = sum_l l^{k-2+|m|} / Q'(l) over the roots
    l of Q (1 / beta(0) at m = 0 for k = 1, whose Q has none), is tabled
    once for |m| <= N = ceil(dps ln 10 / r) + 2k, past which |d_m| has
    decayed by about 10^-dps; farther points sum their d_m from the roots."""
    p, Q, ls = euler_frobenius_roots_mp(alpha, k, dps)
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)
        q = [mpmath.mpf(f.numerator) / f.denominator / a ** (2 * k - 1 - i)
             for i, f in enumerate(_rational_poly(k))][::-1]
        dQ = [mpmath.polyval([i * b for i, b in enumerate(Q)][:0:-1], z) for z in ls]

        def residues(m: int):
            return mpmath.fsum(z ** (k - 2 + m) / w for z, w in zip(ls, dQ))

        N = 2 * k
        if ls:
            N += int(mpmath.ceil(dps * mpmath.log(10) / -mpmath.log(-min(ls))))
        d = [residues(m) for m in range(N + 1)]
        if k == 1:
            d[0] = 1 / Q[0]

    def L(x: float):
        with mpmath.workdps(dps):
            x = mpmath.mpf(x)
            lo, hi = int(mpmath.floor(x - k)) + 1, int(mpmath.ceil(x + k)) - 1
            G = {n: mpmath.exp(-a * abs(x - n)) * mpmath.polyval(q, abs(x - n))
                 for n in range(lo - k, hi + k + 1)}
            return mpmath.fsum((d[abs(j)] if abs(j) <= N else residues(abs(j)))
                               * mpmath.fsum(pm * G[j - k + m] for m, pm in enumerate(p))
                               for j in range(lo, hi + 1))
    return L
