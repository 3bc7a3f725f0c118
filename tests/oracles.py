"""Independent oracles for the test suite.

Everything here is deliberately built on different machinery than the shipped
code paths: QUADPACK quadrature over the real line for transforms and for L_k
itself (eval_fundamental_spectral), the spatial cosine-series (Poisson
summation) route for the periodized symbol, the k = 1 hyperbolic closed
forms, and direct mpmath lattice sums for the error split S, T.  The
exceptions are earlier forms kept as bitwise references for their faster
replacements: interpolate_pointwise (one point at a time, for
interpolate_grid), eval_fundamental_direct (one kernel evaluation per point
and table entry, for the shared kernel rows of eval_fundamental),
refined_coefficients_fsum (one math.fsum per coefficient, for the exact row
sums of the coefficient refinement), eval_green_out_of_place (for the in-place
eval_green), sample_reciprocal_full (every sample of every doubling level,
for the reuse of the even ones), panel_nodes_loop (one panel at a time, for
_panel_nodes), time_eval_full (the whole cosine matrix, for the mirrored
rows of BandlimitedTarget.time_eval), tail_integral_loop (the whole-array
convergence test in every term, for _tail_integral) and
interpolate_grid_loop (one window solve per center and one np.dot per
point, for the grouped contraction of interpolate_grid); and two reference
quantities that only the tests read: the exact one-sided knot derivatives of
E_k and the plain (uncorrected) periodization tail bound.

scipy and mpmath are imported here only; the package itself needs neither.
"""

import math

import mpmath
import numpy as np
from scipy.integrate import quad

from cardspline import cardinal_interpolation as ci
from cardspline.bandlimited_analysis import _panel_nodes
from cardspline.cardinal_interpolation import _solve_window
from cardspline.errors import MissingDataError
from cardspline.greens_kernel import (SplineParams, build_green_kernel, eval_green,
                                      eval_green_hat)
from cardspline.spectral_symbol import fundamental_hat, reciprocal_symbol

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
    sig = np.asarray(reciprocal_symbol(params, xi_grid, 1e-13))
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


def l2_error_and_bound_mp(alpha: float, k: int, nodes, weights, spectrum,
                          dps: int = 40) -> tuple[float, float]:
    """(sqrt(sum w ghat^2 (S^2 + T)), sqrt(2 sum w ghat^2 S^2)): the spectral
    error and its bound by the quadrature rule (nodes, weights) with spectrum
    values ghat there, accumulated at dps digits from deviation_replica_mp."""
    with mpmath.workdps(dps):
        exact = s2 = mpmath.mpf(0)
        for (S, T), w, g in zip(deviation_replica_mp(alpha, k, nodes, dps),
                                np.asarray(weights, dtype=float).tolist(),
                                np.asarray(spectrum, dtype=float).tolist()):
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
    """f_b(x) one point at a time: its own window solve, a dict gather and its
    own L_k synthesis over the kept window indices."""
    m = int(round(x))
    if L.cardinality_ok and abs(x - m) < 1e-12:
        return float(data.values(np.array([m]))[0])
    J = _solve_window(L, m, data.growth, tol, clip_to_knee=best_effort)
    js = np.arange(m - J, m + J + 1)
    if data.table is not None and data.zero_fill:
        keep = np.array([int(j) in data.table for j in js])
        js = js[keep]
        if len(js) == 0:
            return 0.0
    b = data.values(js)
    Lv = np.asarray(eval_fundamental_direct(L, x - js.astype(float)))
    return float(np.dot(b, Lv))


def eval_fundamental_direct(L, x) -> float | np.ndarray:
    """L_k(x) = (2 pi)^{-1/2} sum_{|j| <= J} c_j E_k(x - j).

    Truncation error is bounded by tail_bound * max|E_k| * (2 pi)^{-1/2}.
    Arguments are folded to |x| first, making evenness exact in floating
    point rather than merely up to summation-order noise.  Accepts scalars
    or arrays.
    """
    xs = np.abs(np.atleast_1d(np.asarray(x, dtype=float)))
    js = L.table.indices.astype(float)
    out = np.empty_like(xs)
    block = max(1, int(2e6 // max(1, len(js))))
    for s in range(0, len(xs), block):
        diff = xs[s:s + block, None] - js[None, :]
        out[s:s + block] = np.asarray(eval_green(L.kernel, diff)) @ L.table.coeffs
    out *= INV_SQRT_2PI
    return float(out[0]) if np.isscalar(x) or np.ndim(x) == 0 else out


def refined_coefficients_fsum(vals: np.ndarray, j_max: int) -> np.ndarray:
    """Trapezoid Fourier coefficients c_0..c_{j_max} of the sampled symbol,
    one math.fsum over the n products per coefficient."""
    n = len(vals)
    cos_table = np.cos(2.0 * math.pi * np.arange(n) / n)
    idx = np.arange(n)
    out = np.empty(j_max + 1)
    for j in range(j_max + 1):
        prods = vals * cos_table[(j * idx) % n]
        out[j] = math.fsum(prods.tolist()) / n
    return out


def bits(a) -> np.ndarray:
    """The IEEE bit patterns of a, for comparisons that tell -0.0 from 0.0
    and one NaN from another."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def eval_green_out_of_place(kernel, x) -> float | np.ndarray:
    """E_k(x) with a fresh array for every step of the Horner loop."""
    ax = np.abs(np.asarray(x, dtype=float))
    p = np.zeros_like(ax)
    for cm in kernel.poly_coeffs[::-1]:
        p = p * ax + cm
    out = np.exp(-kernel.params.alpha * ax) * p
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def sample_reciprocal_full(params: SplineParams, n: int) -> np.ndarray:
    """sigma at all n points 2 pi i / n, sampled afresh."""
    xi = 2.0 * math.pi * np.arange(n) / n
    return np.asarray(reciprocal_symbol(params, xi, 1e-13))


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


def time_eval_full(target, x) -> float | np.ndarray:
    """target.time_eval with the cosine of every point and node computed."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    span = sum(b - a for (a, b) in target.pieces)
    xmax = float(np.max(np.abs(xs))) if len(xs) else 1.0
    panels = max(16, int(math.ceil(span * max(1.0, xmax) / 10.0)))
    nodes, w = _panel_nodes(target.pieces, panels)
    gh = np.asarray(target.spectrum(nodes), dtype=float)
    out = INV_SQRT_2PI * (np.cos(np.outer(xs, nodes)) @ (w * gh))
    return float(out[0]) if np.isscalar(x) or np.ndim(x) == 0 else out


def tail_integral_loop(u0, alpha: float, k: int):
    """spectral_symbol._tail_integral with the whole-array convergence test
    in every iteration."""
    u0 = np.asarray(u0, dtype=float)
    q = (alpha / u0) ** 2
    term = np.ones_like(u0)
    total = np.zeros_like(u0)
    for m in range(120):
        contrib = term / (2 * k + 2 * m - 1)
        total += contrib
        if np.all(np.abs(contrib) <= 1e-17 * np.abs(total)):
            break
        term *= -q * (k + m) / (m + 1.0)
    return total * u0 ** (1 - 2 * k)


def interpolate_grid_loop(L, data, xs, tol: float = 1e-8,
                          best_effort: bool = False) -> np.ndarray:
    """cardinal_interpolation.interpolate_grid with one window solve per
    distinct |round(x)| and one np.dot per point over the L_k rows of each
    _CHUNK_ELEMS chunk."""
    xs = np.asarray(xs, dtype=float).ravel()
    out = np.empty(len(xs))
    if len(xs) == 0:
        return out
    if not np.all(np.isfinite(xs)):
        raise ValueError("interpolation points must be finite")
    ms = np.rint(xs).astype(np.int64)
    exact = (np.abs(xs - ms) < 1e-12) & L.cardinality_ok
    Js = np.zeros(len(xs), dtype=np.int64)
    centers, which = np.unique(np.abs(ms[~exact]), return_inverse=True)
    Js[~exact] = np.array([ci._solve_window(L, int(m), data.growth, tol,
                                            clip_to_knee=best_effort)
                           for m in centers], dtype=np.int64)[which]
    Jmax = int(np.max(Js))
    cu = np.unique(ms)
    starts = np.concatenate([[True], np.diff(cu) > 2 * Jmax + 1])
    ends = np.concatenate([starts[1:], [True]])
    js = np.concatenate([np.arange(a - Jmax, z + Jmax + 1)
                         for a, z in zip(cu[starts], cu[ends])])
    first = np.searchsorted(js, ms - Js)
    b, present = ci._gather_samples(data, js)
    if not data.zero_fill:
        for f, J in zip(first, Js):
            gap = ~present[f:f + 2 * J + 1]
            if gap.any():
                j = js[f + int(np.argmax(gap))]
                raise MissingDataError(f"no sample at index {j} in sequence {data.name!r}")
    filtered = not np.all(present)
    out[exact] = b[first[exact]]
    todo = np.nonzero(~exact)[0]
    if len(todo) == 0:
        return out
    ts, row = np.unique(xs[todo] - ms[todo], return_inverse=True)
    order = np.argsort(row, kind="stable")
    todo, row = todo[order], row[order]
    offsets = np.arange(-Jmax, Jmax + 1)
    step = max(1, ci._CHUNK_ELEMS // (len(offsets) * len(L.table.coeffs)))
    batch = step * max(1, ci._BATCH_POINTS // (step * len(offsets)))
    for s in range(0, len(ts), step):
        if s % batch == 0:
            windows, at = ci._green_rows(
                L, (ts[s:s + batch, None] - offsets[None, :]).ravel())
        q = (s % batch) * len(offsets)
        Lv = ci._synthesize(L, windows, at[q:q + step * len(offsets)])
        Lv = Lv.reshape(-1, len(offsets))
        lo, hi = np.searchsorted(row, [s, s + step])
        pts = todo[lo:hi]
        for i, r, f, J in zip(pts.tolist(), (row[lo:hi] - s).tolist(),
                              first[pts].tolist(), Js[pts].tolist()):
            win = slice(f, f + 2 * J + 1)
            bi, Li = b[win], Lv[r, Jmax - J:Jmax + J + 1]
            if filtered:
                keep = present[win]
                bi, Li = bi[keep], Li[keep]
            out[i] = np.dot(bi, Li)
    return out
