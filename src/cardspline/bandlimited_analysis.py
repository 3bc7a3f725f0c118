"""Band-limited targets and the spectral error analysis of the interpolation
operator I_k[g] = sum_j g(j) L_k(. - j).

For g with spectrum supported in [-pi, pi], the interpolation error splits
exactly over one period (Plancherel plus periodization):

    ||g - I_k[g]||^2 = int_{-pi}^{pi} |ghat|^2 [ S(xi)^2 + T(xi) ] d xi,
    S(xi) = 1 - sqrt(2 pi) Lhat_k(xi) = sum_{l != 0} sqrt(2 pi) Lhat_k(xi - 2 pi l),
    T(xi) = sum_{l != 0} 2 pi Lhat_k(xi - 2 pi l)^2.

With P and S_2k the lattice sums of (u^2 + a^2)^{-m}, u = xi - 2 pi j, at
orders m = k and 2k, and != 0 marking a sum without its j = 0 term, both are
ratios with no subtraction: S = P^{!=0} / P and T = S_2k^{!=0} / P^2.

Each spectral replica obeys the aliasing envelope

    sqrt(2 pi) Lhat_k(xi - 2 pi l) <= ((pi^2+a^2)/((2|l|-1)^2 pi^2 + a^2))^k,

whose k-th-power base drives the convergence as the order grows.  Termwise
positivity gives T <= S^2, hence the computable bound sqrt(2 int |ghat|^2 S^2)
dominates the exact error by at most sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .cardinal_interpolation import (DataSequence, FundamentalFunction,
                                     GrowthModel, _solve_window,
                                     build_fundamental, interpolate_grid)
from .errors import (QuadratureConvergenceError, ToleranceUnreachableError,
                     UnknownTargetError)
from .greens_kernel import SplineParams, eval_green_hat
from .spectral_symbol import lattice_sum

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# quadrature helpers (fixed high-order Gauss panels on smooth pieces)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _gauss_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _panel_nodes(pieces: Sequence[tuple], panels_per_piece: int, order: int = 24):
    """Gauss nodes/weights tiling each smooth piece with `panels_per_piece` panels."""
    gx, gw = _gauss_nodes(order)
    nodes, weights = [], []
    for (a, b) in pieces:
        edges = np.linspace(a, b, panels_per_piece + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        nodes.append((mid[:, None] + half[:, None] * gx).ravel())
        weights.append((half[:, None] * gw).ravel())
    return np.concatenate(nodes), np.concatenate(weights)


# ---------------------------------------------------------------------------
# targets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BandlimitedTarget:
    """A band-limited function given by its (even, real) spectrum on [-pi, pi].

    `pieces` lists the smooth closed sub-intervals of the spectrum's support so
    that quadrature never straddles a kink or jump.  `sample_tail_l2` estimates
    sum_{|j|>J} g(j)^2 from the target's decay class.
    """

    name: str
    spectrum: Callable
    pieces: tuple
    sample_tail_l2: Callable

    def time_eval(self, x) -> float | np.ndarray:
        """g(x) = (2 pi)^{-1/2} int ghat(xi) e^{i x xi} d xi by panel quadrature.

        The spectrum is even, so the transform reduces to a cosine integral.
        When the points are antisymmetric (x reversed is -x, as for the
        integer samples -J..J), the cosine rows of the first half are copied
        from their mirror rows: (-x) xi = -(x xi) exactly and cos is even, so
        the copies are bit for bit the rows they replace, and the product keeps
        its full shape.
        """
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        span = sum(b - a for (a, b) in self.pieces)
        xmax = float(np.max(np.abs(xs))) if len(xs) else 1.0
        panels = max(16, int(math.ceil(span * max(1.0, xmax) / 10.0)))
        nodes, w = _panel_nodes(self.pieces, panels)
        gh = np.asarray(self.spectrum(nodes), dtype=float)
        h = len(xs) // 2 if np.array_equal(xs, -xs[::-1]) else 0
        C = np.empty((len(xs), len(nodes)))
        np.multiply.outer(xs[h:], nodes, out=C[h:])
        np.cos(C[h:], out=C[h:])
        C[:h] = C[::-1][:h]
        out = _INV_SQRT_2PI * (C @ (w * gh))
        return float(out[0]) if np.isscalar(x) or np.ndim(x) == 0 else out

    @property
    def l2_norm_sq(self) -> float:
        """int |ghat|^2 over the support (= ||g||^2 by Plancherel)."""
        nodes, w = _panel_nodes(self.pieces, 8)
        gh = np.asarray(self.spectrum(nodes), dtype=float)
        return float(np.dot(w, gh * gh))


def _sinc_target() -> BandlimitedTarget:
    c = _INV_SQRT_2PI
    return BandlimitedTarget(
        name="sinc",
        spectrum=lambda xi: np.full_like(np.asarray(xi, dtype=float), c),
        pieces=((-np.pi, np.pi),),
        sample_tail_l2=lambda J: 0.0,          # samples are exactly the delta
    )


def _triangle_target() -> BandlimitedTarget:
    # ghat = (2 pi)^{-1/2}(1 - |xi|/pi): g(x) = (1/2) (sin(pi x/2)/(pi x/2))^2,
    # samples 2/(pi j)^2 at odd j, so the l2 tail is ~ 8/(3 pi^4 J^3)
    return BandlimitedTarget(
        name="triangle-spectrum",
        spectrum=lambda xi: _INV_SQRT_2PI * (1.0 - np.abs(xi) / np.pi),
        pieces=((-np.pi, 0.0), (0.0, np.pi)),
        sample_tail_l2=lambda J: 8.0 / (3.0 * np.pi ** 4 * max(J, 1) ** 3),
    )


def _bump_target() -> BandlimitedTarget:
    def spectrum(xi):
        xi = np.asarray(xi, dtype=float)
        u = xi / np.pi
        inside = np.abs(u) < 1.0
        out = np.zeros_like(u)
        v = np.where(inside, 1.0 - u * u, 1.0)
        out[inside] = np.exp(-1.0 / v[inside])
        return out

    def tail(J):
        # samples decay faster than any polynomial; crude geometric cap from
        # the last couple of computed magnitudes
        t = _bump_cached()
        g1 = abs(t.time_eval(float(J)))
        return 40.0 * g1 * g1

    return BandlimitedTarget(name="bump-spectrum", spectrum=spectrum,
                             pieces=((-np.pi, np.pi),), sample_tail_l2=tail)


@lru_cache(maxsize=1)
def _bump_cached() -> BandlimitedTarget:
    return _bump_target()


def _half_band_target() -> BandlimitedTarget:
    # ghat = (2 pi)^{-1/2} on [-pi/2, pi/2]: g(x) = sin(pi x/2)/(pi x),
    # samples ~ 1/(pi j) at odd j: slowest admissible l2 decay, tail ~ 1/(pi^2 J)
    c = _INV_SQRT_2PI
    return BandlimitedTarget(
        name="half-band",
        spectrum=lambda xi: np.where(np.abs(np.asarray(xi, dtype=float)) <= np.pi / 2, c, 0.0),
        pieces=((-np.pi / 2, np.pi / 2),),
        sample_tail_l2=lambda J: 1.0 / (np.pi ** 2 * max(J, 1)),
    )


_GALLERY = {
    "sinc": _sinc_target,
    "triangle-spectrum": _triangle_target,
    "bump-spectrum": _bump_cached,
    "half-band": _half_band_target,
}


def gallery_names() -> list[str]:
    return list(_GALLERY)


def target_gallery(name: str) -> BandlimitedTarget:
    try:
        return _GALLERY[name]()
    except KeyError:
        raise UnknownTargetError(
            f"unknown target {name!r}; available: {', '.join(_GALLERY)}") from None


def sample_integers(target: BandlimitedTarget, J: int) -> DataSequence:
    """Integer samples {g(j): |j| <= J} as a finitely supported sequence with
    growth beta = 0 and the target's l2 tail estimate attached."""
    if J < 0:
        raise ValueError("J must be >= 0")
    js = np.arange(-J, J + 1)
    vals = np.asarray(target.time_eval(js.astype(float)))
    table = {int(j): float(v) for j, v in zip(js, vals)}
    amp = max(1.0, float(np.max(np.abs(vals))))
    return DataSequence(name=f"{target.name}-samples", table=table,
                        growth=GrowthModel(beta=0.0, amplitude=amp),
                        zero_fill=True,
                        l2_tail=float(target.sample_tail_l2(J)))


# ---------------------------------------------------------------------------
# spectral error machinery
# ---------------------------------------------------------------------------

def aliasing_envelope(params: SplineParams, ell: int) -> float:
    """Bound on |Lhat_k(xi - 2 pi l)| for xi in [-pi, pi]:
    (2 pi)^{-1/2} ((pi^2+a^2)/((2|l|-1)^2 pi^2 + a^2))^k."""
    if ell == 0:
        raise ValueError("ell must be nonzero")
    a2 = params.alpha * params.alpha
    base = (np.pi ** 2 + a2) / ((2 * abs(ell) - 1) ** 2 * np.pi ** 2 + a2)
    return _INV_SQRT_2PI * base ** params.k


def interp_deviation(params: SplineParams, xi, tol: float = 1e-12):
    """S(xi) = 1 - sqrt(2 pi) Lhat_k(xi) = P^{!=0}(xi) / P(xi) for xi in
    [-pi, pi], to absolute accuracy tol.  P = P^{!=0} + the centre term adds
    positive terms, so S keeps its relative accuracy where it is tiny."""
    rest, _ = lattice_sum(xi, params.alpha, params.k,
                          tol * abs(eval_green_hat(params, np.pi)), skip_center=True)
    xs = np.asarray(xi, dtype=float)
    out = rest / (rest + (xs * xs + params.alpha ** 2) ** (-params.k))
    return float(out[0]) if np.ndim(xi) == 0 else out


def replica_power(params: SplineParams, xi, tol: float = 1e-12):
    """(T(xi), M) for xi in [-pi, pi]: T = sum_{l != 0} 2 pi Lhat_k(xi - 2 pi l)^2
    = S_2k^{!=0}(xi) / P(xi)^2 to absolute accuracy tol, dividing by P twice
    since P^2 overflows at small alpha and high k.  M is the replicas per side
    that S_2k^{!=0} sums explicitly; its Euler-Maclaurin tail covers the rest.
    """
    if not tol > 0:
        raise ToleranceUnreachableError(f"replica tolerance must be positive, got {tol:g}")
    e_pi = abs(eval_green_hat(params, np.pi))
    P, _ = lattice_sum(xi, params.alpha, params.k, 0.25 * tol * e_pi)
    rest, M = lattice_sum(xi, params.alpha, 2 * params.k, 0.25 * tol * e_pi * e_pi,
                          skip_center=True)
    out = rest / P / P
    return (float(out[0]), M) if np.ndim(xi) == 0 else (out, M)


@dataclass(frozen=True)
class ErrorReport:
    """Interpolation error summary for one (params, target) cell;
    ell_truncation is replica_power's M, cardinality_error that of the L_k
    the sup error was interpolated with."""

    params: SplineParams
    target: str
    l2_error: float
    l2_bound: float
    sup_error_grid: float
    quadrature_resolution: int
    ell_truncation: int
    cardinality_error: float = 0.0

    def __post_init__(self):
        vals = (self.l2_error, self.l2_bound, self.sup_error_grid)
        if any(v < 0 for v in vals):
            raise ValueError("error quantities must be nonnegative")
        if self.l2_error > self.l2_bound * (1 + 1e-12):
            raise ValueError(
                f"exact error {self.l2_error} exceeds its bound {self.l2_bound}")


def _error_integrals(params: SplineParams, target: BandlimitedTarget,
                     tol: float) -> tuple[float, float, int, int]:
    """(int |ghat|^2 (S^2+T), int |ghat|^2 S^2, quad resolution, M), by
    doubling Gauss panels on the target's smooth pieces; M is replica_power's
    explicit replicas per side.

    Raises ToleranceUnreachableError at once when tol is not positive (NaN
    included), and QuadratureConvergenceError when 256 panels per piece still
    do not agree with 128.
    """
    if not tol > 0:
        raise ToleranceUnreachableError(f"error tolerance must be positive, got {tol:g}")
    t_tol = tol / max(target.l2_norm_sq, 1e-12)
    prev_exact = prev_s2 = None
    panels, order = 2, 24
    while True:
        nodes, w = _panel_nodes(target.pieces, panels, order)
        gh2 = np.asarray(target.spectrum(nodes), dtype=float) ** 2
        S = np.asarray(interp_deviation(params, nodes))
        T, M = replica_power(params, nodes, t_tol)
        exact = float(np.dot(w, gh2 * (S * S + T)))
        s2 = float(np.dot(w, gh2 * S * S))
        if prev_exact is not None:
            scale = max(abs(exact), 1e-30)
            if abs(exact - prev_exact) < max(tol, 1e-13 * scale) and \
               abs(s2 - prev_s2) < max(tol, 1e-13 * scale):
                break
            if panels >= 256:
                raise QuadratureConvergenceError(
                    f"error integrals for {target.name!r} at (alpha={params.alpha}, "
                    f"k={params.k}) did not converge within 256 panels per piece "
                    f"(last change {abs(exact - prev_exact):.3e})")
        prev_exact, prev_s2 = exact, s2
        panels *= 2
    return exact, s2, panels * order * len(target.pieces), M


def l2_error_spectral(params: SplineParams, target: BandlimitedTarget,
                      tol: float = 1e-10) -> float:
    """Exact L2 interpolation error ||g - I_k[g]|| via the S^2 + T decomposition."""
    exact, _, _, _ = _error_integrals(params, target, tol)
    return math.sqrt(max(exact, 0.0))


def l2_error_bound(params: SplineParams, target: BandlimitedTarget,
                   tol: float = 1e-10) -> float:
    """sqrt(2 int |ghat|^2 S^2): dominates the exact error (T <= S^2 termwise)."""
    _, s2, _, _ = _error_integrals(params, target, tol)
    return math.sqrt(max(2.0 * s2, 0.0))


def _sup_grid(grid_half_width: float, n: int) -> np.ndarray:
    if n < 2:
        raise ValueError("n must be >= 2")
    W = float(grid_half_width)
    return np.linspace(-W, W, n)


def sup_error_grid(params: SplineParams, target: BandlimitedTarget,
                   grid_half_width: float = 5.0, n: int = 101,
                   L: FundamentalFunction | None = None,
                   tol: float = 1e-9, g: np.ndarray | None = None) -> float:
    """max over n equispaced points in [-W, W] of |g(x) - I_k[g](x)|, where
    I_k[g] is interpolate_grid on the integer samples in best-effort mode.

    g, when given, holds the target's values at those points; error_sweep
    computes them once for all the orders of a sweep.
    """
    xs = _sup_grid(grid_half_width, n)
    if L is None:
        L = build_fundamental(params, 1e-10)
    W = float(grid_half_width)
    J_win = 1 if L.compact else _solve_window(L, int(round(W)), GrowthModel(), tol,
                                              clip_to_knee=True)
    data = sample_integers(target, int(math.ceil(W)) + J_win + 2)
    if g is None:
        g = target.time_eval(xs)
    fb = interpolate_grid(L, data, xs, tol, best_effort=True)
    return float(np.max(np.abs(fb - g)))


def error_sweep(target: BandlimitedTarget, fundamentals: Iterable[FundamentalFunction],
                tol: float = 1e-10, grid_half_width: float = 5.0,
                n: int = 101) -> list[ErrorReport]:
    """The ErrorReport of each fundamental function L, at L.params, in turn.

    The sup-error grid and the target's values on it are the same for every
    order, so they are computed once per sweep.
    """
    g = target.time_eval(_sup_grid(grid_half_width, n))
    reports = []
    for L in fundamentals:
        exact, s2, quad_res, ell = _error_integrals(L.params, target, tol)
        sup = sup_error_grid(L.params, target, grid_half_width, n, L=L, g=g)
        reports.append(ErrorReport(params=L.params, target=target.name,
                                   l2_error=math.sqrt(max(exact, 0.0)),
                                   l2_bound=math.sqrt(max(2.0 * s2, 0.0)),
                                   sup_error_grid=sup,
                                   quadrature_resolution=quad_res,
                                   ell_truncation=ell,
                                   cardinality_error=L.cardinality_error))
    return reports


def error_report(params: SplineParams, target: BandlimitedTarget,
                 tol: float = 1e-10, grid_half_width: float = 5.0,
                 n: int = 101, L: FundamentalFunction | None = None) -> ErrorReport:
    """error_sweep of one order; L, when given, must be built for params."""
    if L is None:
        L = build_fundamental(params, 1e-10)
    elif L.params != params:
        raise ValueError(f"L is built for {L.params}, not {params}")
    return error_sweep(target, [L], tol, grid_half_width, n)[0]
