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
from functools import cache, cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .cardinal_interpolation import (_GATHER_ELEMS, DataSequence,
                                     FundamentalFunction, GrowthModel,
                                     _solve_window, _table_sequence,
                                     interpolate_grid)
from .errors import (QuadratureConvergenceError, ToleranceUnreachableError,
                     UnknownTargetError)
from .greens_kernel import SplineParams, eval_green_hat
from .spectral_symbol import _choose_shift_count, _em_tails

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_TWO_PI = 2.0 * math.pi
# the points of each Gauss-Legendre panel
_GAUSS_ORDER = 24
# the sup-error grid, _SUP_POINTS equispaced points on [-W, W], W =
# _SUP_HALF_WIDTH, and the tolerance of its window solve
_SUP_HALF_WIDTH = 5.0
_SUP_POINTS = 101
_SUP_TOL = 1e-9
# S's absolute tolerance in the error integrals, relative to |Ehat_k(pi)|:
# at 1e-12 its truncated tail still showed as 1e-13 relative in l2_error
# and l2_bound against 40-digit references
_S_TOL = 1e-14


# ---------------------------------------------------------------------------
# quadrature helpers (fixed high-order Gauss panels on smooth pieces)
# ---------------------------------------------------------------------------

@cache
def _gauss_nodes():
    return np.polynomial.legendre.leggauss(_GAUSS_ORDER)


def _panel_nodes(pieces: Sequence[tuple], panels_per_piece: int):
    """Gauss nodes/weights tiling each smooth piece with `panels_per_piece` panels."""
    gx, gw = _gauss_nodes()
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
    that quadrature never straddles a kink or jump.
    """

    name: str
    spectrum: Callable
    pieces: tuple

    def time_eval(self, x) -> float | np.ndarray:
        """g(x) = (2 pi)^{-1/2} int ghat(xi) cos(x xi) d xi by panel quadrature
        (the spectrum is even).

        A value depends on |x| alone, not on the batch it is evaluated in.
        Each point gets the panel count of its power-of-two class,
        max(16, ceil(span 2^c / 10)) with 2^c the least power of two at or
        above max(1, |x|), and its row of cosines is its own ddot with the
        weighted spectrum.  Each distinct |x| is evaluated once.
        """
        ax, inv = np.unique(np.abs(np.atleast_1d(np.asarray(x, dtype=float))),
                            return_inverse=True)
        span = sum(b - a for (a, b) in self.pieces)
        mant, e = np.frexp(np.maximum(ax, 1.0))
        panels = np.maximum(16.0, np.ceil(span * np.ldexp(1.0, e - (mant == 0.5)) / 10.0))
        vals = np.empty(len(ax))
        for p in np.unique(panels).tolist():
            sel = panels == p
            nodes, w = _panel_nodes(self.pieces, int(p))
            C = np.cos(np.multiply.outer(ax[sel], nodes))
            vals[sel] = np.vecdot(C, w * self.spectrum(nodes))
        out = _INV_SQRT_2PI * vals[inv]
        return float(out[0]) if np.isscalar(x) or np.ndim(x) == 0 else out

    @cached_property
    def l2_norm_sq(self) -> float:
        """int |ghat|^2 over the support (= ||g||^2 by Plancherel)."""
        nodes, w = _panel_nodes(self.pieces, 8)
        gh = np.asarray(self.spectrum(nodes), dtype=float)
        return float(np.dot(w, gh * gh))


def _bump_spectrum(xi):
    xi = np.asarray(xi, dtype=float)
    u = xi / np.pi
    inside = np.abs(u) < 1.0
    out = np.zeros_like(u)
    v = np.where(inside, 1.0 - u * u, 1.0)
    out[inside] = np.exp(-1.0 / v[inside])
    return out


# one shared, frozen instance per target, so each l2_norm_sq is computed once
_GALLERY = {t.name: t for t in (
    BandlimitedTarget(
        name="sinc",
        spectrum=lambda xi: np.full_like(np.asarray(xi, dtype=float), _INV_SQRT_2PI),
        pieces=((-np.pi, np.pi),)),
    # ghat = (2 pi)^{-1/2}(1 - |xi|/pi): g(x) = (1/2) (sin(pi x/2)/(pi x/2))^2,
    # samples 2/(pi j)^2 at odd j
    BandlimitedTarget(
        name="triangle-spectrum",
        spectrum=lambda xi: _INV_SQRT_2PI * (1.0 - np.abs(xi) / np.pi),
        pieces=((-np.pi, 0.0), (0.0, np.pi))),
    # samples decay faster than any polynomial
    BandlimitedTarget(name="bump-spectrum", spectrum=_bump_spectrum,
                      pieces=((-np.pi, np.pi),)),
    # ghat = (2 pi)^{-1/2} on [-pi/2, pi/2]: g(x) = sin(pi x/2)/(pi x),
    # samples ~ 1/(pi j) at odd j: slowest admissible l2 decay
    BandlimitedTarget(
        name="half-band",
        spectrum=lambda xi: np.where(np.abs(np.asarray(xi, dtype=float)) <= np.pi / 2,
                                     _INV_SQRT_2PI, 0.0),
        pieces=((-np.pi / 2, np.pi / 2),)),
)}


def gallery_names() -> list[str]:
    return list(_GALLERY)


def target_gallery(name: str) -> BandlimitedTarget:
    try:
        return _GALLERY[name]
    except KeyError:
        raise UnknownTargetError(
            f"unknown target {name!r}; available: {', '.join(_GALLERY)}") from None


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


def _deviation_split(params: SplineParams, xi, s_tol: float, t_tol: float):
    """(S, T, M) at xi in [-pi, pi] from one lattice pass: w = (u^2 + a^2)^{-k},
    u = xi - 2 pi j, formed once over 0 < |j| <= M, gives P^{!=0} = sum w and
    S_2k^{!=0} = sum w^2, each with its order's Euler-Maclaurin tail from M.

    S = P^{!=0} / P to absolute accuracy s_tol, and T = S_2k^{!=0} / P^2 to
    t_tol, dividing by P twice since P^2 overflows at small alpha and high k.
    P = P^{!=0} + the centre term adds positive terms, so S keeps its relative
    accuracy where it is tiny.  M is the largest of the shift counts that
    certify P^{!=0} (for S), P and S_2k^{!=0} (for T) on their own, so no sum
    gets fewer terms; the count returned is the order-2k one.

    Raises ToleranceUnreachableError at once when a tolerance is not positive
    (NaN included), and when S_2k^{!=0}'s tolerance t_tol (pi^2 + a^2)^{-2k}
    / 4 underflows to 0, at large alpha and k (from k = 28 at alpha = 700).
    """
    if not (s_tol > 0 and t_tol > 0):
        raise ToleranceUnreachableError(
            f"lattice tolerances must be positive, got {s_tol:g} and {t_tol:g}")
    a, k = params.alpha, params.k
    e_pi = abs(eval_green_hat(params, np.pi))
    tol_2k = 0.25 * t_tol * e_pi * e_pi
    if not tol_2k > 0:
        raise ToleranceUnreachableError(
            f"the replica power T at (alpha={a}, k={k}) cannot be certified: its "
            f"lattice tolerance {t_tol:g} (pi^2 + alpha^2)^(-2k) / 4 underflows "
            "double precision")
    M2k = _choose_shift_count(a, 2 * k, tol_2k)
    M = max(M2k, _choose_shift_count(a, k, min(s_tol, 0.25 * t_tol) * e_pi))
    xi_a = np.atleast_1d(np.asarray(xi, dtype=float))
    xr = xi_a - _TWO_PI * np.round(xi_a / _TWO_PI)
    j = np.arange(-M, M + 1)
    shifts = _TWO_PI * j[j != 0]
    rest, rest2 = np.empty_like(xr), np.empty_like(xr)
    block = max(1, _GATHER_ELEMS // len(shifts))
    for s in range(0, len(xr), block):
        w = xr[s:s + block, None] - shifts
        np.multiply(w, w, out=w)
        w += a * a
        w **= -k
        rest[s:s + block] = np.sum(w, axis=1)
        np.multiply(w, w, out=w)
        rest2[s:s + block] = np.sum(w, axis=1)
    tail, tail2 = _em_tails(xr, a, (k, 2 * k), M)
    rest += tail
    rest2 += tail2
    P = rest + (xr * xr + a * a) ** (-k)
    return rest / P, rest2 / P / P, M2k


def replica_power(params: SplineParams, xi, tol: float = 1e-12):
    """(T(xi), M) for xi in [-pi, pi]: T = sum_{l != 0} 2 pi Lhat_k(xi - 2 pi l)^2
    = S_2k^{!=0}(xi) / P(xi)^2 to absolute accuracy tol, and M the replicas
    per side that certify S_2k^{!=0} (_deviation_split)."""
    _, T, M = _deviation_split(params, xi, tol, tol)
    return (float(T[0]), M) if np.ndim(xi) == 0 else (T, M)


@dataclass(frozen=True)
class ErrorReport:
    """Interpolation error summary for one (params, target) cell;
    ell_truncation is replica_power's M, cardinality_error, decay_rate and
    cond_B those of the L_k the sup error was interpolated with (decay_rate
    None at k = 1), and sup_window that L_k's window J on the sup-error
    grid."""

    params: SplineParams
    target: str
    l2_error: float
    l2_bound: float
    sup_error_grid: float
    quadrature_resolution: int
    ell_truncation: int
    cardinality_error: float
    sup_window: int
    decay_rate: float | None
    cond_B: float

    def __post_init__(self):
        vals = (self.l2_error, self.l2_bound, self.sup_error_grid)
        if any(v < 0 for v in vals):
            raise ValueError("error quantities must be nonnegative")
        if self.l2_error > self.l2_bound * (1 + 1e-12):
            raise ValueError(
                f"exact error {self.l2_error} exceeds its bound {self.l2_bound}")


def _gauss_levels(target: BandlimitedTarget):
    """panels per piece -> (nodes, weights, |ghat|^2 at the nodes) of the
    target's Gauss rule, each level formed once; error_sweep keeps one for
    all the orders of a sweep."""
    @cache
    def level(panels: int):
        nodes, w = _panel_nodes(target.pieces, panels)
        gh = np.asarray(target.spectrum(nodes), dtype=float)
        return nodes, w, gh * gh
    return level


def _error_integrals(params: SplineParams, target: BandlimitedTarget,
                     tol: float, levels: Callable | None = None
                     ) -> tuple[float, float, int, int]:
    """(int |ghat|^2 (S^2+T), int |ghat|^2 S^2, quad resolution, M), by
    doubling Gauss panels on the target's smooth pieces until two levels
    agree; M is replica_power's explicit replicas per side.

    No integral stops before 4 panels per piece, so the nodes of levels 2
    and 4 go through one lattice pass, and every later level through one
    of its own.  Each node's lattice sums are its own; the pass shares only
    the tail series' length, whose extra terms lie below 1e-17 of a sum.

    Raises ToleranceUnreachableError at once when tol is not positive (NaN
    included), and QuadratureConvergenceError when 256 panels per piece still
    do not agree with 128.
    """
    if not tol > 0:
        raise ToleranceUnreachableError(f"error tolerance must be positive, got {tol:g}")
    levels = levels or _gauss_levels(target)
    t_tol = tol / max(target.l2_norm_sq, 1e-12)

    def integrals(panels, S, T):
        _, w, gh2 = levels(panels)
        return float(np.dot(w, gh2 * (S * S + T))), float(np.dot(w, gh2 * S * S))

    n2 = len(levels(2)[0])
    S, T, M = _deviation_split(params, np.concatenate([levels(2)[0], levels(4)[0]]),
                               _S_TOL, t_tol)
    prev, cur = integrals(2, S[:n2], T[:n2]), integrals(4, S[n2:], T[n2:])
    panels = 4
    while True:
        (prev_exact, prev_s2), (exact, s2) = prev, cur
        scale = max(abs(exact), 1e-30)
        if abs(exact - prev_exact) < max(tol, 1e-13 * scale) and \
           abs(s2 - prev_s2) < max(tol, 1e-13 * scale):
            break
        if panels >= 256:
            raise QuadratureConvergenceError(
                f"error integrals for {target.name!r} at (alpha={params.alpha}, "
                f"k={params.k}) did not converge within 256 panels per piece "
                f"(last change {abs(exact - prev_exact):.3e})")
        panels *= 2
        S, T, M = _deviation_split(params, levels(panels)[0], _S_TOL, t_tol)
        prev, cur = cur, integrals(panels, S, T)
    return exact, s2, panels * _GAUSS_ORDER * len(target.pieces), M


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


def sup_error_grid(L: FundamentalFunction, data: DataSequence, xs: np.ndarray,
                   g: np.ndarray) -> float:
    """max over the points xs of |g - I_k[g]|, where g holds the target's
    values there and I_k[g] is interpolate_grid on its integer samples data,
    in best-effort mode."""
    fb = interpolate_grid(L, data, xs, _SUP_TOL, best_effort=True)
    return float(np.max(np.abs(fb - g)))


def error_sweep(target: BandlimitedTarget, fundamentals: Iterable[FundamentalFunction],
                tol: float = 1e-10) -> list[ErrorReport]:
    """The ErrorReport of each fundamental function L, at L.params, in turn.

    Each order's sup error is taken on the sup-error grid from the integer
    samples |j| <= ceil(W) + J + 2, J its window at the grid's edge.  What
    the orders share is computed once per sweep: the target's values on the
    grid, one table of its integer samples out to the widest order's window
    (each window lies inside it, every entry stored, so each order sums what
    it would sum alone), and the Gauss panel levels of the error integrals;
    the target keeps its l2_norm_sq.
    """
    Ls = list(fundamentals)
    if not Ls:
        return []
    xs = np.linspace(-_SUP_HALF_WIDTH, _SUP_HALF_WIDTH, _SUP_POINTS)
    wins = [_solve_window(L, round(_SUP_HALF_WIDTH), GrowthModel(), _SUP_TOL,
                          clip_to_knee=True) for L in Ls]
    top = math.ceil(_SUP_HALF_WIDTH) + max(wins) + 2
    js = np.arange(-top, top + 1)
    data = _table_sequence(f"{target.name}-samples", js, target.time_eval(js))
    g = target.time_eval(xs)
    levels = _gauss_levels(target)
    reports = []
    for L, J in zip(Ls, wins):
        exact, s2, quad_res, ell = _error_integrals(L.params, target, tol, levels)
        sup = sup_error_grid(L, data, xs, g)
        reports.append(ErrorReport(params=L.params, target=target.name,
                                   l2_error=math.sqrt(max(exact, 0.0)),
                                   l2_bound=math.sqrt(max(2.0 * s2, 0.0)),
                                   sup_error_grid=sup,
                                   quadrature_resolution=quad_res,
                                   ell_truncation=ell,
                                   cardinality_error=L.cardinality_error,
                                   sup_window=J, decay_rate=L.env_rate,
                                   cond_B=L.table.cond_B))
    return reports
