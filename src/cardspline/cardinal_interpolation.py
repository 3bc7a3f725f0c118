"""The fundamental function L_k and cardinal interpolation of lattice data.

L_k is the unique decaying interpolant of the Kronecker delta on the integers
within the spline family of (D^2 - a^2)^k; anything else is interpolated by
shifted superposition,

    f_b(x) = sum_j b_j L_k(x - j).

The fast path evaluates the spatial synthesis

    L_k(x) = (2 pi)^{-1/2} sum_{|j| <= J} c_j E_k(x - j)

from a coefficient table.

Window selection for the interpolation sums is certified against a fitted
exponential envelope of |L_k| and is aware of two hard limits:

  * data whose exponential growth rate reaches the envelope decay rate makes
    the series diverge (the window solver refuses rather than returning noise);
  * the synthesis cancels k orders of magnitude in its far field, so double
    precision bottoms out at a computable noise floor; windows are never
    widened past the point where the floor dominates.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import (DataFormatError, MissingDataError, ParameterDomainError,
                     UnknownBasisError, WindowOverflowError)
from .greens_kernel import (GreenKernel, SplineParams, build_green_kernel,
                            eval_green)
from .spectral_symbol import (CoefficientTable, compute_coefficients,
                              fit_decay_envelope)

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_WINDOW_CAP = 10 ** 6
_WINDOW_HORIZON = 4000
# elements (points x window x table) per batched synthesis temporary: 64 KB
# keeps the kernel's Horner passes in cache
_CHUNK_ELEMS = 8192
# the envelope tail model ignores sign alternation and overstates real tails
# by a small constant; refusals require missing the floor by this factor
_MODEL_FLOOR_SLACK = 25.0


# ---------------------------------------------------------------------------
# fundamental function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FundamentalFunction:
    """Evaluation-ready L_k: kernel, coefficient table and decay metadata.

    env_rate/env_amplitude describe the fitted envelope |L_k(x)| <=
    C e^{-c |x|}; noise_floor is the double-precision cancellation scale of
    the synthesis.  compact is True for k = 1 (support in [-1, 1]).
    """

    params: SplineParams
    kernel: GreenKernel
    table: CoefficientTable
    env_rate: Optional[float]
    env_amplitude: Optional[float]
    noise_floor: float
    cardinality_ok: bool
    cardinality_error: float = 0.0

    @property
    def compact(self) -> bool:
        return self.table.compact_support


def eval_fundamental(L: FundamentalFunction, x) -> float | np.ndarray:
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
    out *= _INV_SQRT_2PI
    return float(out[0]) if np.isscalar(x) or np.ndim(x) == 0 else out


def _fit_fundamental_envelope(L_partial: FundamentalFunction):
    """Fit |L_k| <= C e^{-c x} on per-unit-interval maxima over [2, 15]."""
    xs = np.arange(2.0, 15.0, 0.05)
    vals = np.abs(np.asarray(eval_fundamental(L_partial, xs)))
    ns = np.arange(2, 14)
    mx = np.array([vals[(xs >= n) & (xs < n + 1)].max() for n in ns])
    keep = mx > 0
    rate, amp = fit_decay_envelope(ns[keep] + 0.5, mx[keep])
    return rate, amp


def build_fundamental(params: SplineParams, tol: float = 1e-10) -> FundamentalFunction:
    """Compose the kernel and coefficient table and certify the two defining
    invariants (delta property on the integers, evenness)."""
    if tol < 1e-14:
        raise ParameterDomainError(f"tol must be >= 1e-14, got {tol:g}")
    kernel = build_green_kernel(params)
    # the coefficient tail enters L scaled by max|E_k|, which blows up at small
    # alpha; tighten the table tolerance accordingly
    table_tol = max(1e-14, tol / max(1.0, kernel.peak * _INV_SQRT_2PI))
    table = compute_coefficients(params, table_tol)

    # double-precision floor of the synthesis: the products c_j E(x-j) reach
    # ~ max|c| * max E and cancel down to O(1), so ~16 digits below the term
    # scale nothing survives
    noise = 1e-16 * table.max_abs_coeff * (4.0 * kernel.peak + 1.0) * _INV_SQRT_2PI

    partial = FundamentalFunction(params=params, kernel=kernel, table=table,
                                  env_rate=None, env_amplitude=None,
                                  noise_floor=noise, cardinality_ok=False)
    rate, amp = (None, None) if table.compact_support else \
        _fit_fundamental_envelope(partial)
    L = replace(partial, env_rate=rate, env_amplitude=amp)

    js = np.arange(-20, 21)
    delta = (js == 0).astype(float)
    card_err = float(np.max(np.abs(eval_fundamental(L, js.astype(float)) - delta)))
    xs = np.linspace(0.1, 5.0, 23)
    even_err = float(np.max(np.abs(np.asarray(eval_fundamental(L, xs))
                                   - np.asarray(eval_fundamental(L, -xs)))))
    # the synthesis rounds each product c_j E(x-j) at eps * |term|, so for
    # extreme (alpha, k) the delta property cannot reach 1e-8 in double
    # precision; record the residual and flag instead of refusing, and only
    # reject outright garbage
    if card_err > 1e-4:
        raise ParameterDomainError(
            f"cardinality check failed: max |L(j) - delta| = {card_err:.3e}")
    if even_err > 0.0:
        raise ParameterDomainError(f"evenness must be exact, got {even_err:.3e}")
    return replace(L, cardinality_ok=card_err < 1e-8, cardinality_error=card_err)


# ---------------------------------------------------------------------------
# data sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthModel:
    """Envelope |b_j| <= amplitude * (1 + |j|)^beta * e^{rate |j|}."""

    beta: float = 0.0
    rate: float = 0.0
    amplitude: float = 1.0

    def bound(self, j) -> np.ndarray:
        aj = np.abs(np.asarray(j, dtype=float))
        return self.amplitude * (1.0 + aj) ** self.beta * np.exp(self.rate * aj)

    def log_bound(self, j) -> np.ndarray:
        aj = np.abs(np.asarray(j, dtype=float))
        return math.log(self.amplitude) + self.beta * np.log1p(aj) + self.rate * aj


@dataclass(frozen=True)
class DataSequence:
    """Lattice data b_j, backed by a finite table or a generator rule.

    Finite tables default to zero outside their support (finitely supported
    sequence semantics); strict tables raise MissingDataError instead.
    """

    name: str
    growth: GrowthModel
    table: Optional[dict] = None
    rule: Optional[Callable] = None
    zero_fill: bool = True
    l2_tail: Optional[float] = None

    def values(self, js: np.ndarray) -> np.ndarray:
        if self.rule is not None:
            return np.asarray(self.rule(np.asarray(js, dtype=float)), dtype=float)
        out = np.empty(len(js), dtype=float)
        for i, j in enumerate(js):
            j = int(j)
            if j in self.table:
                out[i] = self.table[j]
            elif self.zero_fill:
                out[i] = 0.0
            else:
                raise MissingDataError(f"no sample at index {j} in sequence {self.name!r}")
        return out


def sequence_from_table(values: dict, growth_beta: float | None = None,
                        growth_amplitude: float | None = None,
                        zero_fill: bool = True, name: str = "table") -> DataSequence:
    table = {}
    for j, b in values.items():
        bb = float(b)
        if not (math.isfinite(j) and math.isfinite(bb)):
            raise DataFormatError(f"{name}: non-finite entry {j!r}: {b!r}")
        jj = int(j)
        if jj != j:
            raise DataFormatError(f"{name}: non-integer index {j!r}")
        if jj in table:
            raise DataFormatError(f"{name}: duplicate index {jj}")
        table[jj] = bb
    if growth_beta is not None:
        amp = growth_amplitude if growth_amplitude is not None else \
            max((abs(b) / (1.0 + abs(j)) ** growth_beta for j, b in table.items()),
                default=1.0)
        for j, b in table.items():
            if abs(b) > amp * (1.0 + abs(j)) ** growth_beta * (1 + 1e-12):
                raise DataFormatError(
                    f"declared growth violated at j={j}: |{b}| > {amp}*(1+|j|)^{growth_beta}")
        growth = GrowthModel(beta=growth_beta, amplitude=amp)
    else:
        amp = max((abs(b) for b in table.values()), default=1.0)
        growth = GrowthModel(beta=0.0, amplitude=max(amp, 1.0))
    return DataSequence(name=name, growth=growth, table=table, zero_fill=zero_fill)


def sequence_from_csv(path, **kw) -> DataSequence:
    """Read `j,b_j` rows (header mandatory)."""
    table = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2:
            raise DataFormatError(f"{path}: missing j,b_j header")
        for row in reader:
            if not row:
                continue
            try:
                j = float(row[0])
                b = float(row[1])
            except (ValueError, IndexError) as exc:
                raise DataFormatError(f"{path}: bad row {row!r}") from exc
            if j in table:
                raise DataFormatError(f"{path}: duplicate index {row[0]!r}")
            table[j] = b
    return sequence_from_table(table, name=str(path), **kw)


def _basis_rule(name: str, alpha: float):
    """Reproduction basis: cosh/sinh/exp of alpha x times integer powers.

    Returns (callable, monomial power, growth model).
    """
    n = name.strip().lower()
    if n == "cosh":
        return (lambda t: np.cosh(alpha * t)), 0, GrowthModel(rate=alpha)
    if n == "sinh":
        return (lambda t: np.sinh(alpha * t)), 0, GrowthModel(rate=alpha)
    m, rest = 0, n
    if rest.startswith("x"):
        body = rest[1:]
        digits = ""
        while body and body[0].isdigit():
            digits += body[0]
            body = body[1:]
        m = int(digits) if digits else 1
        rest = body
    if rest in ("exp+", "exp-"):
        s = 1.0 if rest.endswith("+") else -1.0
        fn = (lambda t: t ** m * np.exp(s * alpha * t)) if m else \
             (lambda t: np.exp(s * alpha * t))
        return fn, m, GrowthModel(beta=float(m), rate=alpha)
    raise UnknownBasisError(f"unknown basis {name!r}")


def sequence_from_rule(name: str, alpha: float, beta: float = 0.0) -> DataSequence:
    """Named generator sequences: delta, power-beta, and the reproduction basis."""
    n = name.strip().lower()
    if n == "delta":
        return DataSequence(name="delta", growth=GrowthModel(),
                            rule=lambda t: (t == 0).astype(float))
    if n == "power-beta":
        return DataSequence(name=f"power-{beta:g}",
                            growth=GrowthModel(beta=beta),
                            rule=lambda t: (1.0 + np.abs(t)) ** beta)
    fn, _, growth = _basis_rule(n, alpha)
    return DataSequence(name=n, growth=growth, rule=fn)


# ---------------------------------------------------------------------------
# windows and interpolation
# ---------------------------------------------------------------------------

def _noise_knee(L: FundamentalFunction) -> float:
    """Distance beyond which the computed |L_k| is dominated by the synthesis
    noise floor rather than the true envelope.  Terms past the knee cannot
    improve an interpolation sum; for growing data they actively poison it.

    The noise is flat out to the table edge and then decays at the kernel rate
    alpha, so the crossing has a piecewise closed form.
    """
    if L.compact or L.noise_floor <= 0:
        return float(_WINDOW_HORIZON)
    c, a = L.env_rate, L.params.alpha
    lg = math.log(L.env_amplitude / L.noise_floor)
    if lg <= 0:
        return 1.0
    j_edge = float(L.table.half_width)
    d0 = lg / c
    if d0 <= j_edge:
        return d0
    if c <= a:
        return float(_WINDOW_HORIZON)   # envelope outlives the decaying noise
    return (lg - a * j_edge) / (c - a)


def _solve_window(L: FundamentalFunction, center: int, growth: GrowthModel,
                  tol: float, clip_to_knee: bool = False) -> int:
    """Smallest half width J with sum_{|j-center|>J} bound(b_j) env(|x-j|) < tol,
    where env is the fitted exponential envelope of |L_k|.

    Raises WindowOverflowError when no window can reach tol: either the data
    growth rate meets the envelope decay rate (the interpolation series
    diverges), or the window would have to extend past the noise knee, where
    double precision has no signal left to add.  With clip_to_knee the window
    is capped at the knee instead (best-effort diagnostics).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if L.compact:
        return 1
    if growth.rate >= L.env_rate:
        raise WindowOverflowError(
            f"data growth rate {growth.rate:g} >= fundamental-function decay rate "
            f"{L.env_rate:g} for (alpha={L.params.alpha}, k={L.params.k}); the "
            "interpolation series diverges")

    d = np.arange(1, _WINDOW_HORIZON + 1, dtype=float)
    # assembled in log space: the growth factor alone overflows long before
    # the envelope pulls the product back down
    log_terms = math.log(2.0) + growth.log_bound(abs(center) + d) \
        + math.log(L.env_amplitude) - L.env_rate * (d - 0.5)
    # terms at or below the underflow edge equal exp(-745); they are filled in
    # rather than computed, because subnormal results make exp ~50x slower
    terms = np.full(len(d), np.exp(-745.0))
    live = log_terms > -745.0
    terms[live] = np.exp(np.minimum(log_terms[live], 700.0))
    ratio = math.exp(growth.rate - L.env_rate)
    beyond = terms[-1] * ratio / (1.0 - ratio)
    tails = np.cumsum(terms[::-1])[::-1] + beyond

    knee = _noise_knee(L)
    achievable = float(tails[min(int(knee), len(tails)) - 1])
    ok = np.nonzero(tails < tol)[0]
    J = int(ok[0]) + 1 if len(ok) else _WINDOW_HORIZON + 1
    if J > knee:
        # the envelope model overstates alternating tails by a constant; only
        # refuse when the request is clearly below the noise-limited floor,
        # otherwise hand back the knee-capped best-effort window
        if clip_to_knee or tol >= achievable / _MODEL_FLOOR_SLACK:
            return max(1, int(min(knee, _WINDOW_HORIZON)))
        raise WindowOverflowError(
            f"window tolerance {tol:g} lies below the double-precision floor "
            f"~{achievable:.3e} for (alpha={L.params.alpha}, k={L.params.k}): "
            f"the window would need {J} terms but the synthesis loses signal "
            f"past {knee:.0f}")
    if J > _WINDOW_CAP:
        raise WindowOverflowError(f"window {J} exceeds cap {_WINDOW_CAP}")
    return J


def select_window(L: FundamentalFunction, x: float, beta: float, tol: float) -> int:
    """Certified summation half width for polynomial-growth data in Y^beta.

    Monotone nondecreasing in beta and in |x|.
    """
    if beta < 0:
        raise ParameterDomainError(f"beta must be >= 0, got {beta}")
    return _solve_window(L, int(round(x)), GrowthModel(beta=beta), tol)


def interpolate_at(L: FundamentalFunction, data: DataSequence, x: float,
                   tol: float = 1e-8, best_effort: bool = False) -> float:
    """f_b(x) at one point: interpolate_grid on a one-point grid."""
    return float(interpolate_grid(L, data, np.array([x], dtype=float), tol,
                                  best_effort)[0])


def _gather_samples(data: DataSequence, js: np.ndarray):
    """b_j at the sorted indices js as one array, with the mask of stored
    indices (all True for generator rules)."""
    if data.table is None:
        return data.values(js), np.ones(len(js), dtype=bool)
    keys = np.fromiter(data.table, dtype=np.int64, count=len(data.table))
    vals = np.fromiter(data.table.values(), dtype=float, count=len(data.table))
    pos = np.minimum(np.searchsorted(js, keys), len(js) - 1)
    hit = js[pos] == keys
    b = np.zeros(len(js))
    present = np.zeros(len(js), dtype=bool)
    b[pos[hit]] = vals[hit]
    present[pos[hit]] = True
    return b, present


def interpolate_grid(L: FundamentalFunction, data: DataSequence, xs,
                     tol: float = 1e-8, best_effort: bool = False) -> np.ndarray:
    """f_b(x) = sum over a certified window around round(x) of b_j L_k(x - j),
    at every point of xs.

    The window is solved once per distinct |m|, m = round(x) (half to even, as
    Python's round); the solved width depends on the center only through its
    magnitude.  At integers the cardinality property short-circuits the
    sum to b_m.  Finite zero-filled tables sum over their stored indices only;
    strict tables raise MissingDataError at the first absent index.  With
    best_effort, tolerances below the double-precision floor degrade to the
    noise-capped window instead of raising (divergent data still raises).

    The samples are gathered once, over the union of the windows.  L_k is
    synthesized once per distinct offset t = x - m, as the row L_k(t - o) for
    |o| <= max J, and every point with that offset takes its window's slice
    of the row; the cost scales with the number of distinct offsets, not
    points.  Sharing is exact: |t| <= 1/2 and m is an integer, so t = x - m
    carries no rounding, and fl(t - o) == fl(x - (m + o)) are the same kernel
    arguments the point would form itself.  Rows are synthesized in chunks of
    at most _CHUNK_ELEMS kernel evaluations.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    out = np.empty(len(xs))
    if len(xs) == 0:
        return out
    if not np.all(np.isfinite(xs)):
        raise ValueError("interpolation points must be finite")
    ms = np.rint(xs).astype(np.int64)
    exact = (np.abs(xs - ms) < 1e-12) & L.cardinality_ok
    Js = np.zeros(len(xs), dtype=np.int64)
    # the window depends on its center only through |center|
    centers, which = np.unique(np.abs(ms[~exact]), return_inverse=True)
    Js[~exact] = np.array([_solve_window(L, int(m), data.growth, tol,
                                         clip_to_knee=best_effort)
                           for m in centers], dtype=np.int64)[which]

    # every index within Jmax of a center, sorted: the union of runs of
    # overlapping windows, so far-apart points allocate no gap between them;
    # each point's window is a contiguous slice starting at first[i]
    Jmax = int(np.max(Js))
    cu = np.unique(ms)
    starts = np.concatenate([[True], np.diff(cu) > 2 * Jmax + 1])
    ends = np.concatenate([starts[1:], [True]])
    js = np.concatenate([np.arange(a - Jmax, z + Jmax + 1)
                         for a, z in zip(cu[starts], cu[ends])])
    first = np.searchsorted(js, ms - Js)
    b, present = _gather_samples(data, js)
    if not data.zero_fill:
        for f, J in zip(first, Js):
            gap = ~present[f:f + 2 * J + 1]
            if gap.any():
                j = js[f + int(np.argmax(gap))]
                raise MissingDataError(f"no sample at index {j} in sequence {data.name!r}")
    # zero-filled tables sum over their stored indices only
    filtered = not np.all(present)
    out[exact] = b[first[exact]]

    todo = np.nonzero(~exact)[0]
    if len(todo) == 0:
        return out
    # one row L_k(t - o), |o| <= Jmax, per distinct offset t = x - m; the
    # points are grouped by row so that each chunk's rows are consumed
    # before the next chunk is synthesized
    ts, row = np.unique(xs[todo] - ms[todo], return_inverse=True)
    order = np.argsort(row, kind="stable")
    todo, row = todo[order], row[order]
    offsets = np.arange(-Jmax, Jmax + 1)
    step = max(1, _CHUNK_ELEMS // (len(offsets) * len(L.table.indices)))
    for s in range(0, len(ts), step):
        diff = ts[s:s + step, None] - offsets[None, :]
        Lv = np.asarray(eval_fundamental(L, diff.ravel())).reshape(diff.shape)
        lo, hi = np.searchsorted(row, [s, s + step])
        pts = todo[lo:hi]
        # plain ints: numpy scalar arithmetic would cost more than the dots
        for i, r, f, J in zip(pts.tolist(), (row[lo:hi] - s).tolist(),
                              first[pts].tolist(), Js[pts].tolist()):
            win = slice(f, f + 2 * J + 1)
            bi, Li = b[win], Lv[r, Jmax - J:Jmax + J + 1]
            if filtered:
                keep = present[win]
                bi, Li = bi[keep], Li[keep]
            # one dot per point over its own window: a padded contraction sums
            # in another order and moves results at the synthesis noise floor
            out[i] = np.dot(bi, Li)
    return out
