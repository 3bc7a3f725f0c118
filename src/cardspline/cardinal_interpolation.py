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
# kernel-matrix entries per synthesis product.  Both caps fix how the points
# are partitioned into matrix-vector products, and with it the last bit of
# each L_k value (dgemv sums the last N mod 4 rows of a call with another
# kernel): eval_fundamental runs one product per _PRODUCT_ELEMS entries,
# interpolate_grid one per _CHUNK_ELEMS
_PRODUCT_ELEMS = 2_000_000
_CHUNK_ELEMS = 8192
# points whose kernel rows interpolate_grid builds at once: rows are shared
# across the whole batch, and the batch bounds the grouping's memory
_BATCH_POINTS = 2 ** 12
# window entries interpolate_grid gathers for one contraction, which bounds
# its memory on grids with many points per offset
_GATHER_ELEMS = 2 ** 16
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


def _green_rows(L: FundamentalFunction, xs):
    """The kernel matrix E_k(|x| - j), |j| <= J, one row per point of xs, as
    (windows, at): windows[at] is the matrix, and windows[at[a:b]] its rows
    a..b-1, gathered without building the rest.

    Each distinct kernel argument is evaluated once, not once per point.  The
    points are sorted by their offset t = |x| - floor(|x|); points with equal
    t form one run while their integer parts follow each other by at most the
    row width 2J+1.  A run based at its smallest point |x_0| evaluates the one
    row E_k(|x_0| - s) over every shift s its points need, and the point
    |x| = |x_0| + r takes the contiguous window s = j - r of it.  Sharing is
    exact: r is an integer formed without rounding, so fl(|x_0| - s) and
    fl(|x| - j) round the same real number and give the same bits.  A run
    costs its row width plus the spread of its integer parts, so a grid pays
    about 2J+1 evaluations per distinct offset and no input pays more than
    one per matrix entry.  NaN and infinite points run alone and keep their
    NaN rows.
    """
    ax = np.abs(np.asarray(xs, dtype=float))
    J = L.table.half_width
    width = 2 * J + 1
    if len(ax) == 0:
        return np.empty((0, width)), np.empty(0, dtype=np.int64)
    with np.errstate(invalid="ignore"):     # inf - inf: NaN runs alone
        t = ax - np.floor(ax)
        order = np.lexsort((ax, t))
        a, t = ax[order], t[order]
        start = np.ones(len(a), dtype=bool)
        start[1:] = (t[1:] != t[:-1]) | (a[1:] - a[:-1] > width)
        run = np.cumsum(start) - 1
        heads = np.flatnonzero(start)
        base = a[heads]
        r = a - base[run]
    r[heads] = 0.0
    r = r.astype(np.int64)
    spread = r[np.append(heads[1:], len(a)) - 1]
    lens = width + spread
    row0 = np.cumsum(lens) - lens
    # run g holds E_k(base_g - s) for s = -J - spread_g .. J, in that order
    s = np.arange(int(lens.sum())) - np.repeat(row0 + J + spread, lens)
    E = eval_green(L.kernel, np.repeat(base, lens) - s)
    at = np.empty(len(a), dtype=np.int64)
    at[order] = row0[run] + spread[run] - r
    return np.lib.stride_tricks.sliding_window_view(E, width), at


def eval_fundamental(L: FundamentalFunction, x) -> float | np.ndarray:
    """L_k(x) = (2 pi)^{-1/2} sum_{|j| <= J} c_j E_k(x - j).

    Truncation error is bounded by tail_bound * max|E_k| * (2 pi)^{-1/2}.
    Arguments are folded to |x| first, making evenness exact in floating
    point rather than merely up to summation-order noise.  Accepts scalars
    or arrays.

    The kernel matrix comes from _green_rows, so the cost scales with the
    distinct offsets |x| - floor(|x|) rather than with the points; its rows
    are contracted with c in products of at most _PRODUCT_ELEMS entries.
    """
    xs = np.asarray(x, dtype=float).ravel()
    out = np.empty_like(xs)
    block = _product_rows(L)
    for s in range(0, len(xs), block):
        out[s:s + block] = _synthesize(L, *_green_rows(L, xs[s:s + block]))
    return float(out[0]) if np.isscalar(x) or np.ndim(x) == 0 else out.reshape(np.shape(x))


def _product_rows(L: FundamentalFunction) -> int:
    """Points per synthesis product."""
    return max(1, _PRODUCT_ELEMS // len(L.table.coeffs))


def _synthesize(L: FundamentalFunction, windows, at) -> np.ndarray:
    """(2 pi)^{-1/2} windows[at] @ c for kernel rows from _green_rows, one
    product per _product_rows(L) points."""
    block = _product_rows(L)
    out = np.empty(len(at))
    for s in range(0, len(at), block):
        out[s:s + block] = windows[at[s:s + block]] @ L.table.coeffs
    out *= _INV_SQRT_2PI
    return out


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
    Python's round); the solved width depends on the center only through
    growth.log_bound(|m| + d), so data with flat growth (beta = rate = 0,
    as tables without a declared growth get) solve one window for all
    points: their bound is the constant log(amplitude), bit for bit.  At integers the cardinality
    property short-circuits the sum to b_m.  Finite zero-filled tables sum
    over their stored indices only; strict tables raise MissingDataError at
    the first absent index.  With best_effort, tolerances below the
    double-precision floor degrade to the noise-capped window instead of
    raising (divergent data still raises).

    The samples are gathered once, over the union of the windows.  L_k is
    synthesized once per distinct offset t = x - m, as the row L_k(t - o) for
    |o| <= max J, and every point with that offset takes its window's slice
    of the row; the cost scales with the number of distinct offsets, not
    points.  Sharing is exact: |t| <= 1/2 and m is an integer, so t = x - m
    carries no rounding, and fl(t - o) == fl(x - (m + o)) are the same kernel
    arguments the point would form itself.  The kernel rows under these L_k
    rows come from one _green_rows call per batch of _BATCH_POINTS window
    points, so kernel values are shared across offsets as well (t and -t, and
    the two sides of every row); each chunk of at most _CHUNK_ELEMS
    kernel-matrix entries is then contracted in its own products, the
    partition eval_fundamental gave it when called chunk by chunk.  Each
    point's window sum stays one BLAS ddot, batched by _contract.
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
    # the window depends on its center only through |center|, and not at all
    # under flat growth
    centers, which = np.unique(np.abs(ms[~exact]), return_inverse=True)
    if data.growth.beta == 0 and data.growth.rate == 0:
        centers, which = centers[:1], np.zeros_like(which)
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
    # stored indices per window: zero-filled tables sum over these only
    width = 2 * Js + 1
    stored = np.concatenate([[0], np.cumsum(present)])
    kept = stored[first + width] - stored[first]
    if not data.zero_fill and np.any(kept < width):
        f = first[np.argmax(kept < width)]
        j = js[f + int(np.argmax(~present[f:]))]
        raise MissingDataError(f"no sample at index {j} in sequence {data.name!r}")
    out[exact] = b[first[exact]]

    todo = np.nonzero(~exact)[0]
    if len(todo) == 0:
        return out
    # one row L_k(t - o), |o| <= Jmax, per distinct offset t = x - m; the
    # points are grouped by row so that each batch's rows are consumed
    # before the next batch is synthesized
    ts, row = np.unique(xs[todo] - ms[todo], return_inverse=True)
    order = np.argsort(row, kind="stable")
    todo, row = todo[order], row[order]
    offsets = np.arange(-Jmax, Jmax + 1)
    chunk = len(offsets) * max(1, _CHUNK_ELEMS // (len(offsets) * len(L.table.coeffs)))
    batch = chunk // len(offsets) * max(1, _BATCH_POINTS // chunk)
    # points per contraction: the gathered windows take at most
    # _GATHER_ELEMS entries
    step = max(1, _GATHER_ELEMS // len(offsets))
    for s in range(0, len(ts), batch):
        windows, at = _green_rows(
            L, (ts[s:s + batch, None] - offsets[None, :]).ravel())
        Lv = np.concatenate([_synthesize(L, windows, at[q:q + chunk])
                             for q in range(0, len(at), chunk)])
        Lv = Lv.reshape(-1, len(offsets))
        lo, hi = np.searchsorted(row, [s, s + batch])
        for p in range(lo, hi, step):
            pts = todo[p:min(hi, p + step)]
            out[pts] = _contract(Lv, row[p:p + len(pts)] - s, Jmax - Js[pts],
                                 b, present, first[pts], width[pts], kept[pts])
    return out


def _contract(Lv, rows, lead, b, present, first, width, kept) -> np.ndarray:
    """sum_j b_j L_k(x - j) over each point's window, b[first:first+width]
    against Lv[row, lead:lead+width], over its present entries where it
    keeps fewer than width of them.

    Every point still gets the BLAS ddot np.dot would give it: the points
    with one width and kept count are gathered into contiguous (m, kept)
    arrays, kept entries in window order, and np.matmul sends each
    (1 x kept) @ (kept x 1) slice of the stack to ddot.  Padding to a common
    width, or einsum, sums in another order and moves results at the
    synthesis noise floor.
    """
    key = width * (int(np.max(width)) + 1) + kept
    by = np.argsort(key, kind="stable")
    heads = np.flatnonzero(np.diff(key[by], prepend=-1))
    out = np.empty(len(width))
    for a, z in zip(heads.tolist(), np.append(heads[1:], len(by)).tolist()):
        sel = by[a:z]
        w, n = int(width[sel[0]]), int(kept[sel[0]])
        span = np.arange(w)
        win = first[sel, None] + span
        B, Lw = b[win], Lv[rows[sel, None], lead[sel, None] + span]
        if n < w:
            keep = present[win]
            B, Lw = B[keep].reshape(len(sel), n), Lw[keep].reshape(len(sel), n)
        out[sel] = np.matmul(B[:, None, :], Lw[:, :, None])[:, 0, 0]
    return out
