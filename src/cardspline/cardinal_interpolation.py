"""The fundamental function L_k and cardinal interpolation of lattice data.

L_k is the unique decaying interpolant of the Kronecker delta on the integers
within the spline family of (D^2 - a^2)^k; anything else is interpolated by
shifted superposition,

    f_b(x) = sum_j b_j L_k(x - j).

The fast path evaluates the spatial synthesis

    L_k(x) = (2 pi)^{-1/2} sum_{|j| <= J} c_j E_k(x - j)

from a coefficient table.  Each value is one BLAS ddot of its kernel row with
the table, so it depends on x alone, not on the array x comes in.

Window selection for the interpolation sums is certified against an
exponential envelope of |L_k| at the exact decay rate of the coefficient
table, and is aware of two hard limits:

  * data whose exponential growth rate reaches the envelope decay rate makes
    the series diverge (the window solver refuses rather than returning noise);
  * the synthesis cancels k orders of magnitude in its far field, so double
    precision bottoms out at a computable noise floor; windows are never
    widened past the point where the floor dominates.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import (DataFormatError, MissingDataError, ParameterDomainError,
                     UnknownBasisError, WindowOverflowError)
from .greens_kernel import (GreenKernel, SplineParams, build_green_kernel,
                            eval_green)
from .spectral_symbol import CoefficientTable, _check_tol, compute_coefficients

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_WINDOW_HORIZON = 4000
# entries one array pass gathers at most: kernel-matrix entries of one
# synthesis contraction, window entries of one interpolation contraction, and
# _WINDOW_HORIZON-term tail rows of the window solver's centers.  128 KiB
# of float64: glibc serves larger blocks by mmap, and then page-faults every
# temporary afresh (2.0 * x took 34 us at 16,000 entries, 206 us at 24,000)
_GATHER_ELEMS = 2 ** 14
# a synthesis block whose windows outnumber its points more than this many
# times contracts only the points' windows: on grids of integer steps 3 to
# 2J+1 the ddots of every window cost up to 3x the copies at (1, 10)
_SPARSE = 2
# |L_k(x)| e^{r x} is close to periodic, and its peaks can fall between the
# steps of the envelope grid; on steps of 0.05 the amplitude was exceeded
# by 0.1-0.2% near x = 2.5 without a margin
_ENV_MARGIN = 1.01
# the envelope tail model ignores sign alternation and overstates real tails
# by a small constant; refusals require missing the floor by this factor
_MODEL_FLOOR_SLACK = 25.0


# ---------------------------------------------------------------------------
# fundamental function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FundamentalFunction:
    """Evaluation-ready L_k: kernel, coefficient table and the two checks
    build_fundamental measures on them, which eval_fundamental does not
    read: FundamentalFunction(kernel, table) is L_k before its checks.

    env_rate/env_amplitude describe the envelope |L_k(x)| <= C e^{-r |x|}:
    r is the table's exact decay rate, C the largest |L_k(x)| e^{r x} on the
    envelope grid, raised by _ENV_MARGIN; both are None for k = 1, whose
    support is [-1, 1] (compact).  cardinality_error is max |L_k(j) -
    delta_j| on -20..20 (NaN before the check): build_fundamental refuses
    one above 1e-4 or NaN, and flags one above 1e-8 (cardinality_ok False).
    noise_floor is the double-precision cancellation scale of the
    synthesis: the products c_j E(x-j) reach ~ max|c| * max E and cancel
    down to O(1), so ~16 digits below the term scale nothing survives.
    """

    kernel: GreenKernel
    table: CoefficientTable
    env_amplitude: Optional[float] = None
    cardinality_error: float = math.nan

    @property
    def params(self) -> SplineParams:
        return self.table.params

    @cached_property
    def compact(self) -> bool:
        return self.table.compact_support

    @property
    def env_rate(self) -> Optional[float]:
        return None if self.compact else self.table.decay_rate

    @cached_property
    def noise_floor(self) -> float:
        return (1e-16 * self.table.max_abs_coeff * (4.0 * self.kernel.peak + 1.0)
                * _INV_SQRT_2PI)

    @property
    def cardinality_ok(self) -> bool:
        return self.cardinality_error < 1e-8


def _runs(a: np.ndarray, start: np.ndarray):
    """(bounds, spread) of the runs that start where start is True in the
    sorted points a: run g holds a[bounds[g]:bounds[g + 1]], and its points
    lie up to spread[g] above its first, an exact integer (0 for a run of
    one point, NaN and infinite points included)."""
    bounds = np.flatnonzero(np.append(start, True))
    multi = np.flatnonzero(np.diff(bounds) > 1)
    spread = np.zeros(len(bounds) - 1, dtype=np.int64)
    spread[multi] = a[bounds[multi + 1] - 1] - a[bounds[multi]]
    return bounds, spread


def _windows(a: np.ndarray, w: int) -> np.ndarray:
    """The read-only view whose [..., i, :] is a[..., i:i + w]."""
    return np.lib.stride_tricks.as_strided(a, a.shape[:-1] + (a.shape[-1] - w + 1, w),
                                           a.strides + a.strides[-1:], writeable=False)


def eval_fundamental(L: FundamentalFunction, x) -> float | np.ndarray:
    """L_k(x) = (2 pi)^{-1/2} sum_{|j| <= J} c_j E_k(x - j).

    Truncation error is bounded by tail_bound * max|E_k| * (2 pi)^{-1/2}.
    Arguments are folded to |x| first, making evenness exact in floating
    point rather than merely up to summation-order noise.  Accepts scalars
    or arrays.

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
    one per kernel value of a per-point synthesis.  NaN and infinite points
    run alone and keep their NaN rows.

    The rows are built and contracted a block at a time.  A block takes runs
    in order of their spread and pads each row to the block's longest, so
    that its rows form one (runs x row length) matrix: at most _GATHER_ELEMS
    kernel values, of which at most _GATHER_ELEMS // 8 are padding.  A run
    whose row would outgrow the budget is cut at multiples of it, as any
    point of a run can serve as its base; only a row width above the budget
    makes a longer block.  The windows are a strided view of the matrix,
    (runs x (longest spread + 1) x 2J+1), and a point's window is the one at
    (its run, spread - r).  Where the points take at least 1/_SPARSE of the
    windows, one np.vecdot contracts them all with c, each read in place;
    otherwise the points' windows are copied out and contracted, as gaps and
    padding would cost more ddots than the copies.  Either way each value is
    its own BLAS ddot of the same doubles, so it depends on x alone, not on
    the block it comes in.

    Beside the values, the whole-grid arrays are |x| sorted and its sort
    order, each run's bounds and spread and the runs' order by spread (and a
    mask of run starts while the runs are formed); the rest is per block.
    """
    xs = np.asarray(x, dtype=float).ravel()
    c = L.table.coeffs
    J, width = L.table.half_width, len(c)
    a = np.abs(xs)
    with np.errstate(invalid="ignore"):     # inf - inf: NaN runs alone
        t = np.floor(a)
        np.subtract(a, t, out=t)
        order = np.lexsort((a, t))
        a = a[order]
        t = t[order]
        start = np.empty(len(a), dtype=bool)
        start[:1] = True
        np.not_equal(t[1:], t[:-1], out=start[1:])
        del t
        start[1:] |= np.diff(a) > width
    bounds, spread = _runs(a, start)
    cap = max(_GATHER_ELEMS - width, 0)
    if len(a) and spread.max() > cap:
        # a row above the budget is cut at its multiples: any point of a run
        # can serve as its base
        with np.errstate(invalid="ignore"):
            piece = (a - np.repeat(a[bounds[:-1]], np.diff(bounds))) // (cap + 1)
        start[1:] |= piece[1:] != piece[:-1]
        del piece
        bounds, spread = _runs(a, start)
    del start
    # the runs in order of their spread
    by = np.argsort(spread, kind="stable")
    spread = spread[by]
    out = np.empty(len(a))
    step = max(1, _GATHER_ELEMS // width)
    g = 0
    while g < len(spread):
        # runs g..h-1: the most whose rows, padded to the longest, hold at
        # most _GATHER_ELEMS kernel values, _GATHER_ELEMS // 8 of them padding
        sp = spread[g:g + step]
        runs = np.arange(1, len(sp) + 1)
        fits = runs * (width + sp) <= _GATHER_ELEMS
        fits &= runs * sp - np.cumsum(sp) <= _GATHER_ELEMS // 8
        h = g + max(1, int(np.count_nonzero(fits)))
        sel = by[g:h]
        sp, S = sp[:h - g], int(sp[h - g - 1])
        first, n = bounds[sel], bounds[sel + 1] - bounds[sel]
        base = a[first]
        # row i of the block: E_k(base_i - s) for s = -J - sp_i .. S + J - sp_i
        arg = np.arange(width + S, dtype=float) - (J + sp)[:, None]
        np.subtract(base[:, None], arg, out=arg)
        E = eval_green(L.kernel, arg)
        windows = _windows(E, width)
        # each point of the block, in sorted order, and its window (run, sp - r)
        lead = np.cumsum(n) - n
        pts = np.repeat(first - lead, n)
        pts += np.arange(len(pts))
        with np.errstate(invalid="ignore"):
            r = a[pts] - np.repeat(base, n)
        r[lead] = 0.0
        run = np.repeat(np.arange(h - g), n)
        at = np.repeat(sp, n)
        at -= r.astype(np.int64)
        if _SPARSE * len(pts) < (h - g) * (S + 1):
            # most windows lie in gaps or padding: contract only the points'
            # windows, copied out _GATHER_ELEMS values at a time
            vals = np.empty(len(pts))
            for p in range(0, len(pts), step):
                q = p + step
                np.vecdot(windows[run[p:q], at[p:q]], c, out=vals[p:q])
        else:
            vals = np.vecdot(windows, c)[run, at]
        vals *= _INV_SQRT_2PI
        out[order[pts]] = vals
        g = h
    return float(out[0]) if np.isscalar(x) or np.ndim(x) == 0 else out.reshape(np.shape(x))


def build_fundamental(params: SplineParams, tol: float = 1e-10) -> FundamentalFunction:
    """Compose the kernel and coefficient table and certify the delta
    property on the integers; evenness needs no check, as eval_fundamental
    folds its argument to |x|.

    The envelope grid (2 <= x < 15 in steps of 1/32) and the integers
    -20..20 go through one eval_fundamental call, and so share one kernel
    pass.  Their points take only the 32 offsets j/32, so the pass
    evaluates one kernel row per offset.  An envelope that underflows on
    its whole grid (alpha ~ 400 and up) gets amplitude 0.
    """
    _check_tol(tol)
    kernel = build_green_kernel(params)
    # the coefficient tail enters L scaled by max|E_k|, which blows up at small
    # alpha; tighten the table tolerance accordingly
    table_tol = max(1e-14, tol / max(1.0, kernel.peak * _INV_SQRT_2PI))
    L = FundamentalFunction(kernel, compute_coefficients(params, table_tol))
    env_xs = np.empty(0) if L.compact else np.arange(2.0, 15.0, 1 / 32)
    js = np.arange(-20, 21)
    with np.errstate(over="ignore", invalid="ignore"):
        env_vals, card_vals = np.split(eval_fundamental(L, np.concatenate([env_xs, js])),
                                       [len(env_xs)])
    card_err = float(np.max(np.abs(card_vals - (js == 0))))
    # the synthesis rounds each product c_j E(x-j) at eps * |term|, so for
    # extreme (alpha, k) the delta property cannot reach 1e-8 in double
    # precision; record the residual and flag instead of refusing, and only
    # reject outright garbage, and the NaN of products that overflow
    if not card_err <= 1e-4:
        raise ParameterDomainError(
            f"cardinality check failed: max |L(j) - delta| = {card_err:.3e}")
    # in logs: e^{r x} overflows on the grid once r > 47
    with np.errstate(divide="ignore"):
        amp = None if L.compact else _ENV_MARGIN * math.exp(
            np.max(np.log(np.abs(env_vals)) + L.env_rate * env_xs))
    return replace(L, env_amplitude=amp, cardinality_error=card_err)


# ---------------------------------------------------------------------------
# data sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthModel:
    """Envelope |b_j| <= amplitude * (1 + |j|)^beta * e^{rate |j|}."""

    beta: float = 0.0
    rate: float = 0.0
    amplitude: float = 1.0

    def log_bound(self, j) -> np.ndarray:
        """log(amplitude) + beta log1p(|j|) + rate |j|, summed in place."""
        aj = np.abs(np.asarray(j, dtype=float))
        out = np.log1p(aj)
        out *= self.beta
        out += math.log(self.amplitude)
        aj *= self.rate
        out += aj
        return out


@dataclass(frozen=True)
class DataSequence:
    """Lattice data b_j, backed by a finite table or a generator rule.

    A finite table, (indices, values) with int64 indices ascending and
    unique, defaults to zero outside its support (finitely supported
    sequence semantics); a strict table raises MissingDataError instead.
    """

    name: str
    growth: GrowthModel
    table: Optional[tuple[np.ndarray, np.ndarray]] = None
    rule: Optional[Callable] = None
    zero_fill: bool = True

    def samples(self, js) -> tuple[np.ndarray, np.ndarray]:
        """(b, stored): b_j at each index of js, in any order and with
        repeats, zero where a table stores none, and the mask of stored
        indices (all True for a rule).  A rule raises ParameterDomainError
        at the first index where its value overflows double precision."""
        if self.rule is not None:
            js = np.asarray(js, dtype=float)
            with np.errstate(over="ignore", invalid="ignore"):
                b = np.asarray(self.rule(js), dtype=float)
            if not np.all(np.isfinite(b)):
                raise ParameterDomainError(
                    f"sequence {self.name!r} overflows double precision at "
                    f"{js[np.argmin(np.isfinite(b))]:g}")
            return b, np.ones(len(b), dtype=bool)
        keys, vals = self.table
        js = np.asarray(js).astype(np.int64)
        pos = np.searchsorted(keys, js)
        stored = pos < len(keys)
        stored[stored] = keys[pos[stored]] == js[stored]
        b = np.zeros(len(js))
        b[stored] = vals[pos[stored]]
        return b, stored

    def values(self, js: np.ndarray) -> np.ndarray:
        """b_j at each index of js, as samples gives them; a strict table
        raises MissingDataError at the first absent index."""
        b, stored = self.samples(js)
        if not (self.zero_fill or stored.all()):
            j = int(np.asarray(js)[np.argmin(stored)])
            raise MissingDataError(f"no sample at index {j} in sequence {self.name!r}")
        return b


def _table_sequence(name: str, keys: np.ndarray, vals: np.ndarray,
                    zero_fill: bool = True) -> DataSequence:
    """The finite table of samples vals at the int64 indices keys, ascending
    and unique, with flat growth at amplitude max(1, max|b_j|)."""
    amp = float(np.max(np.abs(vals), initial=1.0))
    return DataSequence(name=name, growth=GrowthModel(amplitude=amp),
                        table=(keys, vals), zero_fill=zero_fill)


def sequence_from_table(values: dict, zero_fill: bool = True,
                        name: str = "table") -> DataSequence:
    """A finite table {j: b_j}, j integers within int64, with flat growth."""
    table = {}
    for j, b in values.items():
        bb = float(b)
        if not (math.isfinite(j) and math.isfinite(bb)):
            raise DataFormatError(f"{name}: non-finite entry {j!r}: {b!r}")
        jj = int(j)
        if jj != j:
            raise DataFormatError(f"{name}: non-integer index {j!r}")
        if not -2 ** 63 <= jj < 2 ** 63:
            raise DataFormatError(f"{name}: index {j!r} lies outside the int64 range")
        table[jj] = bb
    keys = np.array(sorted(table), dtype=np.int64)
    vals = np.array([table[j] for j in keys.tolist()], dtype=float)
    return _table_sequence(name, keys, vals, zero_fill)


def sequence_from_csv(path) -> DataSequence:
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
    return sequence_from_table(table, name=str(path))


_BASIS = re.compile(r"(?P<hyp>cosh|sinh)|(?:x(?P<m>\d*))?exp(?P<sign>[+-])")


def _basis_sequence(name: str, alpha: float) -> tuple[DataSequence, int]:
    """The basis `name` of _BASIS at alpha, as a rule sequence, and its power
    m: cosh or sinh of alpha x, or x^m e^{+-alpha x}, "x" alone meaning m = 1.
    UnknownBasisError refuses any other name, and an m int() or float cannot hold."""
    n = name.strip().lower()
    hit = _BASIS.fullmatch(n)
    if hit is None:
        raise UnknownBasisError(f"unknown basis {name!r}")
    try:
        m = 0 if hit["m"] is None else int(hit["m"] or 1)
        growth = GrowthModel(beta=float(m), rate=alpha)
    except (ValueError, OverflowError):
        raise UnknownBasisError(f"basis {name!r} has a power out of range") from None
    if hit["hyp"]:
        f = np.cosh if n == "cosh" else np.sinh
        fn = lambda t: f(alpha * t)
    else:
        s = 1.0 if hit["sign"] == "+" else -1.0
        fn = lambda t: t ** m * np.exp(s * alpha * t)
    return DataSequence(name=n, growth=growth, rule=fn), m


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
    return _basis_sequence(n, alpha)[0]


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
    ratio = L.env_amplitude / L.noise_floor
    if ratio <= 1.0:        # also an envelope that underflows: amplitude 0
        return 1.0
    lg = math.log(ratio)
    j_edge = float(L.table.half_width)
    d0 = lg / c
    if d0 <= j_edge:
        return d0
    if c <= a:
        return float(_WINDOW_HORIZON)   # envelope outlives the decaying noise
    return (lg - a * j_edge) / (c - a)


def _solve_windows(L: FundamentalFunction, centers, growth: GrowthModel,
                   tol: float, clip_to_knee: bool = False) -> np.ndarray:
    """The smallest half width J at each center: the first J with
    sum_{|j-center|>J} bound(b_j) env(|x-j|) < tol, where env is the
    exponential envelope of |L_k|.

    Raises WindowOverflowError when no window can reach tol: either the data
    growth rate meets the envelope decay rate (the interpolation series
    diverges), or the window would have to extend past the noise knee, where
    double precision has no signal left to add.  With clip_to_knee the window
    is capped at the knee instead (best-effort diagnostics).  A refusal
    names the first center in the order given that fails.

    The centers are solved in passes of _GATHER_ELEMS // _WINDOW_HORIZON,
    one (centers x _WINDOW_HORIZON) array of tail terms per pass; each row
    takes the elementwise operations, and the sequential cumulative sum, of
    a center solved alone.
    """
    centers = np.abs(np.asarray(centers, dtype=float))
    Js = np.empty(len(centers), dtype=np.int64)
    if len(centers) == 0:
        return Js
    if tol <= 0:
        raise ValueError("tol must be positive")
    if L.compact:
        Js[:] = 1
        return Js
    if growth.rate >= L.env_rate:
        raise WindowOverflowError(
            f"data growth rate {growth.rate:g} >= fundamental-function decay rate "
            f"{L.env_rate:g} for (alpha={L.params.alpha}, k={L.params.k}); the "
            "interpolation series diverges")

    d = np.arange(1, _WINDOW_HORIZON + 1, dtype=float)
    decay = L.env_rate * (d - 0.5)
    ratio = math.exp(growth.rate - L.env_rate)
    knee = _noise_knee(L)
    step = max(1, _GATHER_ELEMS // _WINDOW_HORIZON)
    for s in range(0, len(centers), step):
        # assembled in log space: the growth factor alone overflows long
        # before the envelope pulls the product back down.  Every step runs
        # in place (the sums commute), so a pass makes few temporaries of at
        # most _GATHER_ELEMS entries
        log_terms = growth.log_bound(centers[s:s + step, None] + d)
        log_terms += math.log(2.0)
        log_terms += math.log(L.env_amplitude) if L.env_amplitude > 0 else -math.inf
        log_terms -= decay
        # terms at or below the underflow edge equal exp(-745); they are
        # filled in rather than computed, because subnormal results make exp
        # ~50x slower
        live = log_terms > -745.0
        terms = np.full(log_terms.shape, np.exp(-745.0))
        np.exp(np.minimum(log_terms, 700.0, out=log_terms), out=terms, where=live)
        tails = log_terms
        np.cumsum(terms[:, ::-1], axis=1, out=tails[:, ::-1])
        tails += (terms[:, -1] * ratio / (1.0 - ratio))[:, None]

        achievable = tails[:, min(int(knee), _WINDOW_HORIZON) - 1]
        below = tails < tol
        J = np.where(below.any(axis=1), np.argmax(below, axis=1) + 1,
                     _WINDOW_HORIZON + 1)
        # the envelope model overstates alternating tails by a constant; only
        # refuse when the request is clearly below the noise-limited floor,
        # otherwise hand back the knee-capped best-effort window
        past = J > knee
        refused = past & ~(clip_to_knee | (tol >= achievable / _MODEL_FLOOR_SLACK))
        if refused.any():
            i = int(np.argmax(refused))
            message = (f"window tolerance {tol:g} lies below the double-precision floor "
                       f"~{achievable[i]:.3e} for (alpha={L.params.alpha}, k={L.params.k}): "
                       f"the window would need {J[i]} terms but the synthesis loses "
                       f"signal past {knee:.0f}")
            # the floor scales with the data's amplitude bound: name the bound
            # where data of amplitude 1 would have met the tolerance
            unit = achievable[i] / growth.amplitude
            if tol >= unit / _MODEL_FLOOR_SLACK:
                message += (f"; the floor is the data's amplitude bound "
                            f"{growth.amplitude:.3e} times ~{unit:.3e}")
            raise WindowOverflowError(message)
        J[past] = max(1, int(min(knee, _WINDOW_HORIZON)))
        Js[s:s + step] = J
    return Js


def _solve_window(L: FundamentalFunction, center: int, growth: GrowthModel,
                  tol: float, clip_to_knee: bool = False) -> int:
    """_solve_windows at one center."""
    return int(_solve_windows(L, [center], growth, tol, clip_to_knee)[0])


def interpolate_at(L: FundamentalFunction, data: DataSequence, x: float,
                   tol: float = 1e-8, best_effort: bool = False) -> float:
    """f_b(x) at one point: interpolate_grid on a one-point grid."""
    return float(interpolate_grid(L, data, np.array([x], dtype=float), tol,
                                  best_effort)[0])


def interpolate_grid(L: FundamentalFunction, data: DataSequence, xs,
                     tol: float = 1e-8, best_effort: bool = False) -> np.ndarray:
    """f_b(x) = sum over a certified window around round(x) of b_j L_k(x - j),
    at every point of xs.

    The windows of all points come from one _solve_windows call over the
    distinct |m|, m = round(x) (half to even, as Python's round): the solved
    width depends on the center only through growth.log_bound(|m| + d), so
    data with flat growth (beta = rate = 0, as tables without a declared
    growth get) pass one center for all points, since their bound is the
    constant log(amplitude), bit for bit.  At integers the cardinality
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
    arguments the point would form itself.  The rows come from
    eval_fundamental, one call per _GATHER_ELEMS window points, so kernel
    values are shared across offsets as well (t and -t, and the two sides
    of every row).  Each point's window sum is one BLAS ddot, batched by
    _contract.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    out = np.empty(len(xs))
    if len(xs) == 0:
        return out
    if not np.all(np.isfinite(xs)):
        raise ValueError("interpolation points must be finite")
    # window indices m + o, |o| <= _WINDOW_HORIZON + 1, and their gaps fit in int64
    if (far := float(np.max(np.abs(xs)))) > 2.0 ** 61:
        raise DataFormatError(f"interpolation points must satisfy |x| <= 2^61, got {far:g}")
    ms = np.rint(xs).astype(np.int64)
    exact = (np.abs(xs - ms) < 1e-12) & L.cardinality_ok
    Js = np.zeros(len(xs), dtype=np.int64)
    # the window depends on its center only through |center|, and not at all
    # under flat growth
    centers, which = np.unique(np.abs(ms[~exact]), return_inverse=True)
    if data.growth.beta == 0 and data.growth.rate == 0:
        centers, which = centers[:1], np.zeros_like(which)
    Js[~exact] = _solve_windows(L, centers, data.growth, tol,
                                clip_to_knee=best_effort)[which]

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
    b, present = data.samples(js)
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
    # rows per synthesis and points per contraction: the rows, and the
    # gathered windows, take at most _GATHER_ELEMS entries
    step = max(1, _GATHER_ELEMS // len(offsets))
    for s in range(0, len(ts), step):
        Lv = eval_fundamental(L, ts[s:s + step, None] - offsets)
        lo, hi = np.searchsorted(row, [s, s + step])
        for p in range(lo, hi, step):
            pts = todo[p:min(hi, p + step)]
            out[pts] = _contract(Lv, row[p:p + len(pts)] - s, Jmax - Js[pts],
                                 b, present, first[pts], width[pts], kept[pts])
    return out


def _contract(Lv, rows, lead, b, present, first, width, kept) -> np.ndarray:
    """sum_j b_j L_k(x - j) over each point's window, b[first:first+width]
    against Lv[row, lead:lead+width], over its present entries where it
    keeps fewer than width of them.

    Each point is its own BLAS ddot, as np.dot gives it: the points with
    one width and kept count take their windows as rows of _windows views,
    kept entries in window order, contracted row by row with np.vecdot.
    """
    key = width * (int(np.max(width)) + 1) + kept
    by = np.argsort(key, kind="stable")
    heads = np.flatnonzero(np.diff(key[by], prepend=-1))
    out = np.empty(len(width))
    for a, z in zip(heads.tolist(), np.append(heads[1:], len(by)).tolist()):
        sel = by[a:z]
        w, n = int(width[sel[0]]), int(kept[sel[0]])
        B, Lw = _windows(b, w)[first[sel]], _windows(Lv, w)[rows[sel], lead[sel]]
        if n < w:
            keep = _windows(present, w)[first[sel]]
            B, Lw = B[keep].reshape(len(sel), n), Lw[keep].reshape(len(sel), n)
        out[sel] = np.vecdot(B, Lw)
    return out
