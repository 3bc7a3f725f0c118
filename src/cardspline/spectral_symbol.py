"""Periodized symbol of the Green kernel and the lattice coefficients of the
fundamental function.

The central objects, all 2 pi periodic in xi:

    P(xi)     = sum_j Ehat_k(xi - 2 pi j)          (periodized symbol)
    Lhat(xi)  = (2 pi)^{-1/2} Ehat_k(xi) / P(xi)   (fundamental function transform)
    sigma(xi) = 1 / P(xi)                          (periodic reciprocal symbol)

sigma is real analytic, so its Fourier coefficients

    c_j = (2 pi)^{-1} int_{-pi}^{pi} sigma(xi) e^{i j xi} d xi

decay exponentially; they are the lattice weights of the spatial synthesis
L_k(x) = (2 pi)^{-1/2} sum_j c_j E_k(x - j).

The periodization is summed directly over |j| <= M and the two tails are
corrected with the midpoint Euler-Maclaurin expansion

    sum_{j>M} f(j) = int_{M+1/2}^inf f + f'(M+1/2)/24 - 7 f'''(M+1/2)/5760 + R,

whose remainder is certified through a fifth-derivative envelope.  A plain
truncated sum would need M ~ 1/tol lattice shifts at k = 1; the corrected form
keeps M in the hundreds at every order.

Coefficients are computed by equispaced trapezoidal sampling (an FFT), which
converges exponentially for periodic analytic integrands; the sample count is
doubled until successive coefficient sets agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import QuadratureConvergenceError, ToleranceUnreachableError
from .greens_kernel import SplineParams, eval_green_hat

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_TWO_PI = 2.0 * math.pi

# Hard cap on lattice shifts; unreachable for k >= 1 once the tail is
# Euler-Maclaurin corrected, kept as a defensive guard.
_M_CAP = 10 ** 7

# |c_j| entries below this scale are quadrature noise, not signal.  The
# relative constant is calibrated to the exactly-accumulated trapezoid pass,
# whose per-coefficient error is ~ eps * mean|sigma| / 2.
_COEFF_NOISE_ABS = 1e-14
_COEFF_NOISE_REL = 5e-17

# products per block of the exact coefficient refinement (256 KB of doubles)
_REFINE_BLOCK = 32768


def _tail_integral(u0, alpha: float, k: int):
    """int_{u0}^inf (u^2 + a^2)^{-k} du.

    The textbook reduction recurrence cancels catastrophically here (the k-th
    integral is u0^{2k-2} times smaller than the first), so the integrand is
    expanded in (a/u)^2 and integrated termwise; u0 exceeds 2 pi M >> a, making
    the series converge geometrically with every digit intact.
    """
    u0 = np.asarray(u0, dtype=float)
    if u0.size == 0:
        return np.zeros_like(u0)
    neg_q = -(alpha / u0) ** 2
    # the whole-array test passes only once every element does; the one with
    # the largest q converges slowest, so it is tested alone first
    slow = int(np.argmin(neg_q))
    term = np.ones_like(u0)
    total = np.zeros_like(u0)
    for m in range(120):
        contrib = term / (2 * k + 2 * m - 1)
        total += contrib
        if abs(contrib.flat[slow]) <= 1e-17 * abs(total.flat[slow]) and \
                np.all(np.abs(contrib) <= 1e-17 * np.abs(total)):
            break
        term *= neg_q * (k + m) / (m + 1.0)
    return total * u0 ** (1 - 2 * k)


def _g1(u, alpha: float, k: int):
    return -2.0 * k * u * (u * u + alpha * alpha) ** (-k - 1)


def _g3(u, alpha: float, k: int):
    a2 = alpha * alpha
    return -4.0 * k * (k + 1) * u * (u * u + a2) ** (-k - 3) * ((2 * k + 1) * u * u - 3 * a2)


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


def lattice_sum(xi, alpha: float, order: int, tol: float = 1e-12,
                skip_center: bool = False) -> tuple[np.ndarray, int]:
    """(sum_j ((xi - 2 pi j)^2 + a^2)^{-order}, M) to absolute accuracy tol,
    xi reduced into [-pi, pi]: |j| <= M summed directly, both tails corrected.
    skip_center leaves out the j = 0 term, the one at the reduced xi."""
    M = _choose_shift_count(alpha, order, tol)
    xi_a = np.atleast_1d(np.asarray(xi, dtype=float))
    xr = xi_a - _TWO_PI * np.round(xi_a / _TWO_PI)   # reduce by periodicity

    out = np.zeros_like(xr)
    j = np.arange(-M, M + 1)
    if skip_center:
        j = j[j != 0]
    # chunk the (points, shifts) outer sum to bound memory
    block = max(1, int(4e6 // (2 * M + 1)))
    a2 = alpha * alpha
    for s in range(0, len(xr), block):
        u = xr[s:s + block, None] - _TWO_PI * j[None, :]
        np.multiply(u, u, out=u)
        u += a2
        u **= -order
        out[s:s + block] = np.sum(u, axis=1)

    # both tails in one pass, from u = 2 pi (M + 1/2) -+ xr
    u = _TWO_PI * (M + 0.5) + np.concatenate([-xr, xr])
    ti, g1, g3 = (f(u, alpha, order).reshape(2, -1).sum(axis=0)
                  for f in (_tail_integral, _g1, _g3))
    out += ti / _TWO_PI + _TWO_PI * g1 / 24.0 - 7.0 * _TWO_PI ** 3 * g3 / 5760.0
    return out, M


def periodized_green_hat(params: SplineParams, xi, tol: float = 1e-12):
    """sum_j Ehat_k(xi - 2 pi j), certified to absolute accuracy tol.

    The sum has one sign, (-1)^k, and its magnitude dominates every single
    term |Ehat_k(xi - 2 pi j)|.  Accepts scalars or arrays.
    """
    total, _ = lattice_sum(xi, params.alpha, params.k, tol)
    out = (-1.0 if params.k % 2 else 1.0) * total
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


def reciprocal_symbol(params: SplineParams, xi, tol: float = 1e-12):
    """sigma(xi) = 1 / P(xi): 2 pi periodic, even, real analytic, sign (-1)^k."""
    p_tol = tol * abs(eval_green_hat(params, np.pi))
    return 1.0 / periodized_green_hat(params, xi, p_tol)


def fit_decay_envelope(js, mags) -> tuple[float, float]:
    """Least-squares fit of log|v| against j, with the amplitude raised to the
    smallest value whose envelope C e^{-c j} dominates every sample."""
    js = np.asarray(js, dtype=float)
    logs = np.log(np.asarray(mags, dtype=float))
    slope, intercept = np.polyfit(js, logs, 1)
    rate = -slope
    amplitude = float(np.exp(np.max(logs + rate * js)))
    return float(rate), amplitude


@dataclass(frozen=True)
class CoefficientTable:
    """Symmetric table of lattice coefficients c_{-J}..c_J of the reciprocal
    symbol, with a certified tail bound and a fitted decay envelope."""

    params: SplineParams
    half_width: int
    coeffs: np.ndarray = field(repr=False)
    tail_bound: float
    decay_rate: float
    decay_amplitude: float

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (2 * self.half_width + 1,):
            raise ValueError("coefficient array must have length 2*half_width+1")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def coeff(self, j: int) -> float:
        if abs(j) > self.half_width:
            return 0.0
        return float(self.coeffs[self.half_width + j])

    @property
    def indices(self) -> np.ndarray:
        return np.arange(-self.half_width, self.half_width + 1)

    @property
    def max_abs_coeff(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    @property
    def nonzero_count(self) -> int:
        return int(np.sum(np.abs(self.coeffs) >= _COEFF_NOISE_ABS))

    @property
    def compact_support(self) -> bool:
        """True when all but at most three entries sit below the noise scale
        (k = 1, whose reciprocal symbol is a degree-1 trigonometric polynomial)."""
        return self.nonzero_count <= 3


def _sample_reciprocal(params: SplineParams, n: int, odd: bool = False) -> np.ndarray:
    """sigma at xi = 2 pi i / n for i = 0..n-1, or for the odd i only."""
    xi = _TWO_PI * np.arange(1 if odd else 0, n, 2 if odd else 1) / n
    return np.asarray(reciprocal_symbol(params, xi, 1e-13))


def _doubled_samples(params: SplineParams, vals: np.ndarray) -> np.ndarray:
    """The samples of sigma on the grid twice as fine as that of vals.

    Its even samples are vals, bit for bit: fl(2 pi 2i) / 2n = fl(2 pi i) / n
    exactly, and each sample of sigma depends on its own xi alone.  Only the
    odd ones are new.
    """
    n = 2 * len(vals)
    out = np.empty(n)
    out[0::2] = vals
    out[1::2] = _sample_reciprocal(params, n, odd=True)
    return out


def _exact_row_sums(p: np.ndarray) -> np.ndarray:
    """Correctly rounded sum of each row of the 2-D array p, the value
    math.fsum gives for that row.  p is overwritten.

    Error-free extraction (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31(1),
    2008): with sigma = 1.5 * 2^52 * g for a power of two g, every |p| < 2^W g
    splits exactly as p = q + r, where q = fl(p + sigma) - sigma is a multiple
    of g and |r| <= g / 2.  A row holds at most 2^(50 - W) entries, so its q
    add up to at most 2^50 g in magnitude, through partial sums that are all
    multiples of g: each level's row sum is exact in any summation order.  The
    residuals are split again on the grid g 2^-W, and so on until they are all
    zero, which happens at the latest once g reaches 2^-1074, the spacing of
    every double.  The exact level sums then go through math.fsum, whose
    correctly rounded total of them is the correctly rounded total of the row.
    """
    W = 50 - math.ceil(math.log2(p.shape[1]))
    top = float(np.max(np.abs(p)))
    if not top < 2.0 ** 960:
        raise ValueError("exact row sums need finite entries below 2^960")
    e = math.frexp(top)[1]                      # every |p| < 2^e = 2^W g
    q = np.empty_like(p)
    levels = []
    while True:
        e_g = max(e - W, -1074)
        sigma = math.ldexp(1.5, 52 + e_g)
        np.add(p, sigma, out=q)
        q -= sigma
        p -= q
        levels.append(q.sum(axis=1))
        if e_g == -1074 or not p.any():
            break
        e = e_g
    return np.array([math.fsum(row) for row in np.stack(levels, axis=1).tolist()])


def _refined_coefficients(vals: np.ndarray, j_max: int) -> np.ndarray:
    """Trapezoid Fourier coefficients c_0..c_{j_max} of the sampled symbol with
    exact angle reduction and correctly rounded accumulation.

    The plain FFT leaves absolute noise ~ eps * max|sigma| on every output; for
    sharply peaked reciprocal symbols (high order k) that floor pollutes the
    small tail coefficients.  Reducing j*i modulo the grid size (a power of
    two, so a bit mask) keeps the cosine argument exact, and each coefficient
    is the correctly rounded sum of its n products vals[i] * cos_table[j*i mod
    n], divided by n, so it is correct to ~ eps * mean|sigma| instead.

    Each block of about _REFINE_BLOCK products (whole rows j) is summed by
    _exact_row_sums, whose rows are correctly rounded exactly as math.fsum
    rounds them; the products are the same IEEE products too, so every
    coefficient is bitwise math.fsum(vals * cos_table[j*i mod n]) / n, the
    one-fsum-per-coefficient loop that tests/oracles.py keeps as reference.
    """
    n = len(vals)
    if n < 1 or n & (n - 1):
        raise ValueError(f"sample count must be a power of two, got {n}")
    cos_table = np.cos(_TWO_PI * np.arange(n) / n)
    idx = np.arange(n)
    rows = max(1, _REFINE_BLOCK // n)
    out = np.empty(j_max + 1)
    for s in range(0, j_max + 1, rows):
        js = np.arange(s, min(s + rows, j_max + 1))
        prods = cos_table[np.multiply.outer(js, idx) & (n - 1)]
        prods *= vals
        out[s:s + len(js)] = _exact_row_sums(prods)
    return out / n


def compute_coefficients(params: SplineParams, tol: float = 1e-10) -> CoefficientTable:
    """Fourier coefficients of sigma by trapezoid/FFT sampling with doubling.

    The sample count doubles from 64 until successive coefficient sets agree to
    tol/10 (floored at the double-precision scale of the symbol).  The half
    width J is the smallest index whose fitted-envelope tail falls below tol.
    """
    if not (1e-14 <= tol <= 1e-2):
        raise ValueError(f"tol must lie in [1e-14, 1e-2], got {tol:g}")

    n = 64
    vals = _sample_reciprocal(params, n)
    prev = np.real(np.fft.fft(vals)) / n
    converged = False
    while True:
        n *= 2
        if n > 2 ** 20:
            raise QuadratureConvergenceError(
                f"coefficient quadrature did not converge below {tol:g} within "
                f"2^20 samples for (alpha={params.alpha}, k={params.k})")
        vals = _doubled_samples(params, vals)
        cur = np.real(np.fft.fft(vals)) / n
        m = len(prev) // 2
        scale = max(1.0, float(np.max(np.abs(cur))))
        target = max(tol / 10.0, 8e-15 * scale)
        if converged or np.max(np.abs(cur[:m] - prev[:m])) < target:
            converged = True
            table = _extract_table(params, vals, n, tol)
            if table is not None:
                return table
            # the fitted-envelope tail needs more index room than this grid
            # resolves; keep doubling
        prev = cur


def _extract_table(params: SplineParams, vals: np.ndarray, n: int,
                   tol: float) -> CoefficientTable | None:
    """Build the table from converged samples; None if the requested tail needs
    indices beyond what this grid resolves."""
    # refinement pass: exactly accumulated trapezoid coefficients (the FFT's
    # absolute noise floor would swamp the tail entries of peaked symbols);
    # indices far past the decay range are pure noise and not refined
    c_half = _refined_coefficients(vals, min(n // 2 - 1, 768))
    noise_floor = max(_COEFF_NOISE_ABS,
                      _COEFF_NOISE_REL * float(np.mean(np.abs(vals))))
    clean = np.where(np.abs(c_half) >= noise_floor, c_half, 0.0)

    nz = np.nonzero(clean)[0]
    if len(nz) == 0:
        raise QuadratureConvergenceError("reciprocal symbol produced an empty table")
    j_last = int(nz[-1])

    # decay envelope from entries safely above the noise (j >= 1; c_0 often
    # sits off the asymptote and would bias the slope)
    fit_nz = np.nonzero(np.abs(c_half) >= 10.0 * noise_floor)[0]
    fit_js = fit_nz[fit_nz >= 1]
    if len(fit_js) >= 2:
        rate, amplitude = fit_decay_envelope(fit_js, np.abs(clean[fit_js]))
        amplitude = max(amplitude, float(np.abs(clean[0])))
        if rate <= 0:
            raise QuadratureConvergenceError(
                f"fitted coefficient decay is not positive for "
                f"(alpha={params.alpha}, k={params.k})")
    else:
        # k = 1 style tables: two distinct magnitudes at most
        rate = math.log(abs(clean[0]) / abs(clean[1])) if len(clean) > 1 and clean[1] != 0 \
            else math.log(1.0 / noise_floor)
        amplitude = float(abs(clean[0]))

    # indices where the fitted envelope itself sinks below the noise floor
    # carry no signal; storing them would break the envelope contract
    if amplitude > noise_floor:
        j_cross = int(math.ceil(math.log(amplitude / noise_floor) / rate))
    else:
        j_cross = 1
    clean[j_cross + 1:] = 0.0
    j_last = min(j_last, j_cross)

    # near the cut the kept entries ride on noise of the floor's size; raise
    # the amplitude so the envelope dominates everything actually stored
    nz2 = np.nonzero(clean)[0]
    amplitude = max(amplitude,
                    float(np.max(np.abs(clean[nz2]) * np.exp(rate * nz2))))

    def envelope_tail(J: int) -> float:
        return 2.0 * amplitude * math.exp(-rate * (J + 1)) / (1.0 - math.exp(-rate))

    J = 1
    while envelope_tail(J) >= tol:
        J += 1
        if J >= min(n // 2, len(clean)) - 1:
            return None
    J = max(J, j_last)

    sym = np.empty(2 * J + 1)
    sym[J] = clean[0]
    for j in range(1, J + 1):
        v = clean[j] if j < len(clean) else 0.0
        sym[J + j] = v
        sym[J - j] = v

    return CoefficientTable(params=params, half_width=J, coeffs=sym,
                            tail_bound=envelope_tail(J), decay_rate=rate,
                            decay_amplitude=amplitude)

