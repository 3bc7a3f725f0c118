"""Periodized symbol, fundamental-function transform, and lattice coefficients."""

import math

import numpy as np
import pytest

import cardspline.spectral_symbol as ss
from cardspline.errors import (DegenerateDecayError,
                               QuadratureConvergenceError)
from cardspline.greens_kernel import SplineParams, eval_green_hat
from cardspline.spectral_symbol import (compute_coefficients, decay_estimate,
                                        fundamental_hat, periodized_green_hat,
                                        reciprocal_symbol)
from oracles import (periodized_k1_closed, periodized_spatial,
                     plain_tail_bound, reciprocal_k1_closed)

ALPHAS = [0.5, 1.0, 2.0]
XI_GRID = np.linspace(-np.pi, np.pi, 41)


class TestPeriodizedGreenHat:
    def test_k1_closed_form_values(self):
        p = SplineParams(1.0, 1)
        assert periodized_green_hat(p, 0.0, 1e-12) == pytest.approx(-1.0819768, abs=1e-7)
        want_pi = -math.sinh(1.0) / (2.0 * (math.cosh(1.0) + 1.0))
        assert periodized_green_hat(p, math.pi, 1e-12) == \
            pytest.approx(want_pi, rel=1e-12)
        assert want_pi == pytest.approx(-0.2310586, abs=1e-7)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_k1_closed_form_grid(self, alpha):
        p = SplineParams(alpha, 1)
        got = periodized_green_hat(p, XI_GRID, 1e-13)
        np.testing.assert_allclose(got, periodized_k1_closed(alpha, XI_GRID),
                                   rtol=1e-12)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_matches_spatial_poisson_route(self, alpha, k):
        # frequency-domain sum with Euler-Maclaurin tail vs the cosine series
        # of kernel samples: two independent constructions of the same object.
        # The cosine series cancels heavily where the symbol dips (high k), so
        # a small absolute floor at the oracle's noise scale is allowed.
        p = SplineParams(alpha, k)
        got = periodized_green_hat(p, XI_GRID, 1e-13)
        want = periodized_spatial(p, XI_GRID)
        atol = 5e-15 * float(np.max(np.abs(want)))
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=atol)

    def test_periodicity(self):
        p = SplineParams(0.7, 3)
        a = periodized_green_hat(p, XI_GRID, 1e-12)
        b = periodized_green_hat(p, XI_GRID + 2 * np.pi, 1e-12)
        np.testing.assert_allclose(a, b, rtol=1e-13)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_sign_and_domination(self, k):
        # sign (-1)^k, magnitude at least the nearest single term
        p = SplineParams(1.2, k)
        vals = np.asarray(periodized_green_hat(p, XI_GRID, 1e-12))
        assert np.all(np.sign(vals) == (-1.0) ** k)
        assert np.all(np.abs(vals) >= np.abs(eval_green_hat(p, XI_GRID)))

    def test_certified_accuracy_not_plain_truncation(self):
        # at k = 1 the uncorrected tail bound cannot reach fine tolerances with
        # any feasible shift count, while the corrected sum is exact to 1e-13
        assert plain_tail_bound(10 ** 7, 1) > 1e-9
        p = SplineParams(1.0, 1)
        got = periodized_green_hat(p, 0.3, 1e-13)
        assert got == pytest.approx(float(periodized_k1_closed(1.0, 0.3)), abs=1e-13)

    def test_tolerance_cap_guard(self):
        with pytest.raises(ValueError):
            periodized_green_hat(SplineParams(1.0, 1), 0.0, -1.0)
        from cardspline.spectral_symbol import _em_remainder_bound
        # the defensive unreachable branch exists; the bound must shrink in M
        assert _em_remainder_bound(200, 1.0, 1) < _em_remainder_bound(20, 1.0, 1)

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-13])
    @pytest.mark.parametrize("alpha,k", [(0.5, 1), (1.0, 1), (2.0, 2), (1.0, 4)])
    def test_certified_tolerance_holds(self, alpha, k, tol):
        # the requested absolute tolerance must truly bound the error
        p = SplineParams(alpha, k)
        got = np.asarray(periodized_green_hat(p, XI_GRID, tol))
        want = periodized_k1_closed(alpha, XI_GRID) if k == 1 else \
            periodized_spatial(p, XI_GRID)
        assert np.max(np.abs(got - want)) < tol


class TestFundamentalHat:
    def test_anchor_value(self):
        # (2 pi)^{-1/2} / 1.0819767... = 0.36871615 (closed-form denominator)
        p = SplineParams(1.0, 1)
        want = 1.0 / math.sqrt(2 * math.pi) / abs(float(periodized_k1_closed(1.0, 0.0)))
        assert want == pytest.approx(0.3687161, abs=1e-7)
        assert fundamental_hat(p, 0.0) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_positive_and_bounded(self, alpha, k):
        p = SplineParams(alpha, k)
        xis = np.linspace(-30.0, 30.0, 401)
        vals = np.asarray(fundamental_hat(p, xis))
        assert np.all(vals > 0)
        assert np.all(vals <= 1.0 / math.sqrt(2 * math.pi) + 1e-13)

    def test_even(self):
        p = SplineParams(0.8, 2)
        np.testing.assert_allclose(fundamental_hat(p, XI_GRID),
                                   fundamental_hat(p, -XI_GRID), rtol=1e-13)

    def test_replica_below_envelope_value(self):
        # at xi = 4 pi the value sits inside the second aliasing window
        p = SplineParams(1.0, 1)
        assert 0.0 < fundamental_hat(p, 4 * np.pi) < 0.0482748


class TestReciprocalSymbol:
    def test_anchor_value(self):
        p = SplineParams(1.0, 1)
        assert reciprocal_symbol(p, 0.0) == pytest.approx(-0.9242344, abs=1e-7)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_k1_trig_polynomial(self, alpha):
        p = SplineParams(alpha, 1)
        got = reciprocal_symbol(p, XI_GRID, 1e-13)
        np.testing.assert_allclose(got, reciprocal_k1_closed(alpha, XI_GRID),
                                   rtol=1e-12)

    def test_periodic(self):
        p = SplineParams(1.0, 2)
        np.testing.assert_allclose(reciprocal_symbol(p, XI_GRID),
                                   reciprocal_symbol(p, XI_GRID + 2 * np.pi),
                                   rtol=1e-13)

    def test_reciprocal_identity_at_zero(self):
        for (a, k) in [(0.5, 1), (1.0, 3), (2.0, 5)]:
            p = SplineParams(a, k)
            prod = reciprocal_symbol(p, 0.0) * periodized_green_hat(p, 0.0, 1e-13)
            assert prod == pytest.approx(1.0, rel=1e-12)


class TestComputeCoefficients:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_k1_closed_form(self, alpha):
        table = compute_coefficients(SplineParams(alpha, 1), 1e-12)
        assert table.coeff(0) == pytest.approx(-2 * alpha / math.tanh(alpha), abs=1e-10)
        assert table.coeff(1) == pytest.approx(alpha / math.sinh(alpha), abs=1e-10)
        assert table.coeff(-1) == table.coeff(1)
        for j in range(2, table.half_width + 1):
            assert abs(table.coeff(j)) < 1e-12

    def test_k1_anchor_values(self):
        table = compute_coefficients(SplineParams(1.0, 1), 1e-12)
        assert table.coeff(0) == pytest.approx(-2.6260705, abs=1e-7)
        assert table.coeff(1) == pytest.approx(0.8509181, abs=1e-7)
        assert table.compact_support

    @pytest.mark.parametrize("alpha,k", [(0.5, 2), (1.0, 2), (1.0, 4), (2.0, 3),
                                         (0.25, 4), (1.0, 6)])
    def test_symmetry_and_envelope(self, alpha, k):
        table = compute_coefficients(SplineParams(alpha, k), 1e-10)
        c = table.coeffs
        J = table.half_width
        # evenness to quadrature noise
        np.testing.assert_allclose(c, c[::-1], atol=1e-12 * max(1, table.max_abs_coeff))
        # fitted envelope dominates every stored entry
        js = np.abs(table.indices)
        env = table.decay_amplitude * np.exp(-table.decay_rate * js)
        assert np.all(np.abs(c) <= 1.05 * env + 1e-300)
        assert table.tail_bound < 1e-10
        assert table.decay_rate > 0

    def test_k2_decreasing_magnitudes(self):
        table = compute_coefficients(SplineParams(1.0, 2), 1e-10)
        assert abs(table.coeff(2)) < abs(table.coeff(1)) < abs(table.coeff(0))

    def test_two_resolution_stability(self):
        # trapezoid quadrature at two tolerances is its own oracle
        t1 = compute_coefficients(SplineParams(1.0, 2), 1e-8)
        t2 = compute_coefficients(SplineParams(1.0, 2), 1e-12)
        for j in range(0, min(t1.half_width, t2.half_width) + 1):
            assert t1.coeff(j) == pytest.approx(t2.coeff(j), abs=1e-9)

    def test_roundtrip_reproduces_symbol(self):
        # sum_j c_j e^{-i j xi} must reproduce sigma on a fresh grid
        for (a, k) in [(1.0, 1), (1.0, 2), (0.5, 3), (2.0, 4), (1.0, 6)]:
            p = SplineParams(a, k)
            table = compute_coefficients(p, 1e-10)
            xi = np.linspace(-np.pi, np.pi, 1000)
            rec = np.zeros_like(xi)
            for j, cj in zip(table.indices, table.coeffs):
                rec += cj * np.cos(j * xi)     # even table: e^{-ij xi} pairs to cos
            sig = np.asarray(reciprocal_symbol(p, xi, 1e-13))
            scale = max(1.0, float(np.max(np.abs(sig))))
            assert np.max(np.abs(rec - sig)) < 1e-9 * scale

    def test_tol_domain(self):
        with pytest.raises(ValueError):
            compute_coefficients(SplineParams(1.0, 2), 1e-15)
        with pytest.raises(ValueError):
            compute_coefficients(SplineParams(1.0, 2), 0.5)

    def test_doubling_cap_raises(self, monkeypatch):
        rng = np.random.default_rng(0)
        monkeypatch.setattr(ss, "_sample_reciprocal",
                            lambda params, n: rng.standard_normal(n))
        with pytest.raises(QuadratureConvergenceError):
            compute_coefficients(SplineParams(1.0, 2), 1e-10)


class TestDecayEstimate:
    def test_k1_degenerate(self):
        table = compute_coefficients(SplineParams(1.0, 1), 1e-10)
        with pytest.raises(DegenerateDecayError):
            decay_estimate(table)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_positive_rate(self, k):
        table = compute_coefficients(SplineParams(1.0, k), 1e-10)
        rate, amp = decay_estimate(table)
        assert rate > 0
        js = np.abs(table.indices)
        assert np.all(np.abs(table.coeffs) <= 1.05 * amp * np.exp(-rate * js) + 1e-300)

    def test_rate_increases_with_alpha(self):
        r1, _ = decay_estimate(compute_coefficients(SplineParams(1.0, 3), 1e-10))
        r2, _ = decay_estimate(compute_coefficients(SplineParams(2.0, 3), 1e-10))
        assert r2 >= r1
        # regression anchors for the symbol-zero heights (loose)
        assert r1 == pytest.approx(0.922, abs=0.05)
        assert r2 == pytest.approx(1.155, abs=0.06)
