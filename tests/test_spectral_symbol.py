"""Periodized symbol, fundamental-function transform, and lattice coefficients."""

import math
import time
from decimal import Decimal, localcontext

import numpy as np
import pytest

import cardspline.spectral_symbol as ss
from cardspline.errors import ParameterDomainError, QuadratureConvergenceError
from cardspline.greens_kernel import SplineParams, eval_green_hat
from cardspline.spectral_symbol import (compute_coefficients, fundamental_hat,
                                        periodized_green_hat)
from oracles import (bits, coefficients_mp, euler_frobenius_roots_mp,
                     periodized_k1_closed, periodized_spatial, plain_tail_bound,
                     reciprocal_k1_closed, tail_integral_mp)

ALPHAS = [0.5, 1.0, 2.0]
XI_GRID = np.linspace(-np.pi, np.pi, 41)


class TestPeriodizedGreenHat:
    def test_k1_closed_form_values(self):
        p = SplineParams(1.0, 1)
        assert periodized_green_hat(p, 0.0, 1e-12) == pytest.approx(-1.0819768, abs=1e-7)
        want_pi = -math.sinh(1.0) / (2.0 * (math.cosh(1.0) + 1.0))
        assert periodized_green_hat(p, math.pi, 1e-12) == \
            pytest.approx(want_pi, rel=1e-12, abs=0)
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
        # NaN compares false with every bound and must not pass as positive
        with pytest.raises(ValueError):
            periodized_green_hat(SplineParams(1.0, 1), 0.3, math.nan)
        with pytest.raises(ValueError):
            fundamental_hat(SplineParams(1.0, 1), 0.3, math.nan)
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
        assert fundamental_hat(p, 0.0) == pytest.approx(want, rel=1e-12, abs=0)

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
    """sigma = 1 / P, the symbol whose Fourier coefficients the table holds."""

    def test_anchor_value(self):
        p = SplineParams(1.0, 1)
        assert 1 / periodized_green_hat(p, 0.0) == pytest.approx(-0.9242344, abs=1e-7)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_k1_trig_polynomial(self, alpha):
        p = SplineParams(alpha, 1)
        got = 1 / periodized_green_hat(p, XI_GRID, 1e-15)
        np.testing.assert_allclose(got, reciprocal_k1_closed(alpha, XI_GRID),
                                   rtol=1e-12)

    def test_periodic(self):
        p = SplineParams(1.0, 2)
        np.testing.assert_allclose(1 / periodized_green_hat(p, XI_GRID),
                                   1 / periodized_green_hat(p, XI_GRID + 2 * np.pi),
                                   rtol=1e-13)

    def test_reciprocal_identity_at_zero(self):
        # P certified relative to |Ehat_k(pi)|, where |P| is smallest, at
        # two tolerances
        for (a, k) in [(0.5, 1), (1.0, 3), (2.0, 5)]:
            p = SplineParams(a, k)
            sigma = 1 / periodized_green_hat(p, 0.0, 1e-12 * abs(eval_green_hat(p, np.pi)))
            prod = sigma * periodized_green_hat(p, 0.0, 1e-13)
            assert prod == pytest.approx(1.0, rel=1e-12, abs=0)


class TestComputeCoefficients:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_k1_closed_form(self, alpha):
        table = compute_coefficients(SplineParams(alpha, 1), 1e-12)
        c, J = table.coeffs, table.half_width
        assert c[J] == pytest.approx(-2 * alpha / math.tanh(alpha), abs=1e-10)
        assert c[J + 1] == pytest.approx(alpha / math.sinh(alpha), abs=1e-10)
        assert c[J - 1] == c[J + 1]
        for j in range(2, J + 1):
            assert abs(c[J + j]) < 1e-12

    def test_k1_anchor_values(self):
        table = compute_coefficients(SplineParams(1.0, 1), 1e-12)
        assert table.coeffs.tolist() == pytest.approx([0.8509181, -2.6260705, 0.8509181],
                                                      abs=1e-7)
        assert table.compact_support

    @pytest.mark.parametrize("alpha,k", [(0.5, 2), (1.0, 2), (1.0, 4), (2.0, 3),
                                         (0.25, 4), (1.0, 6)])
    def test_symmetry_and_envelope(self, alpha, k):
        table = compute_coefficients(SplineParams(alpha, k), 1e-10)
        c = table.coeffs
        J = table.half_width
        # evenness to quadrature noise
        np.testing.assert_allclose(c, c[::-1], atol=1e-12 * max(1, table.max_abs_coeff))
        # the envelope dominates every stored entry
        js = np.abs(table.indices)
        env = table.decay_amplitude * np.exp(-table.decay_rate * js)
        assert np.all(np.abs(c) <= 1.05 * env + 1e-300)
        assert table.tail_bound < 1e-10
        assert table.decay_rate > 0

    def test_k2_decreasing_magnitudes(self):
        table = compute_coefficients(SplineParams(1.0, 2), 1e-10)
        c, J = np.abs(table.coeffs), table.half_width
        assert c[J + 2] < c[J + 1] < c[J]

    def test_two_resolution_stability(self):
        # trapezoid quadrature at two tolerances is its own oracle
        t1 = compute_coefficients(SplineParams(1.0, 2), 1e-8)
        t2 = compute_coefficients(SplineParams(1.0, 2), 1e-12)
        for j in range(0, min(t1.half_width, t2.half_width) + 1):
            assert t1.coeffs[t1.half_width + j] == \
                pytest.approx(t2.coeffs[t2.half_width + j], abs=1e-9)

    def test_roundtrip_reproduces_symbol(self):
        # sum_j c_j e^{-i j xi} must reproduce sigma on a fresh grid
        for (a, k) in [(1.0, 1), (1.0, 2), (0.5, 3), (2.0, 4), (1.0, 6)]:
            p = SplineParams(a, k)
            table = compute_coefficients(p, 1e-10)
            xi = np.linspace(-np.pi, np.pi, 1000)
            rec = np.zeros_like(xi)
            for j, cj in zip(table.indices, table.coeffs):
                rec += cj * np.cos(j * xi)     # even table: e^{-ij xi} pairs to cos
            sig = 1 / periodized_green_hat(p, xi, 1e-13 * abs(eval_green_hat(p, np.pi)))
            scale = max(1.0, float(np.max(np.abs(sig))))
            assert np.max(np.abs(rec - sig)) < 1e-9 * scale

    def test_tol_domain(self):
        for tol in (1e-15, 0.5, math.nan):
            with pytest.raises(ParameterDomainError, match="tol must lie in"):
                compute_coefficients(SplineParams(1.0, 2), tol)


class TestDecayEstimate:
    """The table's decay rate is the exact -log|l_max| of the Euler-Frobenius
    root nearest -1, and its amplitude the smallest that dominates every
    entry."""

    def test_k1_degenerate(self):
        # no root: three taps, an exact table and an infinite rate
        table = compute_coefficients(SplineParams(1.0, 1), 1e-10)
        assert table.compact_support
        assert (table.half_width, table.tail_bound, table.decay_rate) == (1, 0.0, math.inf)
        assert table.decay_amplitude == table.max_abs_coeff

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_positive_rate(self, k):
        table = compute_coefficients(SplineParams(1.0, k), 1e-10)
        rate, amp = table.decay_rate, table.decay_amplitude
        _, want = coefficients_mp(1.0, k, 0)
        assert rate == pytest.approx(want, rel=1e-14, abs=0)
        js = np.abs(table.indices)
        assert np.all(np.abs(table.coeffs) <= amp * np.exp(-rate * js) * (1 + 1e-12))
        assert np.max(np.abs(table.coeffs) * np.exp(rate * js)) == \
            pytest.approx(amp, rel=1e-12, abs=0)

    def test_rate_increases_with_alpha(self):
        r1 = compute_coefficients(SplineParams(1.0, 3), 1e-10).decay_rate
        r2 = compute_coefficients(SplineParams(2.0, 3), 1e-10).decay_rate
        assert r2 >= r1
        # the heights of the symbol's zeros
        assert r1 == pytest.approx(0.9220, abs=1e-4)
        assert r2 == pytest.approx(1.1546, abs=1e-4)

    @pytest.mark.parametrize("alpha,k", [(1.0, 8), (1.0, 10), (0.5, 6), (0.25, 6),
                                         (0.25, 12)])
    def test_exact_rate_across_orders(self, alpha, k):
        table = compute_coefficients(SplineParams(alpha, k), 1e-10)
        _, want = coefficients_mp(alpha, k, 0)
        assert table.decay_rate == pytest.approx(want, rel=1e-14, abs=0)


class TestTableAgainstMpmath:
    """Every stored entry against the 80-digit table of the same
    factorization, and the half width the envelope rule gives."""

    @pytest.mark.parametrize("alpha,k", [(1.0, 2), (1.0, 3), (0.25, 3), (1.0, 6),
                                         (0.25, 6), (1.0, 10), (0.25, 12)])
    def test_entries_relative(self, alpha, k):
        table = compute_coefficients(SplineParams(alpha, k), 1e-10)
        J = table.half_width
        want, _ = coefficients_mp(alpha, k, J)
        got = table.coeffs[J:]
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13
        np.testing.assert_array_equal(table.coeffs, table.coeffs[::-1])

    @pytest.mark.parametrize("alpha", [0.25, 1.0, 2.0])
    def test_k1_table_is_three_taps(self, alpha):
        table = compute_coefficients(SplineParams(alpha, 1), 1e-10)
        assert table.half_width == 1
        c0, c1 = -2.0 * alpha / math.tanh(alpha), alpha / math.sinh(alpha)
        np.testing.assert_allclose(table.coeffs, [c1, c0, c1], rtol=1e-15, atol=0)

    @pytest.mark.parametrize("alpha,k,tol", [(1.0, 3, 1e-10), (1.0, 6, 1e-12),
                                             (0.25, 6, 1e-14), (2.0, 10, 1e-8),
                                             (0.05, 30, 1e-10), (10.0, 30, 1e-14),
                                             (6.0, 2, 1e-2)])
    def test_half_width_is_the_smallest_certified(self, alpha, k, tol):
        # the tail 2 A e^{-r(J+1)} / (1 - e^{-r}) is below tol and the double
        # precision floor of the largest entry at J, and not at J - 1
        t = compute_coefficients(SplineParams(alpha, k), tol)
        r, A, J = t.decay_rate, t.decay_amplitude, t.half_width
        bound = min(tol, np.finfo(float).eps * t.max_abs_coeff)

        def tail(j):
            return 2.0 * A * math.exp(-r * (j + 1)) / (1.0 - math.exp(-r))
        assert t.tail_bound == tail(J) < bound <= tail(J - 1)

    @pytest.mark.parametrize("alpha,k,cond", [(1.0, 3, 6.24), (1.0, 6, 78.2),
                                              (1.0, 10, 2.27e3), (0.25, 12, 2.42e4),
                                              (1.0, 1, 1.0)])
    def test_cond_B(self, alpha, k, cond):
        t = compute_coefficients(SplineParams(alpha, k), 1e-10)
        assert t.cond_B == pytest.approx(cond, rel=5e-3)

    @pytest.mark.parametrize("alpha,k", [(0.05, 22), (0.05, 30), (0.25, 28), (1.0, 30),
                                         (6.0, 30), (50.0, 30)])
    def test_high_orders_resolve_at_once(self, alpha, k):
        # beta(k - 1) needs more than the starting 60 digits at (0.05, 22)
        # and (0.05, 30); np.roots in double gives complex pairs at (0.25, 28)
        t0 = time.perf_counter()
        t = compute_coefficients(SplineParams(alpha, k), 1e-10)
        assert time.perf_counter() - t0 < 1.0
        assert 0.0 < t.decay_rate < math.inf and t.tail_bound < 1e-10
        np.testing.assert_array_equal(t.coeffs, t.coeffs[::-1])
        js = np.abs(t.indices)
        assert np.all(np.abs(t.coeffs) <= t.decay_amplitude * np.exp(-t.decay_rate * js)
                      * (1 + 1e-12))

    @pytest.mark.parametrize("alpha,k", [(1.0, 3), (1.0, 12), (0.05, 22), (0.25, 28),
                                         (0.5, 28), (1.0, 30), (6.0, 30), (400.0, 5)])
    def test_roots_match_mpmath(self, alpha, k):
        # the roots w < -2 of the half-degree R(w), mapped back to l, round
        # to the same doubles as mpmath's roots of Q itself, at 300 digits
        # as beta(k - 1) cancels more than 80 at the high orders; at
        # alpha = 400, (w + sqrt(w^2 - 4)) / 2 would give l = 0
        params = SplineParams(alpha, k)
        with localcontext() as ctx:
            ctx.prec = ss._DIGITS
            beta, _ = ss._bspline_samples(params)
            got = [float(z) for z in ss._inner_roots(params, beta)]
        assert got == [float(z) for z in euler_frobenius_roots_mp(alpha, k, 300)[2]]

    @pytest.mark.parametrize("alpha,k", [(1.0, 3), (1.0, 12), (0.05, 22), (0.05, 30),
                                         (0.25, 28), (6.0, 30), (400.0, 5)])
    def test_double_starts_keep_the_roots(self, alpha, k):
        # polishing the double estimates finds the roots of the search from
        # w = -2 outwards with a full-precision square root: the same
        # doubles, and the same decimals to the search's tolerance
        params = SplineParams(alpha, k)
        with localcontext() as ctx:
            ctx.prec = ss._DIGITS
            beta, _ = ss._bspline_samples(params)
            got = ss._inner_roots(params, beta)
            ws = sorted(ss._laguerre(ss._half_degree_poly(beta), [], ss._ROOT_TOL,
                                     Decimal.sqrt))
            want = [2 / (w - (w * w - 4).sqrt()) for w in ws]
            assert [float(z) for z in got] == [float(z) for z in want]
            assert all(abs(a - b) <= ss._ROOT_TOL * abs(b) for a, b in zip(got, want))

    def test_non_finite_starts_fall_back_to_the_last_root(self):
        with localcontext() as ctx:
            ctx.prec = ss._DIGITS
            beta, _ = ss._bspline_samples(SplineParams(1.0, 8))
            poly = ss._half_degree_poly(beta)
            want = ss._laguerre(poly, [], ss._ROOT_TOL, Decimal.sqrt)
            assert len(want) == 7
            for starts in ([math.nan] * 7, [math.inf, -math.inf], [math.nan]):
                assert ss._laguerre(poly, starts, ss._ROOT_TOL, Decimal.sqrt) == want

    def test_unresolved_roots_refused_at_once(self):
        # at alpha = 1e5 the root nearest 0 is about -e^{-1e5}, which is
        # -0.0 in double
        t0 = time.perf_counter()
        with pytest.raises(QuadratureConvergenceError, match="distinct roots"):
            compute_coefficients(SplineParams(1e5, 3), 1e-10)
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("alpha,k", [(1e3, 2), (1e5, 24)])
    def test_roots_off_the_double_range_refused(self, alpha, k):
        # the one root at (1e3, 2) is -0.0 in double, so its rate would be
        # -log(0); (2 cosh a)^24 passes the default decimal exponent range
        with pytest.raises(QuadratureConvergenceError, match="distinct roots"):
            compute_coefficients(SplineParams(alpha, k), 1e-10)


class TestTailIntegral:
    """The lattice sums' tail integrals, a fixed-length Horner series, against
    40-digit quadrature, and the fused orders against one order at a time."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_against_mpmath(self, alpha):
        # the converge sweep's range: orders k and 2k for k <= 12, and
        # u0 = 2 pi (M + 1/2) -+ xr, xr in [-pi, pi], for the pass's shift
        # counts M (5 to 19 there; 100 reaches further); then, in one call
        # with the farthest of them, u0 down to 5 alpha, whose q = 1/25 sets
        # the series' length for every point
        worst = 0.0
        base = ss._TWO_PI * (np.array([5, 19, 100]) + 0.5)
        for u0, orders in [(base[:, None] + np.pi * np.array([-1.0, -0.3, 0.55, 1.0]),
                            (1, 2, 6, 12, 24)),
                           (np.append(alpha * np.array([5.0, 7.0, 12.0]), base[-1]),
                            (1, 2, 6, 12))]:
            u0 = u0.ravel()
            got = ss._tail_integrals(u0, alpha, orders)
            for row, m in zip(got, orders):
                ref = tail_integral_mp(u0, alpha, m)
                worst = max(worst, max(abs(float((v - r) / r)) for v, r in zip(row.tolist(), ref)))
        assert worst < 4 * np.finfo(float).eps

    def test_fused_orders_bitwise_one_at_a_time(self):
        # a shorter order's leading zeros add nothing to the Horner sum, and
        # both tails of each order keep the bits of a call for that order
        rng = np.random.default_rng(15)
        for alpha, k, M in [(1.0, 1, 17), (0.5, 6, 5), (2.0, 8, 5), (1.0, 12, 5),
                            (0.25, 3, 40)]:
            xr = rng.uniform(-np.pi, np.pi, 64)
            u0 = ss._TWO_PI * (M + 0.5) + np.concatenate([-xr, xr])
            both = ss._tail_integrals(u0, alpha, (k, 2 * k))
            for row, m in zip(both, (k, 2 * k)):
                np.testing.assert_array_equal(bits(row), bits(ss._tail_integrals(u0, alpha, (m,))[0]))
            tails = ss._em_tails(xr, alpha, (k, 2 * k), M)
            for row, m in zip(tails, (k, 2 * k)):
                np.testing.assert_array_equal(bits(row), bits(ss._em_tails(xr, alpha, (m,), M)[0]))

    def test_empty_and_scalar(self):
        assert ss._tail_integrals(np.array([]), 1.0, (3, 6)).shape == (2, 0)
        got = ss._tail_integrals(np.array([60.0]), 1.0, (3,))
        assert got.shape == (1, 1)
        assert float(got[0, 0]) == pytest.approx(float(tail_integral_mp(60.0, 1.0, 3)[0]),
                                                 rel=4 * np.finfo(float).eps, abs=0)
