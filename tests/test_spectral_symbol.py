"""Periodized symbol, fundamental-function transform, and lattice coefficients."""

import math

import numpy as np
import pytest

import cardspline.spectral_symbol as ss
from cardspline.errors import QuadratureConvergenceError
from cardspline.greens_kernel import SplineParams, eval_green_hat
from cardspline.spectral_symbol import (compute_coefficients, fundamental_hat,
                                        periodized_green_hat, reciprocal_symbol)
from oracles import (bits, periodized_k1_closed, periodized_spatial,
                     plain_tail_bound, reciprocal_k1_closed,
                     refined_coefficients_fsum, sample_reciprocal_full,
                     tail_integral_loop)

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
            assert prod == pytest.approx(1.0, rel=1e-12, abs=0)


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
        # every level is noise: the first one whole, then each level's fresh
        # odd samples beside the previous level's noise
        rng = np.random.default_rng(0)
        monkeypatch.setattr(ss, "_sample_reciprocal",
                            lambda params, n, odd=False: rng.standard_normal(n // 2 if odd else n))
        with pytest.raises(QuadratureConvergenceError):
            compute_coefficients(SplineParams(1.0, 2), 1e-10)


class TestDecayEstimate:
    """The table's own envelope fit (decay_rate, decay_amplitude)."""

    def test_k1_degenerate(self):
        # three nonzero entries: the rate is the ratio of the two magnitudes
        table = compute_coefficients(SplineParams(1.0, 1), 1e-10)
        assert table.compact_support
        assert table.decay_rate == pytest.approx(
            math.log(abs(table.coeff(0)) / abs(table.coeff(1))), rel=1e-12, abs=0)
        js = np.abs(table.indices)
        assert np.all(np.abs(table.coeffs)
                      <= table.decay_amplitude * np.exp(-table.decay_rate * js) + 1e-300)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_positive_rate(self, k):
        table = compute_coefficients(SplineParams(1.0, k), 1e-10)
        rate, amp = table.decay_rate, table.decay_amplitude
        assert rate > 0
        js = np.abs(table.indices)
        assert np.all(np.abs(table.coeffs) <= 1.05 * amp * np.exp(-rate * js) + 1e-300)

    def test_rate_increases_with_alpha(self):
        r1 = compute_coefficients(SplineParams(1.0, 3), 1e-10).decay_rate
        r2 = compute_coefficients(SplineParams(2.0, 3), 1e-10).decay_rate
        assert r2 >= r1
        # regression anchors for the symbol-zero heights (loose)
        assert r1 == pytest.approx(0.922, abs=0.05)
        assert r2 == pytest.approx(1.155, abs=0.06)


class TestDoubledSamples:
    """Each doubling level reuses the previous one's samples as its even ones."""

    @pytest.mark.parametrize("alpha,k", [(0.25, 10), (1.0, 6), (2.0, 3)])
    def test_bitwise_full_resampling(self, alpha, k):
        params = SplineParams(alpha, k)
        vals = ss._sample_reciprocal(params, 64)
        np.testing.assert_array_equal(bits(vals), bits(sample_reciprocal_full(params, 64)))
        for n in (128, 256, 512, 1024, 2048):
            vals = ss._doubled_samples(params, vals)
            np.testing.assert_array_equal(bits(vals),
                                          bits(sample_reciprocal_full(params, n)))


class TestTailIntegral:
    """The tail series stops at the same term as with the whole-array test in
    every iteration."""

    def test_bitwise_whole_array_loop(self):
        rng = np.random.default_rng(12)
        for trial in range(300):
            alpha = float(rng.choice([0.25, 0.5, 1.0, 2.0, rng.uniform(0.01, 8.0)]))
            k = int(rng.integers(1, 31))
            n = int(rng.choice([0, 1, 2, 5, 64, 257]))
            # lattice_sum's arguments, 2 pi (M + 1/2) -+ xr, and a few near
            # alpha, where the series converges slowly
            u0 = ss._TWO_PI * (rng.integers(8, 40) + 0.5) + rng.uniform(-np.pi, np.pi, n)
            if trial % 5 == 0:
                u0 = rng.uniform(1.02, 3.0, n) * alpha
            np.testing.assert_array_equal(
                bits(ss._tail_integral(u0, alpha, k)),
                bits(tail_integral_loop(u0, alpha, k)),
                err_msg=f"trial {trial}")

    def test_empty_and_scalar(self):
        assert ss._tail_integral(np.array([]), 1.0, 3).shape == (0,)
        got = ss._tail_integral(np.float64(60.0), 1.0, 3)
        np.testing.assert_array_equal(bits(got), bits(tail_integral_loop(60.0, 1.0, 3)))


class TestRefinedCoefficients:
    """The blocked exact refinement against the one-fsum-per-coefficient loop."""

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("k", [1, 2, 3, 6, 10, 12])
    def test_bitwise_fsum_oracle(self, alpha, k):
        for n in (128, 256, 512, 1024, 2048):
            vals = ss._sample_reciprocal(SplineParams(alpha, k), n)
            j_max = min(n // 2 - 1, 768)
            np.testing.assert_array_equal(
                bits(ss._refined_coefficients(vals, j_max)),
                bits(refined_coefficients_fsum(vals, j_max)))

    def test_row_sums_adversarial(self):
        rng = np.random.default_rng(11)
        for trial in range(300):
            rows = int(rng.integers(1, 6))
            width = int(rng.choice([1, 2, 3, 7, 100, 1000, 4099]))
            kind = trial % 4
            if kind == 0:     # magnitudes spread over e^-200 .. e^200
                p = rng.choice([-1.0, 1.0], (rows, width)) * \
                    np.exp(rng.uniform(-200.0, 200.0, (rows, width)))
            elif kind == 1:   # exact cancellation down to a few small survivors
                half = np.exp(rng.uniform(-200.0, 200.0, (rows, (width + 1) // 2)))
                p = np.concatenate([half, -rng.permuted(half, axis=1)], axis=1)
                p = p[:, :width]
                p[:, rng.integers(width)] += rng.standard_normal(rows) * 1e-150
            elif kind == 2:   # all-zero rows beside ordinary ones
                p = rng.standard_normal((rows, width))
                p[rng.integers(rows)] = 0.0
            else:             # huge terms that cancel, leaving unit-sized ones
                p = rng.standard_normal((rows, width))
                p[:, 0] += 1e200
                p[:, -1] -= 1e200
            want = np.array([math.fsum(r) for r in p.tolist()])
            got = ss._exact_row_sums(p.copy())
            np.testing.assert_array_equal(bits(got), bits(want), err_msg=f"trial {trial}")

    def test_row_sums_refuse_non_finite(self):
        with pytest.raises(ValueError):
            ss._exact_row_sums(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError):
            ss._exact_row_sums(np.array([[1.0, np.inf]]))

    @pytest.mark.parametrize("n", [0, 96, 100, 1000])
    def test_non_power_of_two_refused(self, n):
        with pytest.raises(ValueError, match="power of two"):
            ss._refined_coefficients(np.ones(n), 10)

    def test_build_eval_tables_match_fsum_oracle(self, monkeypatch):
        # the 15 (alpha, k) cells of the build-eval benchmark, tol 1e-10
        cells = [(a, k) for a in (0.25, 1.0, 2.0) for k in (1, 3, 6, 8, 10)]

        def tables():
            out = []
            for a, k in cells:
                t = compute_coefficients(SplineParams(a, k), 1e-10)
                out.append((t.half_width, bits(t.coeffs), t.tail_bound,
                            t.decay_rate, t.decay_amplitude))
            return out

        fast = tables()
        monkeypatch.setattr(ss, "_refined_coefficients", refined_coefficients_fsum)
        slow = tables()
        for (a, k), f, s in zip(cells, fast, slow):
            assert f[0] == s[0], (a, k)
            np.testing.assert_array_equal(f[1], s[1], err_msg=f"{(a, k)}")
            assert f[2:] == s[2:], (a, k)

