"""Band-limited targets, aliasing envelope, and the spectral error machinery."""

import math
import sys

import numpy as np
import pytest

import cardspline.bandlimited_analysis as ba
from cardspline.bandlimited_analysis import (BandlimitedTarget, ErrorReport,
                                             aliasing_envelope, error_report,
                                             gallery_names, interp_deviation,
                                             l2_error_bound, l2_error_spectral,
                                             replica_power, sample_integers,
                                             sup_error_grid, target_gallery)
from cardspline.errors import (QuadratureConvergenceError,
                               ToleranceUnreachableError, UnknownTargetError)
from cardspline.greens_kernel import SplineParams, eval_green_hat
from cardspline.spectral_symbol import (fundamental_hat, lattice_sum,
                                        periodized_green_hat)
from oracles import (deviation_replica_mp, half_band_time,
                     l2_error_and_bound_mp, replica_power_k1_closed, sinc_time,
                     triangle_time)

SQRT_2PI = math.sqrt(2.0 * math.pi)


def zero_target() -> BandlimitedTarget:
    return BandlimitedTarget(name="zero",
                             spectrum=lambda xi: np.zeros_like(np.asarray(xi, dtype=float)),
                             pieces=((-np.pi, np.pi),),
                             sample_tail_l2=lambda J: 0.0)


def straddling_band() -> BandlimitedTarget:
    """A flat spectrum on |xi| <= 3 declared as one smooth piece over
    [-pi, pi]: the jumps at +-3 never fall on a panel edge, so the Gauss
    panels converge only like 1/panels."""
    c = 1.0 / SQRT_2PI
    return BandlimitedTarget(
        name="straddled-band",
        spectrum=lambda xi: np.where(np.abs(np.asarray(xi, dtype=float)) <= 3.0, c, 0.0),
        pieces=((-np.pi, np.pi),),
        sample_tail_l2=lambda J: 1.0 / (np.pi ** 2 * max(J, 1)))


class TestGallery:
    def test_names(self):
        assert set(gallery_names()) == {"sinc", "triangle-spectrum",
                                        "bump-spectrum", "half-band"}

    def test_unknown_name(self):
        with pytest.raises(UnknownTargetError):
            target_gallery("nosuch")

    def test_sinc_samples_are_delta(self):
        t = target_gallery("sinc")
        js = np.arange(-10, 11).astype(float)
        vals = np.asarray(t.time_eval(js))
        np.testing.assert_allclose(vals, (js == 0).astype(float), atol=1e-12)

    def test_triangle_anchor(self):
        t = target_gallery("triangle-spectrum")
        assert t.time_eval(0.0) == pytest.approx(0.5, abs=1e-12)
        xs = np.linspace(-7, 7, 29)
        np.testing.assert_allclose(t.time_eval(xs), triangle_time(xs), atol=1e-12)

    def test_half_band_anchor(self):
        t = target_gallery("half-band")
        xs = np.linspace(-9, 9, 37)
        np.testing.assert_allclose(t.time_eval(xs), half_band_time(xs), atol=1e-12)

    def test_sinc_closed_form(self):
        t = target_gallery("sinc")
        xs = np.linspace(-20, 20, 81)
        np.testing.assert_allclose(t.time_eval(xs), sinc_time(xs), atol=1e-12)

    def test_bump_time_eval_consistency(self):
        # g(0) = (2 pi)^{-1/2} int ghat: quadrature at two resolutions agrees
        t = target_gallery("bump-spectrum")
        from cardspline.bandlimited_analysis import _panel_nodes
        nodes, w = _panel_nodes(t.pieces, 16)
        direct = float(np.dot(w, t.spectrum(nodes))) / SQRT_2PI
        assert t.time_eval(0.0) == pytest.approx(direct, rel=1e-12, abs=0)

    def test_l2_norms(self):
        assert target_gallery("sinc").l2_norm_sq == pytest.approx(1.0, rel=1e-12, abs=0)
        assert target_gallery("triangle-spectrum").l2_norm_sq == \
            pytest.approx(1.0 / 3.0, rel=1e-12, abs=0)
        assert target_gallery("half-band").l2_norm_sq == pytest.approx(0.5, rel=1e-12, abs=0)


class TestSampleIntegers:
    def test_sinc_delta_sequence(self):
        data = sample_integers(target_gallery("sinc"), 10)
        js = np.arange(-10, 11)
        np.testing.assert_allclose(data.values(js), (js == 0).astype(float),
                                   atol=1e-12)
        assert data.l2_tail == 0.0
        assert data.growth.beta == 0.0

    def test_tail_estimate_decreases(self):
        t = target_gallery("half-band")
        tails = [sample_integers(t, J).l2_tail for J in [5, 10, 20, 40]]
        assert all(tails[i + 1] < tails[i] for i in range(3))

    def test_triangle_single_sample(self):
        data = sample_integers(target_gallery("triangle-spectrum"), 0)
        assert data.values(np.array([0]))[0] == pytest.approx(0.5, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            sample_integers(target_gallery("sinc"), -1)


class TestAliasingEnvelope:
    def test_first_window_value(self):
        assert aliasing_envelope(SplineParams(1.0, 1), 1) == \
            pytest.approx(0.3989423, abs=1e-7)

    def test_second_window_value(self):
        assert aliasing_envelope(SplineParams(1.0, 1), 2) == \
            pytest.approx(0.0482748, abs=1e-7)

    def test_order_shrink_factor(self):
        # raising k multiplies the l=2 envelope by its base
        e1 = aliasing_envelope(SplineParams(1.0, 1), 2)
        e2 = aliasing_envelope(SplineParams(1.0, 2), 2)
        assert e2 / e1 == pytest.approx(0.1210067, abs=1e-7)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            aliasing_envelope(SplineParams(1.0, 1), 0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("k", [1, 2, 4, 6])
    def test_envelope_dominates_replicas(self, alpha, k):
        # sampled |Lhat(xi - 2 pi l)| never exceeds the envelope
        p = SplineParams(alpha, k)
        xis = np.linspace(-np.pi, np.pi, 101)
        for ell in range(1, 7):
            vals = np.asarray(fundamental_hat(p, xis - 2 * np.pi * ell))
            assert np.max(vals) <= aliasing_envelope(p, ell) + 1e-12
            vals = np.asarray(fundamental_hat(p, xis + 2 * np.pi * ell))
            assert np.max(vals) <= aliasing_envelope(p, ell) + 1e-12


class TestDeviationIdentity:
    @pytest.mark.parametrize("k", [1, 2, 4, 6])
    def test_partition_restated(self, k):
        # S(xi) = 1 - sqrt(2 pi) Lhat(xi) equals the replica sum; for k = 1 the
        # closed-form periodization arbitrates, for k >= 2 a direct lattice sum
        p = SplineParams(1.0, k)
        xis = np.linspace(-np.pi, np.pi, 33)
        S = np.asarray(interp_deviation(p, xis))
        if k == 1:
            from oracles import periodized_k1_closed
            num = np.asarray(periodized_k1_closed(1.0, xis))
            from cardspline.spectral_symbol import periodized_green_hat
            den = np.asarray(periodized_green_hat(p, xis, 1e-13))
            direct = num / den - np.asarray(
                fundamental_hat(p, xis)) * SQRT_2PI
        else:
            from cardspline.greens_kernel import eval_green_hat
            acc = np.zeros_like(xis)
            for ell in range(1, 3000):
                acc += eval_green_hat(p, xis - 2 * np.pi * ell)
                acc += eval_green_hat(p, xis + 2 * np.pi * ell)
            from cardspline.spectral_symbol import periodized_green_hat
            direct = acc / np.asarray(periodized_green_hat(p, xis, 1e-13))
        assert np.max(np.abs(S - direct)) < 1e-9

    def test_replica_power_positive(self):
        T, L = replica_power(SplineParams(1.0, 2), np.linspace(-np.pi, np.pi, 17))
        assert np.all(T > 0)
        assert L >= 4

    @pytest.mark.parametrize("tol", [1e-8, 1e-10])
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("k", [1, 2, 4, 6])
    def test_replica_power_oracle(self, k, alpha, tol):
        # k = 1 against the closed-form sums of (u^2 + a^2)^{-1} and ^{-2};
        # k >= 2 against a direct |l| < 3000 replica sum over the symbol
        p = SplineParams(alpha, k)
        xis = np.linspace(-np.pi, np.pi, 33)
        T, _ = replica_power(p, xis, tol)
        if k == 1:
            expected = replica_power_k1_closed(alpha, xis)
        else:
            acc = np.zeros_like(xis)
            for ell in range(1, 3000):
                acc += eval_green_hat(p, xis - 2 * np.pi * ell) ** 2
                acc += eval_green_hat(p, xis + 2 * np.pi * ell) ** 2
            expected = acc / np.asarray(periodized_green_hat(p, xis, 1e-13)) ** 2
        assert np.max(np.abs(T - expected)) <= tol

    def test_replica_power_one_symbol_per_node(self, monkeypatch):
        # one P and one order-2k sum per node, counted at every module that
        # binds lattice_sum; M is the order-2k sum's explicit replicas
        calls = []

        def counting(xi, alpha, order, tol=1e-12, skip_center=False):
            calls.append((order, skip_center, np.size(xi)))
            return lattice_sum(xi, alpha, order, tol, skip_center)

        for name, mod in list(sys.modules.items()):
            if name == "cardspline" or name.startswith("cardspline."):
                for key, val in list(vars(mod).items()):
                    if val is lattice_sum:
                        monkeypatch.setattr(mod, key, counting)
        nodes = np.linspace(-np.pi, np.pi, 48)
        T, M = replica_power(SplineParams(1.0, 1), nodes, 1e-10)
        assert sorted(calls) == [(1, False, 48), (2, True, 48)]
        assert 4 <= M < 32

    def test_unreachable_replica_tolerance_raises_first(self, monkeypatch):
        # the Euler-Maclaurin tail reaches tol 1e-20 at k = 1 with a few
        # hundred shifts; tolerances that are not positive are refused
        # before a single lattice sum
        xis = np.linspace(-np.pi, np.pi, 33)
        T, M = replica_power(SplineParams(1.0, 1), xis, 1e-20)
        assert np.max(np.abs(T - replica_power_k1_closed(1.0, xis))) < 1e-14
        assert M < 1000
        sums = []

        def counting(*args, **kwargs):
            sums.append(args)
            return lattice_sum(*args, **kwargs)

        monkeypatch.setattr(ba, "lattice_sum", counting)
        for tol in (0.0, -1.0):
            with pytest.raises(ToleranceUnreachableError):
                replica_power(SplineParams(1.0, 2), 0.5, tol)
        assert sums == []

    def test_nan_tolerance_raises_first(self, monkeypatch):
        # NaN compares false with every bound: _error_integrals refuses it at
        # the top, before any lattice sum or quadrature panel
        sums = []

        def counting(*args, **kwargs):
            sums.append(args)
            return lattice_sum(*args, **kwargs)

        monkeypatch.setattr(ba, "lattice_sum", counting)
        with pytest.raises(ToleranceUnreachableError):
            l2_error_spectral(SplineParams(1.0, 1), target_gallery("half-band"), math.nan)
        with pytest.raises(ToleranceUnreachableError):
            replica_power(SplineParams(1.0, 2), 0.5, math.nan)
        assert sums == []


class TestMpmathReference:
    """S, T and the error integrals against direct lattice sums at 40 digits."""

    @pytest.mark.parametrize("alpha,k", [(1.0, 12), (0.25, 6)])
    def test_deviation_and_replica_power_relative(self, alpha, k):
        # S falls to ~1e-19 at xi = 0 here, where 1 - sqrt(2 pi) Lhat_k
        # would keep none of its digits
        p = SplineParams(alpha, k)
        xis = np.linspace(-np.pi, np.pi, 33)
        ref = deviation_replica_mp(alpha, k, xis)
        S_ref = np.array([float(S) for S, _ in ref])
        T_ref = np.array([float(T) for _, T in ref])
        T, _ = replica_power(p, xis)
        assert np.max(np.abs(interp_deviation(p, xis) / S_ref - 1.0)) < 1e-11
        assert np.max(np.abs(T / T_ref - 1.0)) < 1e-11

    @pytest.mark.parametrize("k", [9, 10])
    def test_half_band_error_and_bound(self, k):
        # the reference evaluates the same Gauss rule the package converged on
        p = SplineParams(1.0, k)
        t = target_gallery("half-band")
        exact, s2, quad_res, _ = ba._error_integrals(p, t, 1e-10)
        nodes, w = ba._panel_nodes(t.pieces, quad_res // (24 * len(t.pieces)))
        e_ref, b_ref = l2_error_and_bound_mp(1.0, k, nodes, w, t.spectrum(nodes))
        assert math.sqrt(exact) == pytest.approx(e_ref, rel=1e-13, abs=0)
        assert math.sqrt(2.0 * s2) == pytest.approx(b_ref, rel=1e-13, abs=0)


class TestL2Error:
    def test_zero_target(self):
        assert l2_error_spectral(SplineParams(1.0, 2), zero_target()) == 0.0
        assert l2_error_bound(SplineParams(1.0, 2), zero_target()) == 0.0

    def test_sinc_time_domain_cross_check(self):
        # I_k[sinc] = L_k, so the spectral error must equal the time-domain
        # L2 distance; quadrature over |x| <= 60 plus the exact sinc^2 tail
        from cardspline.cardinal_interpolation import build_fundamental, eval_fundamental
        t = target_gallery("sinc")
        for k in [1, 2]:
            p = SplineParams(1.0, k)
            spectral = l2_error_spectral(p, t, 1e-11)
            L = build_fundamental(p, 1e-12)
            xs = np.linspace(0.0, 60.0, 60 * 64 + 1)
            diff = np.asarray(eval_fundamental(L, xs)) - sinc_time(xs)
            tail = 1.0 / (np.pi ** 2 * 60.0)
            td = math.sqrt(2.0 * float(np.trapezoid(diff * diff, xs)) + tail)
            assert abs(td - spectral) / spectral < 1e-4

    def test_bound_dominates_and_sqrt2_cap(self):
        t = target_gallery("sinc")
        p = SplineParams(1.0, 1)
        e = l2_error_spectral(p, t)
        b = l2_error_bound(p, t)
        assert 1.0 <= b / e <= math.sqrt(2.0)

    @pytest.mark.parametrize("name", ["sinc", "triangle-spectrum",
                                      "bump-spectrum", "half-band"])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_monotone_decrease(self, name, alpha):
        t = target_gallery(name)
        vals = [l2_error_spectral(SplineParams(alpha, k), t, 1e-10)
                for k in range(1, 9)]
        assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))

    def test_panel_cap_raises(self):
        with pytest.raises(QuadratureConvergenceError, match="256 panels"):
            l2_error_spectral(SplineParams(1.0, 3), straddling_band(), 1e-10)

    def test_error_report_fields(self):
        p = SplineParams(1.0, 2)
        rep = error_report(p, target_gallery("triangle-spectrum"))
        assert rep.l2_error <= rep.l2_bound
        assert rep.sup_error_grid >= 0
        assert rep.ell_truncation >= 4
        assert rep.quadrature_resolution > 0

    def test_error_report_validation(self):
        with pytest.raises(ValueError):
            ErrorReport(params=SplineParams(1.0, 1), target="x", l2_error=2.0,
                        l2_bound=1.0, sup_error_grid=0.0,
                        quadrature_resolution=1, ell_truncation=4)


class TestSupError:
    def test_zero_target(self):
        assert sup_error_grid(SplineParams(1.0, 2), zero_target(), 5.0, 11) == 0.0

    def test_parity_two_points(self):
        # even target, even interpolant: the two symmetric grid points agree
        t = target_gallery("triangle-spectrum")
        p = SplineParams(1.0, 2)
        from cardspline.cardinal_interpolation import build_fundamental
        L = build_fundamental(p, 1e-10)
        v = sup_error_grid(p, t, 3.0, 2, L=L)
        assert v >= 0.0

    def test_trend_k8_below_k1(self):
        t = target_gallery("sinc")
        s1 = sup_error_grid(SplineParams(1.0, 1), t, 5.0, 101)
        s8 = sup_error_grid(SplineParams(1.0, 8), t, 5.0, 101)
        assert s8 < s1

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            sup_error_grid(SplineParams(1.0, 1), target_gallery("sinc"), 5.0, 1)
