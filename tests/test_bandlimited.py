"""Band-limited targets, aliasing envelope, and the spectral error machinery."""

import math
import sys

import numpy as np
import pytest

import cardspline.bandlimited_analysis as ba
from cardspline.bandlimited_analysis import (BandlimitedTarget, ErrorReport,
                                             aliasing_envelope, error_sweep,
                                             gallery_names, l2_error_bound,
                                             l2_error_spectral,
                                             replica_power, sup_error_grid,
                                             target_gallery)
from cardspline.cardinal_interpolation import _table_sequence, build_fundamental
from cardspline.errors import (QuadratureConvergenceError,
                               ToleranceUnreachableError, UnknownTargetError)
from cardspline.greens_kernel import SplineParams, eval_green_hat
from cardspline.spectral_symbol import (fundamental_hat, lattice_sum,
                                        periodized_green_hat)
from oracles import (bits, deviation_replica_mp, half_band_time,
                     l2_error_and_bound_mp, panel_nodes_loop,
                     replica_power_k1_closed, sinc_time,
                     triangle_time)

SQRT_2PI = math.sqrt(2.0 * math.pi)


def zero_target() -> BandlimitedTarget:
    return BandlimitedTarget(name="zero",
                             spectrum=lambda xi: np.zeros_like(np.asarray(xi, dtype=float)),
                             pieces=((-np.pi, np.pi),))


def straddling_band() -> BandlimitedTarget:
    """A flat spectrum on |xi| <= 3 declared as one smooth piece over
    [-pi, pi]: the jumps at +-3 never fall on a panel edge, so the Gauss
    panels converge only like 1/panels."""
    c = 1.0 / SQRT_2PI
    return BandlimitedTarget(
        name="straddled-band",
        spectrum=lambda xi: np.where(np.abs(np.asarray(xi, dtype=float)) <= 3.0, c, 0.0),
        pieces=((-np.pi, np.pi),))


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

    @pytest.mark.parametrize("name", ["sinc", "triangle-spectrum", "bump-spectrum",
                                      "half-band"])
    def test_time_eval_does_not_depend_on_the_batch(self, name):
        # a value depends on its point alone: the integers of a short batch,
        # of a long one and one at a time all agree bit for bit
        t = target_gallery(name)
        short = t.time_eval(np.arange(-12.0, 13.0))
        np.testing.assert_array_equal(bits(short), bits(t.time_eval(np.arange(-60.0, 61.0))[48:73]))
        np.testing.assert_array_equal(bits(short), bits([t.time_eval(float(j))
                                                         for j in range(-12, 13)]))
        xs = np.random.default_rng(3).uniform(-40.0, 40.0, 50)
        np.testing.assert_array_equal(bits(t.time_eval(xs)[::-1]), bits(t.time_eval(xs[::-1])))
        assert t.time_eval(np.array([])).shape == (0,)

    @pytest.mark.parametrize("name,closed", [("sinc", sinc_time),
                                             ("triangle-spectrum", triangle_time),
                                             ("half-band", half_band_time)])
    def test_time_eval_closed_forms_far_out(self, name, closed):
        # each power-of-two class of |x| keeps enough panels out to |x| = 200
        xs = np.concatenate([np.linspace(-200.0, 200.0, 161), np.arange(-200.0, 201.0, 25.0)])
        np.testing.assert_allclose(target_gallery(name).time_eval(xs), closed(xs), atol=1e-12)

    @pytest.mark.parametrize("pieces", [((-np.pi, np.pi),), ((-np.pi, 0.0), (0.0, np.pi)),
                                        ((-np.pi / 2, np.pi / 2),), ((-3.0, -1.0), (0.5, 2.5))])
    def test_panel_nodes_bitwise_loop(self, pieces):
        for panels in (1, 2, 16, 100, 256):
            for got, want in zip(ba._panel_nodes(pieces, panels),
                                 panel_nodes_loop(pieces, panels, ba._GAUSS_ORDER)):
                np.testing.assert_array_equal(bits(got), bits(want))

    def test_l2_norms(self):
        assert target_gallery("sinc").l2_norm_sq == pytest.approx(1.0, rel=1e-12, abs=0)
        assert target_gallery("triangle-spectrum").l2_norm_sq == \
            pytest.approx(1.0 / 3.0, rel=1e-12, abs=0)
        assert target_gallery("half-band").l2_norm_sq == pytest.approx(0.5, rel=1e-12, abs=0)


def sample_integers(target: BandlimitedTarget, J: int):
    """The target's integer samples |j| <= J as error_sweep builds them."""
    js = np.arange(-J, J + 1)
    return _table_sequence(f"{target.name}-samples", js, target.time_eval(js))


class TestSampleIntegers:
    def test_sinc_delta_sequence(self):
        data = sample_integers(target_gallery("sinc"), 10)
        js = np.arange(-10, 11)
        np.testing.assert_allclose(data.values(js), (js == 0).astype(float),
                                   atol=1e-12)
        assert data.growth.beta == 0.0

    def test_triangle_single_sample(self):
        data = sample_integers(target_gallery("triangle-spectrum"), 0)
        assert data.values(np.array([0]))[0] == pytest.approx(0.5, abs=1e-12)


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
        S, _, _ = ba._deviation_split(p, xis, 1e-12, 1e-12)
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
        # the error integrals make one lattice pass per node set, on the
        # nodes of each panel level, and no separate lattice sum at all; M
        # is the pass's order-2k shift count
        passes, sums = [], []

        def counting(params, xi, s_tol, t_tol):
            passes.append(np.array(xi))
            return split(params, xi, s_tol, t_tol)

        def any_sum(*args, **kwargs):
            sums.append(args)
            return lattice_sum(*args, **kwargs)

        split = ba._deviation_split
        monkeypatch.setattr(ba, "_deviation_split", counting)
        for name, mod in list(sys.modules.items()):
            if name == "cardspline" or name.startswith("cardspline."):
                for key, val in list(vars(mod).items()):
                    if val is lattice_sum:
                        monkeypatch.setattr(mod, key, any_sum)
        t = target_gallery("triangle-spectrum")
        _, _, quad_res, M = ba._error_integrals(SplineParams(1.0, 1), t, 1e-10)
        levels = quad_res // (24 * len(t.pieces))
        # levels 2 and 4 share the first pass, and each later level has its own
        want = [np.concatenate([ba._panel_nodes(t.pieces, 2)[0], ba._panel_nodes(t.pieces, 4)[0]])]
        want += [ba._panel_nodes(t.pieces, 2 ** i)[0] for i in range(3, levels.bit_length())]
        assert len(passes) == len(want)
        for got, nodes in zip(passes, want):
            np.testing.assert_array_equal(got, nodes)
        assert sums == []
        assert 4 <= M < 32
        passes.clear()
        T, M_view = replica_power(SplineParams(1.0, 1), np.linspace(-np.pi, np.pi, 48), 1e-10)
        assert len(passes) == 1 and 4 <= M_view < 32

    @pytest.mark.parametrize("alpha,k,name", [(1.0, 5, "half-band"), (2.0, 3, "sinc"),
                                              (1.0, 12, "triangle-spectrum"),
                                              (0.5, 4, "bump-spectrum")])
    def test_four_panel_row_makes_one_pass(self, monkeypatch, alpha, k, name):
        # no row stops before 4 panels per piece, so levels 2 and 4 go
        # through one lattice pass; a row that stops there makes no other,
        # and its integrals keep the bits of one pass per level
        passes = []

        def counting(params, xi, s_tol, t_tol):
            passes.append(len(xi))
            return split(params, xi, s_tol, t_tol)

        split = ba._deviation_split
        p, t = SplineParams(alpha, k), target_gallery(name)
        monkeypatch.setattr(ba, "_deviation_split", counting)
        exact, s2, quad_res, M = ba._error_integrals(p, t, 1e-10)
        assert quad_res == 4 * 24 * len(t.pieces)
        assert passes == [6 * 24 * len(t.pieces)]
        nodes, w = ba._panel_nodes(t.pieces, 4)
        S, T, M4 = split(p, nodes, ba._S_TOL, 1e-10 / t.l2_norm_sq)
        gh2 = np.asarray(t.spectrum(nodes)) ** 2
        np.testing.assert_array_equal(
            bits([exact, s2]), bits([np.dot(w, gh2 * (S * S + T)), np.dot(w, gh2 * S * S)]))
        assert M == M4

    def test_fused_pass_counts_no_fewer_shifts(self, monkeypatch):
        # both tails of the pass start at the largest of the three counts
        # the separate sums certify: P^{!=0} at s_tol, P and S_2k^{!=0} at
        # t_tol / 4; the count reported is the order-2k one
        from cardspline.spectral_symbol import _choose_shift_count, _em_tails
        tails = []
        monkeypatch.setattr(ba, "_em_tails", lambda xr, a, orders, M:
                            tails.append((orders, M)) or _em_tails(xr, a, orders, M))
        for alpha, k in [(1.0, 1), (0.5, 2), (2.0, 6)]:
            p = SplineParams(alpha, k)
            e_pi = abs(eval_green_hat(p, np.pi))
            counts = [_choose_shift_count(alpha, k, 1e-14 * e_pi),
                      _choose_shift_count(alpha, k, 0.25 * 2e-10 * e_pi),
                      _choose_shift_count(alpha, 2 * k, 0.25 * 2e-10 * e_pi * e_pi)]
            tails.clear()
            _, _, M = ba._deviation_split(p, np.linspace(-np.pi, np.pi, 5), 1e-14, 2e-10)
            # both orders' tails in one call
            assert tails == [((k, 2 * k), max(counts))] and M == counts[2]

    def test_unreachable_replica_tolerance_raises_first(self, monkeypatch):
        # the Euler-Maclaurin tail reaches tol 1e-20 at k = 1 with a few
        # hundred shifts; tolerances that are not positive are refused
        # before a single lattice pass
        xis = np.linspace(-np.pi, np.pi, 33)
        T, M = replica_power(SplineParams(1.0, 1), xis, 1e-20)
        assert np.max(np.abs(T - replica_power_k1_closed(1.0, xis))) < 1e-14
        assert M < 1000
        passes = []
        monkeypatch.setattr(ba, "_em_tails", lambda *a: passes.append(a))
        for tol in (0.0, -1.0):
            with pytest.raises(ToleranceUnreachableError):
                replica_power(SplineParams(1.0, 2), 0.5, tol)
            with pytest.raises(ToleranceUnreachableError):
                ba._deviation_split(SplineParams(1.0, 2), 0.5, tol, tol)
            with pytest.raises(ToleranceUnreachableError):
                l2_error_spectral(SplineParams(1.0, 2), target_gallery("sinc"), tol)
        assert passes == []

    def test_nan_tolerance_raises_first(self, monkeypatch):
        # NaN compares false with every bound: _error_integrals refuses it at
        # the top, and the lattice pass at its own, before any shift count,
        # lattice term or quadrature panel
        calls = []

        def counting(name):
            return lambda *args, **kwargs: calls.append(name)

        monkeypatch.setattr(ba, "_deviation_split", counting("pass"))
        monkeypatch.setattr(ba, "_panel_nodes", counting("panels"))
        with pytest.raises(ToleranceUnreachableError):
            l2_error_spectral(SplineParams(1.0, 1), target_gallery("half-band"), math.nan)
        assert calls == []
        monkeypatch.undo()
        monkeypatch.setattr(ba, "_choose_shift_count", counting("count"))
        monkeypatch.setattr(ba, "_em_tails", counting("tails"))
        for tols in [(math.nan, 1e-10), (1e-12, math.nan)]:
            with pytest.raises(ToleranceUnreachableError):
                ba._deviation_split(SplineParams(1.0, 2), 0.5, *tols)
        with pytest.raises(ToleranceUnreachableError):
            replica_power(SplineParams(1.0, 2), 0.5, math.nan)
        assert calls == []


class TestMpmathReference:
    """S, T and the error integrals against direct lattice sums at 40 digits."""

    @pytest.mark.parametrize("alpha,k", [(1.0, 12), (0.25, 6), (2.0, 8), (0.5, 6)])
    def test_deviation_and_replica_power_relative(self, alpha, k):
        # S falls to ~1e-19 at xi = 0 here, where 1 - sqrt(2 pi) Lhat_k
        # would keep none of its digits; the views and the pass with the
        # error integrals' split of tolerances all hold
        p = SplineParams(alpha, k)
        xis = np.linspace(-np.pi, np.pi, 33)
        ax, inv = np.unique(np.abs(xis), return_inverse=True)   # S, T are even
        ref = deviation_replica_mp(alpha, k, ax)
        S_ref = np.array([float(S) for S, _ in ref])[inv]
        T_ref = np.array([float(T) for _, T in ref])[inv]
        T, _ = replica_power(p, xis)
        S2, T2, _ = ba._deviation_split(p, xis, 1e-12, 2e-10)
        for S, T in [(ba._deviation_split(p, xis, 1e-12, 1e-12)[0], T), (S2, T2)]:
            assert np.max(np.abs(S / S_ref - 1.0)) < 1e-11
            assert np.max(np.abs(T / T_ref - 1.0)) < 1e-11

    @pytest.mark.parametrize("name", ["sinc", "triangle-spectrum", "bump-spectrum",
                                      "half-band"])
    def test_orders_one_and_two_on_own_nodes(self, name):
        # the closed-form lattice sums judge k = 1, 2, where the term-by-term
        # reference is impractical
        t = target_gallery(name)
        for k in (1, 2):
            exact, s2, quad_res, _ = ba._error_integrals(SplineParams(1.0, k), t, 1e-10)
            nodes, w = ba._panel_nodes(t.pieces, quad_res // (24 * len(t.pieces)))
            e_ref, b_ref = l2_error_and_bound_mp(1.0, k, nodes, w, t.spectrum(nodes))
            assert math.sqrt(exact) == pytest.approx(e_ref, rel=5e-14, abs=0)
            assert math.sqrt(2.0 * s2) == pytest.approx(b_ref, rel=5e-14, abs=0)

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
        rep, = error_sweep(target_gallery("triangle-spectrum"), [build_fundamental(p)])
        assert rep.l2_error <= rep.l2_bound
        assert rep.sup_error_grid >= 0
        assert rep.ell_truncation >= 4
        assert rep.quadrature_resolution > 0

    def test_error_report_validation(self):
        with pytest.raises(ValueError):
            ErrorReport(params=SplineParams(1.0, 1), target="x", l2_error=2.0,
                        l2_bound=1.0, sup_error_grid=0.0,
                        quadrature_resolution=1, ell_truncation=4,
                        cardinality_error=0.0, sup_window=1, decay_rate=None,
                        cond_B=1.0)


class TestErrorSweep:
    def test_matches_one_order_at_a_time(self):
        # each order's slice of the shared samples gives the report a sweep
        # of that order alone gives, bit for bit, and its sup error is
        # sup_error_grid's on the samples out to 5 + J + 2, J its window
        t = target_gallery("half-band")
        Ls = [build_fundamental(SplineParams(1.0, k), 1e-10) for k in (1, 2, 4)]
        reports = error_sweep(t, iter(Ls), 1e-10)
        assert [r.params for r in reports] == [L.params for L in Ls]
        xs = np.linspace(-5.0, 5.0, 101)
        for L, rep in zip(Ls, reports):
            assert rep == error_sweep(t, [L], 1e-10)[0]
            data = sample_integers(t, 5 + rep.sup_window + 2)
            assert rep.sup_error_grid == sup_error_grid(L, data, xs, t.time_eval(xs))

    def test_empty_sweep(self):
        assert error_sweep(target_gallery("sinc"), iter(())) == []


class TestSupError:
    def test_zero_target(self):
        rep, = error_sweep(zero_target(), [build_fundamental(SplineParams(1.0, 2))])
        assert rep.sup_error_grid == 0.0

    def test_parity_two_points(self):
        # even target, even interpolant: the two symmetric points agree
        t = target_gallery("triangle-spectrum")
        L = build_fundamental(SplineParams(1.0, 2), 1e-10)
        data = sample_integers(t, 20)
        left, right = (sup_error_grid(L, data, np.array([x]), t.time_eval(np.array([x])))
                       for x in (-3.3, 3.3))
        assert right > 0.0 and left == pytest.approx(right, rel=1e-12, abs=0)

    def test_trend_k8_below_k1(self):
        t = target_gallery("sinc")
        s1, s8 = (r.sup_error_grid for r in error_sweep(
            t, [build_fundamental(SplineParams(1.0, k)) for k in (1, 8)]))
        assert s8 < s1
