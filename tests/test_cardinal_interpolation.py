"""Fundamental function evaluation, windows, and cardinal interpolation."""

import math
import tracemalloc
import warnings
from functools import lru_cache

import mpmath
import numpy as np
import pytest

from cardspline import cardinal_interpolation
from cardspline.cardinal_interpolation import (GrowthModel, _solve_window,
                                               build_fundamental,
                                               eval_fundamental,
                                               interpolate_at,
                                               interpolate_grid,
                                               sequence_from_csv,
                                               sequence_from_rule,
                                               sequence_from_table)
from cardspline.errors import (DataFormatError, MissingDataError,
                               ParameterDomainError, UnknownBasisError,
                               WindowOverflowError)
from cardspline.greens_kernel import SplineParams, eval_green
from cardspline.spectral_symbol import CoefficientTable
from oracles import (INV_SQRT_2PI, eval_fundamental_direct,
                     eval_fundamental_spectral, fundamental_checks_four_calls,
                     fundamental_k1_closed, fundamental_mp,
                     interpolate_pointwise, solve_window_loop)

ALPHAS = [0.5, 1.0, 2.0]


@lru_cache(maxsize=None)
def L_of(alpha: float, k: int, tol: float = 1e-10):
    return build_fundamental(SplineParams(alpha, k), tol)


class TestBuildFundamental:
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_invariants_certified(self, alpha, k):
        L = L_of(alpha, k)
        if (alpha, k) != (0.5, 6):
            assert L.cardinality_ok
        # evenness is exact by construction
        xs = np.linspace(0.3, 8, 17)
        np.testing.assert_array_equal(eval_fundamental(L, xs),
                                      eval_fundamental(L, -xs))

    def test_rejects_bad_tol(self):
        # the one range of compute_coefficients and the CLI, whatever alpha
        # does to the table tolerance
        for params in (SplineParams(1.0, 1), SplineParams(1.0, 2), SplineParams(0.05, 2)):
            for tol in (1e-16, 1e-15, 0.05, math.nan):
                with pytest.raises(ParameterDomainError, match="tol must lie in"):
                    build_fundamental(params, tol)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_k1_closed_form(self, alpha):
        # L_1(x) = sinh(a(1-|x|))/sinh(a) inside [-1, 1], zero outside
        L = L_of(alpha, 1, 1e-12)
        xs = np.linspace(-3, 3, 301)
        want = fundamental_k1_closed(alpha, xs)
        assert np.max(np.abs(np.asarray(eval_fundamental(L, xs)) - want)) < 1e-9

    def test_k1_anchor(self):
        L = L_of(1.0, 1, 1e-12)
        assert eval_fundamental(L, 0.5) == pytest.approx(0.4434094, abs=1e-7)
        assert eval_fundamental(L, 3.0) == pytest.approx(0.0, abs=1e-10)

    def test_value_at_origin_is_one(self):
        for (a, k) in [(0.5, 2), (1.0, 4), (2.0, 6)]:
            assert eval_fundamental(L_of(a, k), 0.0) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("alpha,k", [(0.5, 2), (1.0, 3), (2.0, 4), (1.0, 6)])
    def test_positive_decay_rate(self, alpha, k):
        L = L_of(alpha, k)
        assert L.env_rate is not None and L.env_rate > 0
        # the amplitude is taken on [2, 15]: the envelope dominates there
        xs = np.linspace(2, 15, 261)
        vals = np.abs(np.asarray(eval_fundamental(L, xs)))
        env = L.env_amplitude * np.exp(-L.env_rate * xs)
        assert np.all(vals <= env * (1 + 1e-9))


    @pytest.mark.parametrize("alpha,k", [(1.0, 2), (1.0, 3), (1.0, 6), (1.0, 8),
                                         (1.0, 10), (0.5, 6), (0.25, 2), (0.25, 3),
                                         (0.25, 4), (0.25, 6), (2.0, 3), (2.0, 10),
                                         (1.0, 11), (1.0, 12), (2.0, 2), (0.5, 8),
                                         (4.0, 2)])
    def test_envelope_holds_out_to_the_knee(self, alpha, k):
        # the exact rate r and the amplitude taken on [2, 15] bound |L_k|
        # wherever the windows use it: out to the noise knee, past which the
        # synthesis noise floor dominates
        L = L_of(alpha, k)
        knee = cardinal_interpolation._noise_knee(L)
        xs = np.arange(2.0, knee, 0.01)
        vals = np.abs(np.asarray(eval_fundamental(L, xs)))
        env = L.env_amplitude * np.exp(-L.env_rate * xs) + L.noise_floor
        assert np.all(vals <= env), float(xs[np.argmax(vals > env)])

    @pytest.mark.parametrize("alpha,k", [(400.0, 2), (700.0, 5)])
    def test_envelope_below_the_double_range(self, alpha, k):
        # |L_k| underflows on all of [2, 15): amplitude 0, the knee at 1,
        # and one term each side of the center, whatever the data growth
        L = L_of(alpha, k)
        assert L.env_amplitude == 0.0
        assert cardinal_interpolation._noise_knee(L) == 1.0
        growth = sequence_from_rule("power-beta", alpha, beta=3.0).growth
        assert cardinal_interpolation._solve_window(L, 7, growth, 1e-12) == 1

@pytest.mark.slow
class TestSpectralOracle:
    def test_delta_at_origin(self):
        assert eval_fundamental_spectral(SplineParams(1.0, 1), 0.0) == \
            pytest.approx(1.0, abs=1e-7)

    def test_k1_half_point(self):
        v = eval_fundamental_spectral(SplineParams(1.0, 1), 0.5)
        assert v == pytest.approx(0.4434094, abs=1e-7)
        assert v == pytest.approx(math.sinh(0.5) / math.sinh(1.0), abs=1e-9)

    def test_k3_cardinality_at_one(self):
        assert eval_fundamental_spectral(SplineParams(1.0, 3), 1.0) == \
            pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_dual_construction_agreement(self, k):
        # spatial synthesis vs direct transform quadrature at random points
        rng = np.random.default_rng(2024 + k)
        xs = rng.uniform(-5.0, 5.0, 12)
        L = L_of(1.0, k)
        for x in xs:
            fast = eval_fundamental(L, float(x))
            slow = eval_fundamental_spectral(SplineParams(1.0, k), float(x))
            assert fast == pytest.approx(slow, abs=1e-7)


class TestSelectWindow:
    """The certified half width _solve_window gives polynomial-growth data
    in Y^beta at one center."""

    @staticmethod
    def window(L, center, beta, tol):
        return _solve_window(L, center, GrowthModel(beta=beta), tol)

    def test_monotone_in_beta(self):
        L = L_of(1.0, 2)
        assert self.window(L, 0, 2.0, 1e-8) >= self.window(L, 0, 0.0, 1e-8)

    def test_monotone_in_x(self):
        L = L_of(1.0, 3)
        assert self.window(L, 30, 2.0, 1e-8) >= self.window(L, 0, 2.0, 1e-8)

    def test_k2_regression_bound(self):
        # beta=0, tol=1e-8 at the origin resolves within a few dozen lattice steps
        J = self.window(L_of(1.0, 2), 0, 0.0, 1e-8)
        assert J <= 60
        assert J == 15   # regression value for the exact-rate envelope

    def test_compact_support_window(self):
        assert self.window(L_of(1.0, 1, 1e-12), 0, 5.0, 1e-10) == 1

    def test_overflow_on_slow_decay(self):
        # synthetic near-flat envelope: the window cap must trip
        from dataclasses import replace
        L = L_of(1.0, 2)
        L = replace(L, table=replace(L.table, decay_rate=1e-5), env_amplitude=1.0)
        assert L.env_rate == 1e-5
        with pytest.raises(WindowOverflowError):
            self.window(L, 0, 0.0, 1e-8)


class TestDataSequences:
    def test_table_roundtrip_and_zero_fill(self):
        seq = sequence_from_table({0: 1.0, 2: -3.0})
        np.testing.assert_array_equal(seq.values(np.array([0, 1, 2, 7])),
                                      [1.0, 0.0, -3.0, 0.0])

    def test_strict_table_raises(self):
        seq = sequence_from_table({0: 1.0}, zero_fill=False)
        with pytest.raises(MissingDataError):
            seq.values(np.array([1]))

    def test_unsorted_and_repeated_indices(self):
        # keys stored out of order, indices asked out of order and repeated
        table = {5: 2.0, -3: 1.5, 0: -1.0, 2: 4.0}
        js = np.array([2, -3, 7, 2, 0, -3, 5, -8, 5, 6])
        want = [4.0, 1.5, 0.0, 4.0, -1.0, 1.5, 2.0, 0.0, 2.0, 0.0]
        assert sequence_from_table(table).values(js).tolist() == want
        strict = sequence_from_table(table, zero_fill=False)
        stored = np.array([j in table for j in js.tolist()])
        assert strict.values(js[stored]).tolist() == np.array(want)[stored].tolist()
        with pytest.raises(MissingDataError, match="no sample at index 7 "):
            strict.values(js)
        with pytest.raises(MissingDataError, match="no sample at index 6 "):
            strict.values(js[::-1])
        assert sequence_from_table({}).values(js).tolist() == [0.0] * len(js)

    def test_duplicate_and_non_integer_indices(self):
        with pytest.raises(DataFormatError):
            sequence_from_table({0.5: 1.0})

    def test_indices_outside_int64_refused(self):
        edge = sequence_from_table({2 ** 63 - 1: 1.0, -2 ** 63: 2.0})
        assert edge.values(np.array([2 ** 63 - 1, -2 ** 63, 0])).tolist() == [1.0, 2.0, 0.0]
        for j in (2 ** 63, -2 ** 63 - 1, 1e19):
            with pytest.raises(DataFormatError, match="outside the int64 range"):
                sequence_from_table({0: 1.0, j: 2.0})

    def test_csv_reader(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("j,b_j\n0,1.0\n1,2.5\n-1,2.5\n")
        seq = sequence_from_csv(path)
        np.testing.assert_array_equal(seq.values(np.array([-1, 0, 1])),
                                      [2.5, 1.0, 2.5])

    def test_csv_duplicate_index(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("j,b_j\n1,1.0\n1,2.0\n")
        with pytest.raises(DataFormatError):
            sequence_from_csv(path)

    def test_csv_non_integer_index(self, tmp_path):
        path = tmp_path / "frac.csv"
        path.write_text("j,b_j\n0.25,1.0\n")
        with pytest.raises(DataFormatError):
            sequence_from_csv(path)

    def test_rule_registry(self):
        assert sequence_from_rule("delta", 1.0).values(np.array([0, 3])).tolist() == [1.0, 0.0]
        cosh = sequence_from_rule("cosh", 0.5)
        assert cosh.values(np.array([2]))[0] == pytest.approx(math.cosh(1.0))
        x2 = sequence_from_rule("x2exp-", 1.0)
        assert x2.values(np.array([3]))[0] == pytest.approx(9 * math.exp(-3.0))
        pw = sequence_from_rule("power-beta", 1.0, beta=2.0)
        assert pw.values(np.array([-3]))[0] == pytest.approx(16.0)

    def test_unknown_basis(self):
        with pytest.raises(UnknownBasisError):
            sequence_from_rule("nosuch", 1.0)

    @pytest.mark.parametrize("name,power,rule", [
        ("cosh", 0, lambda t: math.cosh(0.5 * t)),
        (" SINH ", 0, lambda t: math.sinh(0.5 * t)),
        ("exp+", 0, lambda t: math.exp(0.5 * t)),
        ("exp-", 0, lambda t: math.exp(-0.5 * t)),
        ("x0exp+", 0, lambda t: math.exp(0.5 * t)),
        ("xexp-", 1, lambda t: t * math.exp(-0.5 * t)),
        ("x12exp+", 12, lambda t: t ** 12 * math.exp(0.5 * t)),
        # a non-ASCII decimal digit reads as its value
        ("x\u0663exp+", 3, lambda t: t ** 3 * math.exp(0.5 * t))])
    def test_basis_grammar(self, name, power, rule):
        # power and growth as the character loop before the grammar gave them
        data, m = cardinal_interpolation._basis_sequence(name, 0.5)
        assert m == power
        assert data.growth == GrowthModel(beta=float(power), rate=0.5, amplitude=1.0)
        assert data.name == name.strip().lower()
        ts = [1.5, -2.0, 0.0, 7.25]
        assert data.values(np.array(ts)).tolist() == pytest.approx([rule(t) for t in ts],
                                                                   rel=1e-15, abs=0)
        assert sequence_from_rule(name, 0.5).values(np.array(ts)).tolist() == \
            data.values(np.array(ts)).tolist()

    @pytest.mark.parametrize("name", [
        "x\u00b2exp+", "x\u00b3exp-", "x" + "1" * 5000 + "exp+", "x" + "1" * 400 + "exp+",
        "3exp+", "x-1exp+", "xexp", "exp", "cosh+", "x2 exp+", "x2exp+-", "", "delta",
        "power-beta"])
    def test_basis_grammar_refusals(self, name):
        # names the grammar does not take, and powers past int() or a float
        with pytest.raises(UnknownBasisError, match="basis"):
            cardinal_interpolation._basis_sequence(name, 0.5)


class TestInterpolateAt:
    def test_sifting_identity(self):
        # delta data reproduce the fundamental function itself
        L = L_of(1.0, 2)
        delta = sequence_from_rule("delta", 1.0)
        for x in [0.3, 1.7, -2.2]:
            assert interpolate_at(L, delta, x, 1e-9) == \
                pytest.approx(eval_fundamental(L, x), abs=1e-9)

    def test_integer_fast_path(self):
        L = L_of(1.0, 3)
        data = sequence_from_table({-1: 4.0, 0: 2.0, 1: -1.0})
        assert interpolate_at(L, data, 1.0, 1e-10) == -1.0
        assert interpolate_at(L, data, 0.0, 1e-10) == 2.0

    def test_cosh_reproduction_small_alpha(self):
        # exponential data converge when the growth rate stays below the
        # fundamental-function decay rate
        L = L_of(0.25, 2)
        data = sequence_from_rule("cosh", 0.25)
        want = math.cosh(0.25 * 0.5)
        assert interpolate_at(L, data, 0.5, 1e-7) == pytest.approx(want, abs=1e-6)

    def test_cosh_reproduction_alpha1_regression(self):
        # at alpha=1, k=2 the double-precision floor sits near 4e-5
        L = L_of(1.0, 2)
        data = sequence_from_rule("cosh", 1.0)
        want = math.cosh(0.5)
        got = interpolate_at(L, data, 0.5, 1e-4)
        assert got == pytest.approx(want, abs=5e-4)

    @pytest.mark.xfail(strict=True, reason=(
        "float64 wall: the windowed synthesis at (alpha=1, k=2) floors near "
        "4e-5 absolute; the 1e-6 target needs lattice coefficients beyond "
        "double precision (decisions ledger)"))
    def test_cosh_reproduction_spec_tolerance(self):
        L = L_of(1.0, 2)
        data = sequence_from_rule("cosh", 1.0)
        got = interpolate_at(L, data, 0.5, 1e-6)
        assert got == pytest.approx(math.cosh(0.5), abs=1e-6)

    @pytest.mark.xfail(strict=True, raises=WindowOverflowError, reason=(
        "divergent series: at (alpha=1, k=3) the fundamental function decays "
        "like e^{-0.922|x|}, slower than the data growth e^{|j|}; the "
        "interpolation series for j e^j diverges (decisions ledger)"))
    def test_monomial_exponential_spec_example(self):
        L = L_of(1.0, 3)
        data = sequence_from_rule("xexp+", 1.0)
        got = interpolate_at(L, data, 1.5, 1e-5)
        assert got == pytest.approx(1.5 * math.exp(1.5), abs=1e-5)

    def test_monomial_exponential_convergent_regime(self):
        # the same basis element in the convergent regime hits the value
        L = L_of(0.25, 3)
        data = sequence_from_rule("xexp+", 0.25)
        want = 1.5 * math.exp(0.25 * 1.5)
        assert interpolate_at(L, data, 1.5, 1e-6) == pytest.approx(want, abs=1e-5)

    def test_divergent_growth_refused(self):
        L = L_of(2.0, 3)
        data = sequence_from_rule("sinh", 2.0)
        with pytest.raises(WindowOverflowError):
            interpolate_at(L, data, 0.5, 1e-6)

    def test_missing_data_error(self):
        L = L_of(1.0, 2)
        data = sequence_from_table({0: 1.0}, zero_fill=False)
        with pytest.raises(MissingDataError):
            interpolate_at(L, data, 0.5, 1e-8)


def seeded_table(seed: int):
    """b_j = r_j (1 + |j|)^beta on |j| <= 120, r_j uniform in [-1, 1] and
    beta in [1, 2]: the polynomial-growth data of the dense interp workload."""
    rng = np.random.default_rng(seed)
    beta = float(rng.uniform(1.0, 2.0))
    js = np.arange(-120, 121)
    b = rng.uniform(-1.0, 1.0, len(js)) * (1.0 + np.abs(js)) ** beta
    return sequence_from_table({int(j): float(v) for j, v in zip(js, b)})


def pointwise(L, data, xs, tol, best_effort=False):
    return np.array([interpolate_pointwise(L, data, float(x), tol, best_effort)
                     for x in xs])


def first_error(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


# the (alpha, k) cells of the build-eval benchmark that build_fundamental
# accepts at tol 1e-10; (0.25, 8) and (0.25, 10) are refused
EVAL_CELLS = [(a, k) for a in (0.25, 1.0, 2.0) for k in (1, 3, 6, 8, 10)
              if (a, k) not in ((0.25, 8), (0.25, 10))]


def assert_bitwise(got, want):
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestSharedKernelRows:
    """eval_fundamental shares kernel rows between points with one offset;
    it must give the bits of the direct per-point synthesis."""

    @pytest.fixture
    def kernel_points(self, monkeypatch):
        points = []
        green = cardinal_interpolation.eval_green

        def counting(kernel, x):
            points.append(np.size(x))
            return green(kernel, x)

        monkeypatch.setattr(cardinal_interpolation, "eval_green", counting)
        return points

    @pytest.mark.parametrize("alpha,k", EVAL_CELLS)
    def test_eval_grids_bitwise(self, alpha, k):
        L = L_of(alpha, k)
        for s in (-0.37, 0.0, 0.41):
            xs = np.linspace(-20.0 + s, 20.0 + s, 4001)
            assert_bitwise(eval_fundamental(L, xs), eval_fundamental_direct(L, xs))

    @pytest.mark.parametrize("alpha,k", [(0.25, 6), (1.0, 3), (1.0, 10), (2.0, 8)])
    def test_scattered_points_bitwise(self, alpha, k):
        L = L_of(alpha, k)
        rng = np.random.default_rng(int(10 * alpha) + k)
        for xs in (rng.uniform(-50.0, 50.0, 3000), rng.uniform(-1e4, 1e4, 50)):
            assert_bitwise(eval_fundamental(L, xs), eval_fundamental_direct(L, xs))

    @pytest.mark.parametrize("alpha,k", [(1.0, 1), (1.0, 2), (0.25, 6), (1.0, 10)])
    def test_huge_and_non_finite_points(self, alpha, k):
        # beyond 2^53 every double is an integer and an integer-part key
        # would overflow int64; NaN and inf give NaN
        L = L_of(alpha, k)
        xs = np.array([2.0 ** 53, -2.0 ** 53 - 2.0, 2.0 ** 60 + 2.0 ** 8, 1e300,
                       -1e300, 2.0 ** 52 + 0.5, np.nan, np.inf, -np.inf, 0.5,
                       np.nan, 3.25, 1e19, -2.0 ** 64])
        with np.errstate(over="ignore", invalid="ignore"):
            got = eval_fundamental(L, xs)
            assert_bitwise(got, eval_fundamental_direct(L, xs))
        assert np.all(np.isnan(got[6:9])) and np.isnan(got[10])

    @pytest.mark.parametrize("alpha,k", [(1.0, 3), (1.0, 10)])
    def test_gaps_repeats_and_signs_bitwise(self, alpha, k):
        # gaps inside a run (each narrower than a row), repeated points,
        # both signs of a point, signed zeros, NaN and inf
        L = L_of(alpha, k)
        xs = 0.25 + np.array([0.0, 1.0, 3.0, 7.0, 8.0, 20.0, 50.0, 51.0])
        xs = np.concatenate([xs, -xs, xs[:3], [0.0, -0.0, np.nan, np.inf, -np.inf, 0.25]])
        with np.errstate(invalid="ignore"):
            got = eval_fundamental(L, xs)
            assert_bitwise(got, eval_fundamental_direct(L, xs))

    @pytest.mark.parametrize("runs", [
        # spread 0, 1, 5, 12 and 30 (the last with gaps): a sparse block
        [(0.125, 1, 1), (0.25, 2, 1), (0.375, 6, 1), (0.5, 13, 1), (0.625, 11, 3)],
        # spread 24, 27 and 30, no gaps: a dense block
        [(0.125, 25, 1), (0.25, 28, 1), (0.375, 31, 1)]])
    def test_unequal_spreads_share_one_padded_block(self, kernel_points, runs):
        # the runs (offset, points, step) pad their rows to the longest: one
        # kernel pass
        L = L_of(1.0, 6)
        width = len(L.table.coeffs)
        xs = np.concatenate([t + np.arange(0.0, n * step, step) for t, n, step in runs])
        del kernel_points[:]    # the build's own pass
        got = eval_fundamental(L, xs)
        assert kernel_points == [len(runs) * (width + 30)]
        assert_bitwise(got, eval_fundamental_direct(L, xs))

    @pytest.mark.parametrize("alpha,k", [(1.0, 3), (1.0, 10)])
    def test_dense_and_sparse_runs_bitwise(self, monkeypatch, alpha, k):
        # runs whose points lie 1 .. 2J+1 apart: dense blocks contract every
        # window of the strided view (3-D), sparse ones only the points'
        # windows, copied out (2-D); both give each value its own ddot
        L = L_of(alpha, k)
        width = len(L.table.coeffs)
        shapes = []
        vecdot = np.vecdot

        def spy(x, *args, **kwargs):
            shapes.append(x.ndim)
            return vecdot(x, *args, **kwargs)

        monkeypatch.setattr(np, "vecdot", spy)
        for gap in (1, 2, 3, 9, width // 2, width):
            del shapes[:]
            xs = 0.25 + gap * (np.arange(2001.0) - 1000)
            got = eval_fundamental(L, xs)
            if gap != 2:
                assert set(shapes) == ({3} if gap == 1 else {2})
            assert_bitwise(got, eval_fundamental_direct(L, xs))

    def test_memory_per_point(self):
        # beside the values, |x| sorted and its sort order, and each run's
        # bounds, spread and place in spread order: every offset is distinct,
        # so every point is a run of its own
        L = L_of(1.0, 3)
        xs = np.linspace(-20.27, 19.73, 300_000)
        eval_fundamental(L, xs[:1000])
        tracemalloc.start()
        try:
            eval_fundamental(L, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 56 * len(xs)

    def test_empty_and_scalar(self):
        L = L_of(1.0, 3)
        got = eval_fundamental(L, np.array([]))
        assert got.shape == (0,)
        v = eval_fundamental(L, -2.75)
        assert isinstance(v, float)
        assert_bitwise(np.float64(v), np.float64(eval_fundamental_direct(L, -2.75)))

    def test_grid_shares_kernel_rows(self, kernel_points):
        # 4001 points x 343 table entries evaluated point by point before
        L = L_of(1.0, 10)
        width = len(L.table.coeffs)
        assert width == 343
        xs = np.linspace(-20.27, 19.73, 4001)
        eval_fundamental(L, xs)
        assert 0 < sum(kernel_points) <= len(xs) * width / 5

    def test_distinct_offsets_cost_at_most_twice_direct(self, kernel_points):
        L = L_of(1.0, 3)
        xs = np.random.default_rng(8).uniform(-40.0, 40.0, 20000)
        ax = np.abs(xs)
        assert len(np.unique(ax - np.floor(ax))) == len(xs)
        got = eval_fundamental(L, xs)
        assert sum(kernel_points) <= 2 * len(xs) * len(L.table.coeffs)
        assert_bitwise(got, eval_fundamental_direct(L, xs))


def exact_products(a, b):
    """(p, e) with p + e = a * b exactly, elementwise (Dekker's product with
    Veltkamp's split; exact while nothing overflows or underflows)."""
    def split(v):
        t = 134217729.0 * v
        hi = t - (t - v)
        return hi, v - hi

    p = a * b
    (ah, al), (bh, bl) = split(a), split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


class TestPositionInvariance:
    """Each L_k value is its own ddot, so it depends on x alone: not on the
    length of its array, its place in it or the points beside it."""

    @pytest.mark.parametrize("alpha,k", [(1.0, 3), (0.25, 3), (1.0, 10)])
    def test_any_batch_gives_the_full_grid_bits(self, alpha, k):
        L = L_of(alpha, k)
        xs = np.linspace(-20.27, 19.73, 4001)
        full = eval_fundamental(L, xs)
        assert_bitwise([eval_fundamental(L, x) for x in xs.tolist()], full)
        for n in range(1, 10):      # every N mod 4, at both ends
            assert_bitwise(eval_fundamental(L, xs[:n]), full[:n])
            assert_bitwise(eval_fundamental(L, xs[-n:]), full[-n:])
        pick = np.random.default_rng(k).permutation(len(xs))
        assert_bitwise(eval_fundamental(L, xs[pick]), full[pick])

    @pytest.mark.parametrize("alpha,k", EVAL_CELLS)
    def test_rounding_within_the_dot_product_bound(self, alpha, k):
        # Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1:
        # a computed dot product of n terms lies within gamma_n sum |c_j E_j|
        # of the exact one, here math.fsum of the exact products; one more
        # rounding each for the scale (2 pi)^{-1/2} and the rounded reference
        L = L_of(alpha, k)
        c, js = L.table.coeffs, L.table.indices.astype(float)
        n, u = len(c), 2.0 ** -53
        gamma = n * u / (1.0 - n * u)
        xs = np.linspace(-20.27, 19.73, 401)
        for x, v in zip(xs.tolist(), eval_fundamental(L, xs).tolist()):
            E = eval_green(L.kernel, abs(x) - js)
            p, e = exact_products(c, E)
            exact = math.fsum(p.tolist() + e.tolist())
            bound = gamma * float(np.sum(np.abs(p))) + 2.0 * u * abs(exact)
            assert abs(v - exact * INV_SQRT_2PI) <= bound * INV_SQRT_2PI


class TestInterpolateGrid:
    """The batched evaluator against the one-point-at-a-time reference."""

    def test_points_beyond_2_61_refused(self):
        # every window index, and the gap between any two, then fits in
        # int64; 2^61 itself still works
        L, data = L_of(1.0, 2), sequence_from_table({-1: 0.5, 0: 1.0, 1: -0.25})
        edge = np.array([2.0 ** 61, -2.0 ** 61, 2.0 ** 61 - 2.5])
        assert interpolate_grid(L, data, edge, 1e-10).tolist() == [0.0, 0.0, 0.0]
        for x in (2.0 ** 61 + 2.0 ** 9, -1e19, 9.3e18):
            with pytest.raises(DataFormatError, match=r"\|x\| <= 2\^61"):
                interpolate_grid(L, data, np.array([0.5, x]), 1e-10)

    @pytest.mark.xfail(strict=True, raises=WindowOverflowError, reason=(
        "spurious refusal: noise_floor = 1e-16 max|c| (4 peak + 1)/sqrt(2 pi) "
        "lets its + 1 term dominate the product scale max|c| peak at large "
        "alpha or k (floor 1.6e-13 at (10, 2) against a cardinality residual "
        "of 2.2e-16, 1.6e3 at (50, 6)), so the knee cuts every window short"))
    @pytest.mark.parametrize("alpha,k", [(10.0, 2), (50.0, 6)])
    def test_three_point_table_at_large_alpha(self, alpha, k):
        L = L_of(alpha, k)
        data = sequence_from_table({-1: 0.5, 0: 1.0, 1: -0.25})
        got = interpolate_grid(L, data, np.linspace(-2.0, 2.0, 9), 1e-10)
        assert got[::2].tolist() == [0.0, 0.5, 1.0, -0.25, 0.0]

    @pytest.fixture
    def solved_centers(self, monkeypatch):
        # every center handed to the window solver, one-center solves included
        centers = []
        solve = cardinal_interpolation._solve_windows

        def recording(L, given, *args, **kwargs):
            centers.extend(np.asarray(given).tolist())
            return solve(L, given, *args, **kwargs)

        monkeypatch.setattr(cardinal_interpolation, "_solve_windows", recording)
        return centers

    def test_readme_interp_config_bitwise(self):
        # cardspline interp --alpha 1 --k 2 --grid -5:5:101 (default tol)
        L = L_of(1.0, 2)
        data = seeded_table(1)
        xs = np.linspace(-5.0, 5.0, 101)
        np.testing.assert_array_equal(interpolate_grid(L, data, xs, 1e-10),
                                      pointwise(L, data, xs, 1e-10))

    def test_dense_alpha1_k3_bitwise(self):
        L = L_of(1.0, 3, 1e-9)
        data = seeded_table(2)
        xs = np.linspace(-30.35, 29.65, 1201)
        np.testing.assert_array_equal(interpolate_grid(L, data, xs, 1e-9),
                                      pointwise(L, data, xs, 1e-9))

    def test_small_zero_filled_table(self):
        # windows running off the table: the stored entries differ from
        # point to point
        L = L_of(1.0, 2)
        rng = np.random.default_rng(3)
        data = sequence_from_table({j: float(rng.standard_normal())
                                    for j in range(-8, 9)})
        xs = np.linspace(-12.0, 12.0, 97)
        assert_bitwise(interpolate_grid(L, data, xs, 1e-10),
                       pointwise(L, data, xs, 1e-10))

    def test_one_window_solve_per_center(self, solved_centers):
        L = L_of(1.0, 3)
        data = sequence_from_rule("power-beta", 1.0, beta=2.0)
        xs = np.linspace(-3.3, 3.3, 67)
        interpolate_grid(L, data, xs, 1e-8)
        # the window depends on its center only through |center|
        assert sorted(solved_centers) == [0, 1, 2, 3]

    def test_half_integers_round_to_even(self, solved_centers):
        L = L_of(1.0, 3)
        data = sequence_from_rule("power-beta", 1.0, beta=2.0)
        xs = np.array([2.5, 3.5, -2.5, -0.5, 0.5])
        got = interpolate_grid(L, data, xs, 1e-8)
        assert sorted(solved_centers) == [0, 2, 4]
        np.testing.assert_array_equal(got, pointwise(L, data, xs, 1e-8))

    def test_one_row_per_distinct_offset(self, monkeypatch):
        # one prefilter per distinct center, one kernel row per distinct
        # offset, and no L_k value
        L = L_of(1.0, 3, 1e-9)
        data = seeded_table(2)
        xs = np.linspace(-30.35, 29.65, 1201)
        ms = np.rint(xs)
        assert L.cardinality_ok
        t = xs - ms
        off = np.abs(t) >= 1e-12     # integers synthesize nothing
        offsets = np.unique(t[off])
        assert len(offsets) < 60
        J = cardinal_interpolation._solve_window(L, 0, data.growth, 1e-9)
        kernel_points, prefilters = [], []
        green, vecdot = cardinal_interpolation.eval_green, np.vecdot

        def counting(kernel, x):
            kernel_points.append(np.size(x))
            return green(kernel, x)

        def spy(x1, x2, *args, **kwargs):
            if np.ndim(x1) == 3:      # the windows of a block of centers
                prefilters.append(len(x1))
            return vecdot(x1, x2, *args, **kwargs)

        monkeypatch.setattr(cardinal_interpolation, "eval_green", counting)
        monkeypatch.setattr(cardinal_interpolation, "eval_fundamental", None)
        monkeypatch.setattr(np, "vecdot", spy)
        interpolate_grid(L, data, xs, 1e-9)
        assert sum(kernel_points) == len(offsets) * (2 * (J + L.table.half_width) + 1)
        assert sum(prefilters) == len(np.unique(ms[off]))

    def test_batch_size_does_not_change_bits(self, monkeypatch):
        # the memory budget splits the work into blocks, never a sum
        L = L_of(1.0, 3, 1e-9)
        data = seeded_table(2)
        xs = np.linspace(-30.35, 29.65, 1201)
        grid = np.linspace(-20.27, 19.73, 401)

        def results():
            checks = build_fundamental(SplineParams(1.0, 6), 1e-10)
            return np.concatenate([
                interpolate_grid(L, data, xs, 1e-9), eval_fundamental(L, grid),
                [checks.cardinality_error, checks.env_rate, checks.env_amplitude]])

        want = results()
        for budget in (1, 97, cardinal_interpolation._GATHER_ELEMS):
            monkeypatch.setattr(cardinal_interpolation, "_GATHER_ELEMS", budget)
            assert_bitwise(results(), want)

    @pytest.mark.parametrize("budget", [1, 97, 400, 2000, None])
    def test_long_run_cut_into_blocks(self, monkeypatch, budget):
        # 5000 points of one offset in unit steps make one run, whose row
        # is cut wherever it would outgrow the budget
        L = L_of(1.0, 10)
        width = 2 * L.table.half_width + 1
        budget = budget or cardinal_interpolation._GATHER_ELEMS
        monkeypatch.setattr(cardinal_interpolation, "_GATHER_ELEMS", budget)
        sizes = []
        green = cardinal_interpolation.eval_green

        def counting(kernel, x):
            sizes.append(np.size(x))
            return green(kernel, x)

        monkeypatch.setattr(cardinal_interpolation, "eval_green", counting)
        xs = 0.5 + np.arange(5000.0)
        got = eval_fundamental(L, xs)
        assert max(sizes) <= max(budget, width)
        # every kernel value of the run's one row, split at most once per block
        assert sum(sizes) <= width + len(xs) - 1 + (len(sizes) - 1) * width
        assert_bitwise(got, eval_fundamental_direct(L, xs))

    def test_permuted_grid_with_repeats(self):
        L = L_of(1.0, 3, 1e-9)
        data = seeded_table(2)
        xs = np.linspace(-30.35, 29.65, 1201)
        vals = interpolate_grid(L, data, xs, 1e-9)
        pick = np.random.default_rng(5).permutation(len(xs))
        pick = np.concatenate([pick, pick[:300], pick[:7]])
        np.testing.assert_array_equal(interpolate_grid(L, data, xs[pick], 1e-9),
                                      vals[pick])
        # random subsets, the reversed grid and single points: a value
        # depends on x alone, not on the centers and offsets beside it
        rng = np.random.default_rng(6)
        for sub in [rng.choice(len(xs), n, replace=False) for n in (2, 9, 150)] + [
                np.arange(len(xs))[::-1], [0], [len(xs) // 2 + 3]]:
            assert_bitwise(interpolate_grid(L, data, xs[sub], 1e-9), vals[sub])

    def test_memory_does_not_grow_with_the_windows(self):
        # distinct offsets everywhere: one kernel row per point, formed block
        # by block rather than as one points x row matrix
        L = L_of(1.0, 2)
        data = seeded_table(6)
        xs = np.random.default_rng(6).uniform(-40.0, 40.0, 20000)
        Jmax = max(cardinal_interpolation._solve_window(L, int(m), data.growth, 1e-10)
                   for m in np.unique(np.abs(np.rint(xs))))
        tracemalloc.start()
        try:
            interpolate_grid(L, data, xs, 1e-10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a points x window matrix of L_k values alone would take the full bound
        assert peak < len(xs) * (2 * Jmax + 1) * 8 / 2

    def test_flat_growth_solves_one_window(self, solved_centers):
        # tables carry a flat growth bound, whose log_bound is the same
        # constant at every center: one solve serves every point
        L = L_of(1.0, 3, 1e-9)
        data = seeded_table(2)
        assert (data.growth.beta, data.growth.rate) == (0.0, 0.0)
        xs = np.linspace(-30.35, 29.65, 1201)
        got = interpolate_grid(L, data, xs, 1e-9)
        assert solved_centers == [0]
        del solved_centers[:]
        delta = sequence_from_rule("delta", 1.0)
        interpolate_grid(L, delta, np.array([-7.5, 12.25, 3.0, 40.4]), 1e-9)
        assert solved_centers == [8]   # the smallest |round(x)|, as before
        del solved_centers[:]
        # the per-point solves give the same widths and bits
        assert_bitwise(got, pointwise(L, data, xs, 1e-9))
        assert len({abs(c) for c in solved_centers}) == 31

    def test_flat_growth_refuses_as_before(self):
        # a tolerance below the floor: the one solve raises what the first
        # of the per-point solves raised
        L = L_of(1.0, 3)
        data = sequence_from_table({0: 1e12, 3: -2.0})
        xs = np.array([40.5, 0.25, -3.75])
        want = first_error(lambda: [interpolate_pointwise(L, data, float(x), 1e-14)
                                    for x in xs])
        assert want[0] is WindowOverflowError
        assert first_error(interpolate_grid, L, data, xs, 1e-14) == want

    def test_gather_memory_does_not_grow_with_the_points(self):
        # 48,060 points on 8 non-integer offsets: the prefilters and kernel
        # rows are gathered a block of points at a time, not as one points x
        # row matrix
        L = L_of(1.0, 2)
        data = seeded_table(6)
        xs = np.tile(np.arange(-400, 401) / 8.0, 60)
        J = cardinal_interpolation._solve_window(L, 0, data.growth, 1e-10)
        tracemalloc.start()
        try:
            interpolate_grid(L, data, xs, 1e-10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(xs) * (2 * J + 1) * 8 / 2

    def test_samples_near_the_double_limit(self):
        # each window is scaled by a power of two before its prefilter, so
        # samples 2^1020 times larger give values 2^1020 times larger, bit
        # for bit, where b_j c_i alone would overflow
        L = L_of(1.0, 3)
        rng = np.random.default_rng(11)
        keys = range(-80, 81)
        small = rng.uniform(0.5, 2.0, len(keys)) * rng.choice([-1.0, 1.0], len(keys))
        huge = sequence_from_table(dict(zip(keys, np.ldexp(small, 1020))))
        assert float(np.max(np.abs(huge.table[1]))) * float(np.max(L.table.coeffs)) == math.inf
        xs = np.linspace(-30.3, 30.3, 241)
        # tolerances below the floor: both windows clip at the knee
        base = interpolate_grid(L, sequence_from_table(dict(zip(keys, small))), xs,
                                1e-15, best_effort=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = interpolate_grid(L, huge, xs, 1e-15 * 2.0 ** 1020, best_effort=True)
        assert_bitwise(got, np.ldexp(base, 1020))
        assert_bitwise(got, pointwise(L, huge, xs, 1e-15 * 2.0 ** 1020, best_effort=True))

    def test_integer_points_use_cardinality(self, solved_centers):
        L = L_of(1.0, 3)
        assert L.cardinality_ok
        data = sequence_from_table({-1: 4.0, 0: 2.0, 1: -1.0})
        got = interpolate_grid(L, data, np.array([-1.0, 0.0, 1.0 + 1e-13, 7.0]))
        assert got.tolist() == [4.0, 2.0, -1.0, 0.0]
        assert solved_centers == []

    def test_flagged_fundamental_sums_at_integers(self):
        # without a certified delta property integers take the full sum
        L = L_of(0.5, 6)
        assert not L.cardinality_ok
        data = sequence_from_rule("power-beta", 0.5, beta=1.0)
        xs = np.array([-2.0, 0.0, 1.0, 1.5])
        got = interpolate_grid(L, data, xs, 1e-6)
        assert_bitwise(got, pointwise(L, data, xs, 1e-6))
        assert got[1] != 1.0

    def test_empty_table_gives_zeros(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("j,b_j\n")
        data = sequence_from_csv(path)
        got = interpolate_grid(L_of(1.0, 2), data, np.linspace(-3.0, 3.0, 13))
        assert got.tolist() == [0.0] * 13

    def test_far_apart_points(self):
        # the gather spans the windows, not the 2e12 indices between them
        L = L_of(1.0, 2)
        data = seeded_table(4)
        xs = np.array([-1e12 + 0.5, 0.5, 1e12 + 0.25])
        got = interpolate_grid(L, data, xs, 1e-10)
        np.testing.assert_array_equal(got, pointwise(L, data, xs, 1e-10))
        assert got[0] == got[2] == 0.0

    def test_empty_grid(self):
        got = interpolate_grid(L_of(1.0, 2), sequence_from_rule("delta", 1.0),
                               np.array([]))
        assert got.shape == (0,)

    def test_strict_table_raises_at_first_missing_index(self):
        L = L_of(1.0, 2)
        data = sequence_from_table({j: 1.0 for j in range(-3, 4)}, zero_fill=False)
        for xs in ([0.5, 0.25], [5.0, 0.5], [1.0, -0.5]):
            want = first_error(lambda: [interpolate_pointwise(L, data, x, 1e-8)
                                        for x in xs])
            assert want[0] is MissingDataError
            assert first_error(interpolate_grid, L, data, np.array(xs), 1e-8) == want

    def test_strict_table_covering_every_window(self):
        L = L_of(1.0, 2)
        data = sequence_from_table({j: float(j) for j in range(-60, 61)},
                                   zero_fill=False)
        xs = np.linspace(-4.0, 4.0, 33)
        np.testing.assert_array_equal(interpolate_grid(L, data, xs, 1e-8),
                                      pointwise(L, data, xs, 1e-8))

    def test_window_overflow_from_any_center(self):
        # quadratic data: the window at center 0 is attainable, the one at
        # center 100 lies below the double-precision floor
        L = L_of(1.0, 3)
        data = sequence_from_rule("power-beta", 1.0, beta=2.0)
        assert np.isfinite(interpolate_at(L, data, 0.5, 1e-10))
        with pytest.raises(WindowOverflowError):
            interpolate_grid(L, data, np.array([0.5, 1.5, 100.5]), 1e-10)

    def test_best_effort_clips_to_the_knee(self):
        L = L_of(1.0, 3)
        data = sequence_from_rule("power-beta", 1.0, beta=2.0)
        xs = np.array([0.5, 1.5, 100.5, -250.25])
        got = interpolate_grid(L, data, xs, 1e-10, best_effort=True)
        np.testing.assert_array_equal(
            got, pointwise(L, data, xs, 1e-10, best_effort=True))
        # the clipped window at center 100 is the one 1e-9 certifies
        assert got[2] == interpolate_at(L, data, 100.5, 1e-9)


class TestGroupedContraction:
    """interpolate_grid forms the prefilters of a block of centers, and the
    values of a block of points, one window width at a time in one np.vecdot
    each; every prefilter entry and every value must keep the bits of its
    own np.dot."""

    def test_vecdot_is_the_per_row_dot(self):
        # rows against rows (a block of points), rows against one vector
        # (eval_fundamental, time_eval), gathered rows of a strided view, and
        # rows against every row of a strided view (a block of prefilters)
        rng = np.random.default_rng(601)
        for w in range(601):
            B = rng.standard_normal((3, w)) * 10.0 ** rng.integers(-12, 12, (3, w))
            Lw = rng.standard_normal((3, w)) * 10.0 ** rng.integers(-16, 0, (3, w))
            assert_bitwise(np.vecdot(B, Lw), [np.dot(b, l) for b, l in zip(B, Lw)])
            assert_bitwise(np.vecdot(B, Lw[0]), [np.dot(b, Lw[0]) for b in B])
            E = rng.standard_normal(w + 9)
            rows = np.lib.stride_tricks.sliding_window_view(E, w)[[4, 0, 9, 4]]
            assert_bitwise(np.vecdot(rows, Lw[1]), [np.dot(r, Lw[1]) for r in rows])
            views = np.lib.stride_tricks.sliding_window_view(E, w)
            assert_bitwise(np.vecdot(B[:, None, :], views),
                           [[np.dot(b, v) for v in views] for b in B])

    @pytest.mark.parametrize("k,basis,tol", [(3, "cosh", 1e-6), (3, "sinh", 1e-6),
                                             (2, "cosh", 1e-8), (2, "xexp+", 1e-6),
                                             (2, "xexp-", 1e-6)])
    def test_mixed_widths_bitwise(self, k, basis, tol):
        # growing rule data on a jittered reproduce grid: widths differ from
        # center to center, and each batch holds several of them
        L = L_of(0.25, k)
        data = sequence_from_rule(basis, 0.25)
        xs = np.linspace(-5.3127, 5.3127, 101)
        widths = {cardinal_interpolation._solve_window(L, m, data.growth, tol)
                  for m in range(6)}
        assert len(widths) > 1
        # each width takes its own prefilter and kernel-row length, with the
        # bits of a point synthesized alone
        got = interpolate_grid(L, data, xs, tol)
        assert_bitwise(got, pointwise(L, data, xs, tol))

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("basis", ["cosh", "sinh", "xexp+", "xexp-"])
    def test_reproduce_bases_bitwise(self, k, basis):
        # the reproduce path: best effort at the gate-scaled tolerance
        L = L_of(0.25, k)
        data = sequence_from_rule(basis, 0.25)
        u = float(np.random.default_rng(k).uniform(0.0, 0.5))
        xs = np.linspace(-5.0 - u, 5.0 + u, 101)
        tol = 0.05e-8 * max(1.0, float(np.max(np.abs(data.rule(xs)))))
        got = interpolate_grid(L, data, xs, tol, best_effort=True)
        assert_bitwise(got, pointwise(L, data, xs, tol, best_effort=True))

    @pytest.mark.parametrize("alpha,k,tol", [(1.0, 2, 1e-10), (1.0, 3, 1e-9),
                                             (0.5, 3, 1e-9), (2.0, 3, 1e-10)])
    def test_zero_filled_kept_counts_bitwise(self, alpha, k, tol):
        # stored indices dense on -60..0, sparse on 1..30, none beyond: the
        # stored counts of one batch's windows run from 0 to 2J + 1
        L = L_of(alpha, k)
        rng = np.random.default_rng(7)
        keys = list(range(-60, 1)) + sorted(rng.choice(np.arange(1, 31), 12,
                                                       replace=False).tolist())
        data = sequence_from_table({j: float(rng.uniform(-2.0, 2.0)) for j in keys})
        J = cardinal_interpolation._solve_window(L, 0, data.growth, tol)
        xs = np.linspace(-80.0, 80.0, 641) + 0.0371
        ms = np.rint(xs).astype(int)
        stored = set(data.table[0].tolist())
        kept = {sum(j in stored for j in range(m - J, m + J + 1)) for m in ms}
        assert kept >= {0, 1, 2 * J + 1}
        # absent samples read 0 in the prefilter, as in interpolate_pointwise
        got = interpolate_grid(L, data, xs, tol)
        assert_bitwise(got, pointwise(L, data, xs, tol))
        empty = np.array([m - J > 30 or m + J < -60 for m in ms])
        assert empty.any() and got[empty].tolist() == [0.0] * int(empty.sum())

    @pytest.mark.parametrize("alpha,k,basis,tol", [
        (0.25, 2, "cosh", 1e-8), (0.25, 3, "sinh", 1e-8), (0.25, 4, "xexp+", 1e-6),
        (1.0, 3, "power-beta", 1e-8), (1.0, 10, "power-beta", 1e-5)])
    def test_jittered_grids_bitwise(self, alpha, k, basis, tol):
        # kernel rows all distinct: one offset per point
        L = L_of(alpha, k)
        data = sequence_from_rule(basis, alpha, beta=1.0)
        rng = np.random.default_rng(k)
        xs = np.sort(rng.uniform(-8.0, 8.0, 301))
        got = interpolate_grid(L, data, xs, tol, best_effort=True)
        assert_bitwise(got, pointwise(L, data, xs, tol, best_effort=True))

    def test_strict_table_first_missing_index(self):
        # windows of several points run off the table on both sides; the
        # refusal names the first absent index of the first such point
        L = L_of(1.0, 3)
        data = sequence_from_table({j: float(j % 7) for j in range(-45, 46)},
                                   zero_fill=False)
        xs = np.linspace(-40.3, 40.3, 323)
        want = first_error(lambda: [interpolate_pointwise(L, data, float(x), 1e-9)
                                    for x in xs])
        assert want[0] is MissingDataError
        assert first_error(interpolate_grid, L, data, xs, 1e-9) == want
        inside = xs[np.abs(xs) < 10.0]
        assert_bitwise(interpolate_grid(L, data, inside, 1e-9),
                       pointwise(L, data, inside, 1e-9))


class TestWindowSolver:
    """_solve_windows against one-center solves: the same widths, and the
    refusal of the first failing center, message and all."""

    @staticmethod
    def loop(L, centers, growth, tol, clip=False):
        return [solve_window_loop(L, int(c), growth, tol, clip) for c in centers]

    @pytest.mark.parametrize("alpha,k,beta,tol,clip", [
        (1.0, 3, 2.0, 1e-8, False), (1.0, 3, 0.5, 1e-9, False),
        (0.25, 3, 1.0, 1e-6, False), (1.0, 10, 1.5, 1e-3, False),
        (1.0, 10, 1.0, 1e-4, True), (2.0, 3, 2.0, 1e-9, False)])
    def test_many_centers(self, alpha, k, beta, tol, clip):
        L = L_of(alpha, k)
        growth = sequence_from_rule("power-beta", alpha, beta=beta).growth
        centers = np.arange(0, 53)   # three passes of 16 and a short one
        got = cardinal_interpolation._solve_windows(L, centers, growth, tol, clip)
        want = self.loop(L, centers, growth, tol, clip)
        assert got.tolist() == want
        assert len(set(want)) > 1
        assert [cardinal_interpolation._solve_window(L, int(c), growth, tol, clip)
                for c in centers[::7]] == want[::7]

    @pytest.mark.parametrize("basis", ["cosh", "sinh", "exp+", "xexp-", "x2exp+"])
    def test_growing_bases_clip_at_the_knee(self, basis):
        L = L_of(0.25, 4)
        growth = sequence_from_rule(basis, 0.25).growth
        centers = np.arange(-30, 31)[::-1]
        got = cardinal_interpolation._solve_windows(L, centers, growth, 1e-12, True)
        want = self.loop(L, centers, growth, 1e-12, True)
        assert got.tolist() == want
        knee = cardinal_interpolation._noise_knee(L)
        assert int(knee) in want

    def test_below_floor_refusal_names_the_first_failing_center(self):
        L = L_of(1.0, 3)
        growth = sequence_from_rule("power-beta", 1.0, beta=2.0).growth
        centers = np.array([0, 5, 40, 70, 100, 3, 250])
        got = first_error(cardinal_interpolation._solve_windows, L, centers, growth, 1e-10)
        assert got[0] is WindowOverflowError

        def loop():
            self.loop(L, centers, growth, 1e-10)
        assert got == first_error(loop)

    def test_amplitude_bound_named_where_it_sets_the_floor(self):
        # samples near the double limit: at amplitude 1 the floor would be
        # ~2e-13, so the data's amplitude bound is what refuses 1e-10
        L = L_of(1.0, 3)
        growth = sequence_from_table({0: 1e308, 1: -1e308}).growth
        want = first_error(solve_window_loop, L, 0, growth, 1e-10)
        assert want[0] is WindowOverflowError
        assert "the floor is the data's amplitude bound 1.000e+308 times ~" in want[1]
        assert first_error(cardinal_interpolation._solve_windows, L, [0], growth, 1e-10) == want
        data = sequence_from_table({0: 1e308, 1: -1e308})
        assert first_error(interpolate_grid, L, data, [0.5], 1e-10) == want
        # amplitude 1: the floor itself refuses, and no bound is named
        growth = sequence_from_rule("power-beta", 1.0, beta=2.0).growth
        got = first_error(cardinal_interpolation._solve_windows, L, [0, 5, 40, 70, 100, 3, 250],
                          growth, 1e-10)
        assert got[0] is WindowOverflowError
        assert "amplitude bound" not in got[1]

    def test_divergent_growth(self):
        L = L_of(1.0, 3)
        growth = sequence_from_rule("cosh", 1.0).growth
        assert growth.rate >= L.env_rate
        want = first_error(solve_window_loop, L, 2, growth, 1e-8)
        assert want[0] is WindowOverflowError
        got = first_error(cardinal_interpolation._solve_windows, L, [2, 0, 9], growth, 1e-8)
        assert got == want
        # no centers, nothing to refuse: all points were integers
        assert cardinal_interpolation._solve_windows(L, [], growth, 1e-8).tolist() == []

    def test_k1_and_bad_tol(self):
        L = L_of(1.0, 1, 1e-12)
        growth = sequence_from_rule("power-beta", 1.0, beta=2.0).growth
        centers = np.arange(40)
        got = cardinal_interpolation._solve_windows(L, centers, growth, 1e-12)
        assert got.tolist() == self.loop(L, centers, growth, 1e-12) == [1] * 40
        with pytest.raises(ValueError):
            cardinal_interpolation._solve_windows(L, centers, growth, 0.0)

    @pytest.mark.parametrize("basis", ["cosh", "x2exp-", "power-beta", "delta"])
    def test_log_bound_in_place(self, basis):
        # the in-place sums of GrowthModel.log_bound, against the expression
        growth = sequence_from_rule(basis, 0.25, beta=1.5).growth
        for j in (np.arange(5.0)[:, None] + np.arange(1.0, 4001.0), -7.0, 2.0 ** 60):
            aj = np.abs(np.asarray(j, dtype=float))
            want = (math.log(growth.amplitude) + growth.beta * np.log1p(aj)
                    + growth.rate * aj)
            assert_bitwise(growth.log_bound(j), want)

    def test_huge_centers(self):
        L = L_of(0.5, 3)
        growth = sequence_from_rule("power-beta", 0.5, beta=1.0).growth
        centers = [2 ** 53 + 1, 10 ** 15, -(10 ** 12)]
        got = cardinal_interpolation._solve_windows(L, centers, growth, 1e-2, True)
        assert got.tolist() == self.loop(L, centers, growth, 1e-2, True)


class TestBuildChecks:
    """build_fundamental's checks share one kernel pass; the envelope, noise
    floor and cardinality residual keep the bits of one eval_fundamental call
    per check."""

    @pytest.mark.parametrize("alpha,k,tol", [
        (1.0, 1, 1e-12), (1.0, 3, 1e-10), (1.0, 10, 1e-10), (0.5, 6, 1e-10),
        (0.25, 6, 1e-10), (0.25, 4, 1e-9), (2.0, 8, 1e-10), (1.0, 12, 1e-10)])
    def test_checks_bitwise(self, alpha, k, tol):
        L = build_fundamental(SplineParams(alpha, k), tol)
        rate, amp, noise, card, even = fundamental_checks_four_calls(
            SplineParams(alpha, k), tol)
        if k == 1:
            assert L.env_rate is None and L.env_amplitude is None and rate is None
        else:
            assert_bitwise([L.env_rate, L.env_amplitude], [rate, amp])
        assert_bitwise([L.noise_floor, L.cardinality_error], [noise, card])
        assert even == 0.0
        assert L.cardinality_ok == (card < 1e-8)

    def test_one_kernel_pass(self, monkeypatch):
        calls, kernel_calls = [], []
        synthesize = cardinal_interpolation.eval_fundamental
        green = cardinal_interpolation.eval_green

        def counting(L, xs):
            calls.append(np.size(xs))
            return synthesize(L, xs)

        def counting_kernel(kernel, x):
            kernel_calls.append(np.size(x))
            return green(kernel, x)

        monkeypatch.setattr(cardinal_interpolation, "eval_fundamental", counting)
        monkeypatch.setattr(cardinal_interpolation, "eval_green", counting_kernel)
        build_fundamental(SplineParams(1.0, 6), 1e-10)
        assert calls == [416 + 41]
        assert len(kernel_calls) == 1
        del calls[:], kernel_calls[:]
        build_fundamental(SplineParams(1.0, 1), 1e-10)
        assert calls == [41]
        assert len(kernel_calls) == 1

    def test_check_grids_share_kernel_rows(self, monkeypatch):
        # every check point lies on one of 32 offsets t = |x| - floor(|x|),
        # so the pass evaluates about 2J+1 kernel values per offset, not per
        # point: 14,902 at (1, 12), one block of at most _GATHER_ELEMS
        assert cardinal_interpolation._GATHER_ELEMS >= 16000
        points = []
        green = cardinal_interpolation.eval_green

        def counting(kernel, x):
            points.append(np.size(x))
            return green(kernel, x)

        monkeypatch.setattr(cardinal_interpolation, "eval_green", counting)
        build_fundamental(SplineParams(1.0, 12), 1e-10)
        assert len(points) == 1 and points[0] <= 16000

    def test_compact_read_once(self, monkeypatch):
        L = build_fundamental(SplineParams(1.0, 3), 1e-10)
        reads = []
        monkeypatch.setattr(CoefficientTable, "compact_support",
                            property(lambda t: reads.append(1) or False))
        assert [L.compact for _ in range(5)] == [False] * 5
        assert len(reads) == 1


class TestReproductionSuite:
    """Reproduction of the operator's own solution family in the convergent,
    float64-attainable regime."""

    XS = np.linspace(-5.0, 5.0, 41)

    def _run(self, alpha, k, basis, gate):
        L = L_of(alpha, k)
        data = sequence_from_rule(basis, alpha)
        fn = data.rule
        worst = 0.0
        for x in self.XS:
            g = float(fn(np.array([x]))[0])
            v = interpolate_at(L, data, float(x), 0.1 * gate * max(1.0, abs(g)))
            worst = max(worst, abs(v - g) / max(1.0, abs(g)))
        return worst

    @pytest.mark.parametrize("basis", ["cosh", "sinh", "exp+", "exp-"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_hyperbolic_basis(self, basis, k):
        assert self._run(0.25, k, basis, 1e-5) < 1e-5

    @pytest.mark.parametrize("basis", ["cosh", "sinh"])
    def test_hyperbolic_basis_alpha_half(self, basis):
        assert self._run(0.5, 2, basis, 1e-5) < 1e-5

    @pytest.mark.parametrize("k", [2, 3])
    def test_monomial_exponential(self, k):
        assert self._run(0.25, k, "xexp+", 1e-5) < 1e-5
        assert self._run(0.25, k, "xexp-", 1e-5) < 1e-5


class TestGrowthBound:
    def test_quadratic_data_ratio(self):
        # |f_b(x)| <= C (1+|x|)^2 with C within 10x of the value at 0
        L = L_of(1.0, 3)
        data = sequence_from_rule("power-beta", 1.0, beta=2.0)
        xs = np.linspace(-50, 50, 201)
        vals = interpolate_grid(L, data, xs, 1e-7)
        ratios = np.abs(vals) / (1 + np.abs(xs)) ** 2
        at_zero = abs(interpolate_at(L, data, 0.0, 1e-7))
        assert np.max(ratios) <= 10.0 * at_zero


class TestL2Stability:
    def test_fitted_constant_holds(self):
        # ||f_y||_L2 <= C_k ||y||_l2: fit C_k on half the draws, check the rest
        rng = np.random.default_rng(7)
        L = L_of(1.0, 3)
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
        assert all(r <= 1.05 * fitted for r in ratios[10:])


# the judge's cells and their digits, and points off the integers, near 0
# and out in the tail
JUDGE_CELLS = [(1.0, 3, 40), (0.5, 6, 60), (1.0, 10, 80)]
JUDGE_POINTS = [0.3, -1.7, 4.25, 9.5]


@lru_cache(maxsize=None)
def judge(alpha: float, k: int, dps: int):
    return fundamental_mp(alpha, k, dps)


class TestJudge:
    """oracles.fundamental_mp, the extended-precision judge of L_k, checked
    on its own: against the k = 1 closed form, the delta property and
    itself at twice the digits."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_k1_closed_form(self, alpha):
        xs = [0.0, 0.3, -0.55, 0.999, 1.0, 1.4, -3.25]
        got = [float(judge(alpha, 1, 30)(x)) for x in xs]
        np.testing.assert_allclose(got, fundamental_k1_closed(alpha, xs), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("alpha,k,dps", JUDGE_CELLS)
    def test_delta_property(self, alpha, k, dps):
        L = judge(alpha, k, dps)
        for j in (-3, -1, 0, 1, 2, 7):
            assert abs(L(j) - (j == 0)) <= mpmath.mpf(10) ** (10 - dps)

    @pytest.mark.parametrize("alpha,k,dps", JUDGE_CELLS)
    def test_twice_the_digits(self, alpha, k, dps):
        L, L2 = judge(alpha, k, dps), judge(alpha, k, 2 * dps)
        for x in JUDGE_POINTS:
            assert abs(L(x) - L2(x)) <= mpmath.mpf(10) ** (10 - dps) * max(1, abs(L2(x)))

    def test_past_the_table(self):
        # (1, 3) at 40 digits tables d out to |m| = 106; 150.5 sums its own
        L = judge(1.0, 3, 40)
        assert abs(L(150.5) - judge(1.0, 3, 80)(150.5)) <= mpmath.mpf(10) ** -30


def higham_bound(L, b, x, J):
    """The rounding bound of interpolate_grid's two-stage sum at x over the
    window b = b_{m-J} .. b_{m+J} (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., sec. 3.1): each prefilter entry a_p, a
    dot product of w = 2J + 1 terms, lies within gamma_w sum_o |b_o c_{p+o}|
    of its exact value, and the n-term sum of a_p E_k(t + p) within
    gamma_n sum_p |a_p E_p| of its own; one more rounding each for the
    scale (2 pi)^{-1/2} and the value.  Formed from the same doubles as the
    package, the window scaled by 2^-e as it is."""
    u = 2.0 ** -53
    m = round(x)
    e = max(math.frexp(float(np.max(np.abs(b))))[1], 0)
    b = np.ldexp(b, -e)
    Q, w = J + L.table.half_width, 2 * J + 1
    n = 2 * Q + 1
    pad = np.zeros(2 * J)
    C = np.lib.stride_tricks.sliding_window_view(np.concatenate([pad, L.table.coeffs, pad]), w)
    a = np.array([np.dot(b, row) for row in C])
    E = np.abs(eval_green(L.kernel, (x - m) + np.arange(-Q, Q + 1, dtype=float)))
    gamma_w, gamma_n = w * u / (1.0 - w * u), n * u / (1.0 - n * u)
    bound = gamma_n * float(np.abs(a) @ E) + gamma_w * (1.0 + gamma_n) * float(
        (np.abs(C) @ np.abs(b)) @ E)
    return math.ldexp(bound * INV_SQRT_2PI, e)


# a fixed table of 121 samples, and points off the integers at four dyadic
# offsets (x - j is then exact in double, and shared by the judge's cache)
JUDGED_TABLE = {j: math.cos(0.7 * j) + 0.25 * math.sin(1.3 * j) for j in range(-60, 61)}
JUDGED_POINTS = [m + t for m in (-11, -3, 0, 2, 7) for t in (0.125, -0.375, 0.4375, -0.0625)]


@pytest.mark.slow
class TestJudgedInterpolation:
    """interpolate_grid against sum_{|j - m| <= J} b_j L_k(x - j) with L_k
    from the extended-precision judge at 40 digits, over the window the
    package solves: each value lies within the rounding bound of its own
    two-stage sum plus the table's tail term, tail_bound max|E_k|
    (2 pi)^{-1/2} per unit of sum |b_j|."""

    @pytest.mark.parametrize("alpha,k,basis,tol", [
        (1.0, 3, None, 1e-10), (2.0, 4, None, 1e-10), (1.0, 6, None, 1e-10),
        (0.25, 3, None, 1e-10), (0.25, 3, "sinh", 2e-7)])
    def test_within_the_rounding_bound(self, alpha, k, basis, tol):
        L = L_of(alpha, k)
        data = (sequence_from_table(JUDGED_TABLE) if basis is None
                else sequence_from_rule(basis, alpha))
        xs = np.array(JUDGED_POINTS)
        got = interpolate_grid(L, data, xs, tol, best_effort=basis is not None)
        L_mp, cache = fundamental_mp(alpha, k, 40), {}
        tail = L.table.tail_bound * L.kernel.peak * INV_SQRT_2PI
        for x, v in zip(xs.tolist(), got.tolist()):
            m = round(x)
            J = _solve_window(L, m, data.growth, tol, clip_to_knee=basis is not None)
            js = np.arange(m - J, m + J + 1)
            b = data.values(js)
            for y in (x - js).tolist():
                if y not in cache:
                    cache[y] = L_mp(y)
            with mpmath.workdps(40):
                truth = mpmath.fsum(mpmath.mpf(bj) * cache[y]
                                    for bj, y in zip(b.tolist(), (x - js).tolist()))
                err = float(abs(mpmath.mpf(v) - truth))
            assert err <= (higham_bound(L, b, x, J) + 2.0 ** -52 * abs(v)
                           + tail * float(np.sum(np.abs(b))))
