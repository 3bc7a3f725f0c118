"""Fundamental function evaluation, windows, and cardinal interpolation."""

import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from cardspline import cardinal_interpolation
from cardspline.cardinal_interpolation import (build_fundamental,
                                               eval_fundamental,
                                               interpolate_at,
                                               interpolate_grid, select_window,
                                               sequence_from_csv,
                                               sequence_from_rule,
                                               sequence_from_table)
from cardspline.errors import (DataFormatError, MissingDataError,
                               ParameterDomainError, UnknownBasisError,
                               WindowOverflowError)
from cardspline.greens_kernel import SplineParams
from oracles import (eval_fundamental_direct, eval_fundamental_spectral,
                     fundamental_k1_closed, interpolate_grid_loop,
                     interpolate_pointwise)

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
        with pytest.raises(ParameterDomainError):
            build_fundamental(SplineParams(1.0, 2), 1e-16)

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
        # fitted on [2, 15]: envelope dominates samples there
        xs = np.linspace(2, 15, 261)
        vals = np.abs(np.asarray(eval_fundamental(L, xs)))
        env = L.env_amplitude * np.exp(-L.env_rate * xs)
        assert np.all(vals <= env * (1 + 1e-9))


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
    def test_monotone_in_beta(self):
        L = L_of(1.0, 2)
        j0 = select_window(L, 0.0, 0.0, 1e-8)
        j2 = select_window(L, 0.0, 2.0, 1e-8)
        assert j2 >= j0

    def test_monotone_in_x(self):
        L = L_of(1.0, 3)
        assert select_window(L, 30.0, 2.0, 1e-8) >= select_window(L, 0.0, 2.0, 1e-8)

    def test_k2_regression_bound(self):
        # beta=0, tol=1e-8 at the origin resolves within a few dozen lattice steps
        J = select_window(L_of(1.0, 2), 0.0, 0.0, 1e-8)
        assert J <= 60
        assert J == 15   # regression value for the fitted envelope

    def test_compact_support_window(self):
        assert select_window(L_of(1.0, 1, 1e-12), 0.0, 5.0, 1e-10) == 1

    def test_rejects_negative_beta(self):
        with pytest.raises(ParameterDomainError):
            select_window(L_of(1.0, 2), 0.0, -1.0, 1e-8)

    def test_overflow_on_slow_decay(self):
        # synthetic near-flat envelope: the window cap must trip
        from dataclasses import replace
        L = replace(L_of(1.0, 2), env_rate=1e-5, env_amplitude=1.0,
                    noise_floor=1e-300)
        with pytest.raises(WindowOverflowError):
            select_window(L, 0.0, 0.0, 1e-8)


class TestDataSequences:
    def test_table_roundtrip_and_zero_fill(self):
        seq = sequence_from_table({0: 1.0, 2: -3.0})
        np.testing.assert_array_equal(seq.values(np.array([0, 1, 2, 7])),
                                      [1.0, 0.0, -3.0, 0.0])

    def test_strict_table_raises(self):
        seq = sequence_from_table({0: 1.0}, zero_fill=False)
        with pytest.raises(MissingDataError):
            seq.values(np.array([1]))

    def test_duplicate_and_non_integer_indices(self):
        with pytest.raises(DataFormatError):
            sequence_from_table({0.5: 1.0})

    def test_growth_declaration_checked(self):
        with pytest.raises(DataFormatError):
            sequence_from_table({0: 1.0, 10: 1e6}, growth_beta=1.0,
                                growth_amplitude=1.0)

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

    def test_empty_and_scalar(self):
        L = L_of(1.0, 3)
        got = eval_fundamental(L, np.array([]))
        assert got.shape == (0,)
        v = eval_fundamental(L, -2.75)
        assert isinstance(v, float)
        assert_bitwise(np.float64(v), np.float64(eval_fundamental_direct(L, -2.75)))

    def test_grid_shares_kernel_rows(self, kernel_points):
        # 4001 points x 353 table entries evaluated point by point before
        L = L_of(1.0, 10)
        width = len(L.table.coeffs)
        assert width == 353
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


class TestInterpolateGrid:
    """The batched evaluator against the one-point-at-a-time reference."""

    @pytest.fixture
    def solved_centers(self, monkeypatch):
        centers = []
        solve = cardinal_interpolation._solve_window

        def recording(L, center, *args, **kwargs):
            centers.append(center)
            return solve(L, center, *args, **kwargs)

        monkeypatch.setattr(cardinal_interpolation, "_solve_window", recording)
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
        # stored indices only: the kept entries differ from point to point
        L = L_of(1.0, 2)
        rng = np.random.default_rng(3)
        data = sequence_from_table({j: float(rng.standard_normal())
                                    for j in range(-8, 9)})
        xs = np.linspace(-12.0, 12.0, 97)
        np.testing.assert_allclose(interpolate_grid(L, data, xs, 1e-10),
                                   pointwise(L, data, xs, 1e-10),
                                   rtol=0, atol=1e-15)

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
        L = L_of(1.0, 3, 1e-9)
        data = seeded_table(2)
        xs = np.linspace(-30.35, 29.65, 1201)
        ms = np.rint(xs)
        assert L.cardinality_ok
        t = xs - ms
        offsets = np.unique(t[np.abs(t) >= 1e-12])   # integers synthesize nothing
        assert len(offsets) < 60
        Jmax = max(cardinal_interpolation._solve_window(L, int(m), data.growth, 1e-9)
                   for m in np.unique(np.abs(ms)))
        points = []
        rows = cardinal_interpolation._green_rows

        def counting(fundamental, x):
            points.append(np.size(x))
            return rows(fundamental, x)

        monkeypatch.setattr(cardinal_interpolation, "_green_rows", counting)
        interpolate_grid(L, data, xs, 1e-9)
        assert sum(points) == len(offsets) * (2 * Jmax + 1)

    def test_batch_size_does_not_change_bits(self, monkeypatch):
        L = L_of(1.0, 3, 1e-9)
        data = seeded_table(2)
        xs = np.linspace(-30.35, 29.65, 1201)
        want = interpolate_grid(L, data, xs, 1e-9)
        monkeypatch.setattr(cardinal_interpolation, "_BATCH_POINTS", 97)
        assert_bitwise(interpolate_grid(L, data, xs, 1e-9), want)

    def test_permuted_grid_with_repeats(self):
        L = L_of(1.0, 3, 1e-9)
        data = seeded_table(2)
        xs = np.linspace(-30.35, 29.65, 1201)
        vals = interpolate_grid(L, data, xs, 1e-9)
        pick = np.random.default_rng(5).permutation(len(xs))
        pick = np.concatenate([pick, pick[:300], pick[:7]])
        np.testing.assert_array_equal(interpolate_grid(L, data, xs[pick], 1e-9),
                                      vals[pick])

    def test_memory_does_not_grow_with_the_windows(self):
        # distinct offsets everywhere: one row per point, synthesized chunk
        # by chunk rather than as one points x window matrix
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
        # the per-center solves give the same widths and bits
        assert_bitwise(got, interpolate_grid_loop(L, data, xs, 1e-9))
        assert len(solved_centers) == 31

    def test_flat_growth_refuses_as_before(self):
        # a tolerance below the floor: the one solve raises what the first
        # of the per-center solves raised
        L = L_of(1.0, 3)
        data = sequence_from_table({0: 1e12, 3: -2.0})
        xs = np.array([40.5, 0.25, -3.75])
        want = first_error(interpolate_grid_loop, L, data, xs, 1e-14)
        assert want[0] is WindowOverflowError
        assert first_error(interpolate_grid, L, data, xs, 1e-14) == want

    def test_gather_memory_does_not_grow_with_the_points(self):
        # 48,060 points on 8 non-integer offsets: the windows are gathered a
        # slice of points at a time, not as one points x window matrix
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
        np.testing.assert_allclose(got, pointwise(L, data, xs, 1e-6),
                                   rtol=1e-14, atol=0)
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
    """interpolate_grid contracts the points of one window width (and kept
    count) in one stacked np.matmul; every point must keep the bits of its
    own np.dot."""

    def test_stacked_matmul_is_the_per_row_dot(self):
        rng = np.random.default_rng(600)
        for w in range(601):
            B = rng.standard_normal((3, w)) * 10.0 ** rng.integers(-12, 12, (3, w))
            Lw = rng.standard_normal((3, w)) * 10.0 ** rng.integers(-16, 0, (3, w))
            got = np.matmul(B[:, None, :], Lw[:, :, None])[:, 0, 0]
            assert_bitwise(got, [np.dot(b, l) for b, l in zip(B, Lw)])

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
        got = interpolate_grid(L, data, xs, tol)
        assert_bitwise(got, interpolate_grid_loop(L, data, xs, tol))
        # a window narrower than the widest takes its L_k values from the
        # middle of a longer synthesized row, at other dgemv positions than
        # interpolate_pointwise's own: agreement to the synthesis noise
        bmax = float(np.max(np.abs(data.rule(np.arange(-40.0, 41.0)))))
        np.testing.assert_allclose(got, pointwise(L, data, xs, tol),
                                   rtol=0, atol=L.noise_floor * bmax)

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
        assert_bitwise(got, interpolate_grid_loop(L, data, xs, tol, best_effort=True))
        if k > 2:   # one width, clipped at the knee
            assert_bitwise(got, pointwise(L, data, xs, tol, best_effort=True))

    @pytest.mark.parametrize("alpha,k,tol", [(1.0, 2, 1e-10), (1.0, 3, 1e-9),
                                             (0.5, 3, 1e-9), (2.0, 3, 1e-10)])
    def test_zero_filled_kept_counts_bitwise(self, alpha, k, tol):
        # stored indices dense on -60..0, sparse on 1..30, none beyond: the
        # kept counts of one batch run from 0 to 2J + 1
        L = L_of(alpha, k)
        rng = np.random.default_rng(7)
        keys = list(range(-60, 1)) + sorted(rng.choice(np.arange(1, 31), 12,
                                                       replace=False).tolist())
        data = sequence_from_table({j: float(rng.uniform(-2.0, 2.0)) for j in keys})
        J = cardinal_interpolation._solve_window(L, 0, data.growth, tol)
        xs = np.linspace(-80.0, 80.0, 641) + 0.0371
        ms = np.rint(xs).astype(int)
        kept = {sum(j in data.table for j in range(m - J, m + J + 1)) for m in ms}
        assert kept >= {0, 1, 2 * J + 1}
        got = interpolate_grid(L, data, xs, tol)
        assert_bitwise(got, interpolate_grid_loop(L, data, xs, tol))
        empty = np.array([m - J > 30 or m + J < -60 for m in ms])
        assert empty.any() and got[empty].tolist() == [0.0] * int(empty.sum())
        # interpolate_pointwise synthesizes L_k over the kept indices alone,
        # whose dgemv shapes differ: agreement to the synthesis noise
        np.testing.assert_allclose(got, pointwise(L, data, xs, tol),
                                   rtol=0, atol=10 * L.noise_floor * 2.0)

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
