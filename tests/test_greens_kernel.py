"""Green kernel construction, evaluation, and transform consistency."""

import math

import numpy as np
import pytest

from cardspline.errors import ParameterDomainError
from cardspline.greens_kernel import (GreenKernel, K_MAX, SplineParams,
                                      build_green_kernel, eval_green,
                                      eval_green_hat)
from oracles import (fd_weights, green_convolution_quad, green_transform_quad,
                     hyperbolic_operator_residual, one_sided_derivatives)


class TestSplineParams:
    def test_rejects_zero_alpha(self):
        with pytest.raises(ParameterDomainError):
            SplineParams(alpha=0.0, k=1)

    def test_rejects_negative_alpha(self):
        with pytest.raises(ParameterDomainError):
            SplineParams(alpha=-1.0, k=2)

    @pytest.mark.parametrize("k", [0, -3, 31, 2.5])
    def test_rejects_bad_order(self, k):
        with pytest.raises(ParameterDomainError):
            SplineParams(alpha=1.0, k=k)

    def test_k_max_admissible(self):
        build_green_kernel(SplineParams(alpha=1.0, k=K_MAX))

    def test_rejects_nonfinite_alpha(self):
        with pytest.raises(ParameterDomainError):
            SplineParams(alpha=float("nan"), k=1)


class TestBuildGreenKernel:
    def test_k1_at_origin(self):
        kern = build_green_kernel(SplineParams(1.0, 1))
        assert eval_green(kern, 0.0) == pytest.approx(-1.2533141, abs=1e-7)
        # exact value is -sqrt(pi/2)
        assert eval_green(kern, 0.0) == pytest.approx(-math.sqrt(math.pi / 2), rel=1e-14, abs=0)

    def test_k2_at_origin(self):
        kern = build_green_kernel(SplineParams(1.0, 2))
        assert eval_green(kern, 0.0) == pytest.approx(0.6266571, abs=1e-7)

    def test_alpha2_k1_at_origin(self):
        kern = build_green_kernel(SplineParams(2.0, 1))
        assert eval_green(kern, 0.0) == pytest.approx(-0.6266571, abs=1e-7)

    def test_k2_closed_form(self):
        # E_2(x) = sqrt(pi/2) (1 + |x|) e^{-|x|} / 2 at alpha = 1
        kern = build_green_kernel(SplineParams(1.0, 2))
        xs = np.linspace(-4, 4, 41)
        want = math.sqrt(math.pi / 2) * (1 + np.abs(xs)) * np.exp(-np.abs(xs)) / 2
        np.testing.assert_allclose(eval_green(kern, xs), want, rtol=1e-13)

    def test_coefficient_count_and_sign(self):
        for k in range(1, 9):
            kern = build_green_kernel(SplineParams(0.7, k))
            assert len(kern.poly_coeffs) == k
            assert math.copysign(1, kern.poly_coeffs[0]) == (-1) ** k

    def test_coeff_length_enforced(self):
        p = SplineParams(1.0, 3)
        with pytest.raises(ParameterDomainError):
            GreenKernel(params=p, poly_coeffs=np.array([1.0, 2.0]))


class TestEvalGreen:
    def test_evenness(self):
        kern = build_green_kernel(SplineParams(1.3, 4))
        xs = np.linspace(0.1, 6, 25)
        np.testing.assert_array_equal(eval_green(kern, xs), eval_green(kern, -xs))

    def test_scalar_and_array(self):
        kern = build_green_kernel(SplineParams(1.0, 2))
        v = eval_green(kern, 1.0)
        assert isinstance(v, float)
        arr = eval_green(kern, np.array([1.0, 2.0]))
        assert arr.shape == (2,)
        assert arr[0] == v

    def test_large_argument_underflows_quietly(self):
        kern = build_green_kernel(SplineParams(2.0, 3))
        assert eval_green(kern, 1e4) == 0.0

    @pytest.mark.parametrize("alpha,k", [(1.0, 1), (1.0, 2), (1.0, 3), (1.0, 4),
                                         (0.5, 2), (2.0, 4), (0.25, 5)])
    def test_transform_consistency(self, alpha, k):
        # the inverse transform of Ehat_k, by full-line QUADPACK quadrature,
        # must match the closed-form kernel to 1e-8 absolute
        kern = build_green_kernel(SplineParams(alpha, k))
        for x in [0.0, 0.3, 1.1, 2.7]:
            assert green_transform_quad(alpha, k, x) == \
                pytest.approx(eval_green(kern, x), abs=1e-8)

    def test_peak_is_at_origin(self):
        for (a, k) in [(0.5, 3), (1.0, 5), (2.0, 2)]:
            kern = build_green_kernel(SplineParams(a, k))
            xs = np.linspace(-10, 10, 2001)
            assert np.max(np.abs(eval_green(kern, xs))) <= kern.peak + 1e-15


class TestEvalGreenHat:
    def test_paper_values_at_origin(self):
        assert eval_green_hat(SplineParams(1.0, 1), 0.0) == -1.0
        assert eval_green_hat(SplineParams(1.0, 2), 0.0) == +1.0

    def test_value_at_pi(self):
        assert eval_green_hat(SplineParams(1.0, 2), math.pi) == \
            pytest.approx(0.0084640, abs=1e-7)
        assert eval_green_hat(SplineParams(1.0, 2), math.pi) == \
            pytest.approx((math.pi ** 2 + 1) ** -2, rel=1e-14, abs=0)

    def test_evenness_and_array(self):
        p = SplineParams(0.8, 3)
        xis = np.linspace(0.1, 20, 50)
        np.testing.assert_array_equal(eval_green_hat(p, xis), eval_green_hat(p, -xis))


class TestConvolutionConsistency:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_self_convolution(self, k):
        # (2 pi)^{-1/2} (E_m * E_{k-m})(x) = E_k(x)
        alpha = 1.0
        kern = build_green_kernel(SplineParams(alpha, k))
        for m in range(1, k):
            for x in [0.0, 0.3, 1.7]:
                want = eval_green(kern, x)
                got = green_convolution_quad(alpha, m, k, x)
                assert got == pytest.approx(want, rel=1e-8, abs=0)


class TestOdeResidual:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_annihilated_off_origin(self, k):
        # (D^2 - a^2)^k E_k = 0 away from the knot
        alpha = 1.0
        kern = build_green_kernel(SplineParams(alpha, k))
        for x in np.linspace(0.5, 3.0, 6):
            res = hyperbolic_operator_residual(alpha, k, float(x))
            assert abs(res) <= 1e-4 * abs(eval_green(kern, x))


class TestKnotSmoothness:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_one_sided_derivatives_match(self, k):
        # E_k is C^{2k-2}: derivatives up to order 2k-2 agree across the knot
        kern = build_green_kernel(SplineParams(1.0, k))
        a, c = 1.0, kern.poly_coeffs
        for m in range(0, 2 * k - 1):
            right, left = one_sided_derivatives(kern, m)
            scale = sum(abs(math.comb(m, i) * (-a) ** (m - i) * math.factorial(i) * c[i])
                        for i in range(min(m, k - 1) + 1))
            assert abs(right - left) <= 1e-6 * max(scale, 1e-30)

    @pytest.mark.parametrize("k", [2, 3])
    def test_finite_difference_cross_check(self, k):
        # the same comparison with one-sided finite differences, order m <= 4
        kern = build_green_kernel(SplineParams(1.0, k))
        h = 0.05
        for m in range(1, min(2 * k - 2, 4) + 1):
            nodes_r = h * np.arange(0, m + 7)
            nodes_l = -nodes_r
            wr = fd_weights(0.0, nodes_r, m)
            wl = fd_weights(0.0, nodes_l, m)
            dr = float(wr @ np.asarray(eval_green(kern, nodes_r)))
            dl = float(wl @ np.asarray(eval_green(kern, nodes_l)))
            assert dr == pytest.approx(dl, abs=1e-3 * max(1.0, abs(dr)))

    def test_kink_at_order_2k_minus_1(self):
        # the 2k-1st derivative must jump (it carries the delta)
        kern = build_green_kernel(SplineParams(1.0, 2))
        right, left = one_sided_derivatives(kern, 3)
        assert abs(right - left) > 0.1
