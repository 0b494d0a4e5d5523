import math

import numpy as np
import pytest

from svtkit.approx import (approx_arcsin, approx_exp, approx_inverse,
                           approx_monomial, approx_named, approx_rect,
                           approx_sign, approx_taylor, approx_taylor_multi,
                           approx_trig, approx_window, arcsin_series_coeffs,
                           bessel_j, fourier_from_power_series, solve_r)

DENSE = np.linspace(-1, 1, 20001)


class TestSign:
    def test_grid_error(self):
        res = approx_sign(0.3, 0.1)
        xs = np.concatenate([np.linspace(-2, -0.3, 4000),
                             np.linspace(0.3, 2, 4000)])
        assert np.abs(res.evaluate(xs) - np.sign(xs)).max() <= 0.1

    def test_odd_at_zero(self):
        res = approx_sign(0.3, 0.1)
        assert abs(res.evaluate(0.0)) < 1e-12
        assert res.parity == "odd"

    def test_bounded_on_wide_interval(self):
        res = approx_sign(0.2, 0.05)
        xs = np.linspace(-2, 2, 8001)
        assert np.abs(res.evaluate(xs)).max() <= 1.0

    def test_degree_shrinks_with_delta(self):
        d1 = approx_sign(0.1, 0.01).degree
        d2 = approx_sign(0.2, 0.01).degree
        assert 1.5 <= d1 / d2 <= 2.5


class TestRect:
    def test_plateau_value_at_zero(self):
        res = approx_rect(0.5, 0.1, 0.05)
        assert 0.95 <= res.evaluate(0.0) <= 1.0

    def test_even_symmetry(self):
        res = approx_rect(0.5, 0.1, 0.05)
        xs = np.linspace(0, 1, 57)
        np.testing.assert_allclose(res.evaluate(xs), res.evaluate(-xs),
                                   atol=1e-12)

    def test_outside_suppression(self):
        res = approx_rect(0.5, 0.1, 0.05)
        xs = np.linspace(0.65, 1.0, 3501)
        assert np.abs(res.evaluate(xs)).max() <= 0.05


class TestInverse:
    def test_b_formula(self):
        kappa, eps = 2.0, 0.01
        b_expected = math.ceil(kappa ** 2 * math.log(kappa / eps))
        from svtkit.approx import _inverse_cheb_coeffs
        _, b, _ = _inverse_cheb_coeffs(kappa, eps)
        assert b == b_expected

    def test_value_near_one(self):
        res = approx_inverse(2.0, 0.01)
        assert abs(res.evaluate(1.0) - 1.0) <= 0.01

    def test_grid_error_on_half(self):
        res = approx_inverse(2.0, 0.01)
        xs = np.linspace(0.5, 1.0, 5001)
        assert np.abs(res.evaluate(xs) - 1.0 / xs).max() <= 0.01

    def test_bounded_variant(self):
        res = approx_inverse(4.0, 0.01, bounded=True)
        assert np.abs(res.evaluate(DENSE)).max() <= 1.0
        delta = 0.25
        xs = np.linspace(delta, 1.0, 3001)
        assert np.abs(res.evaluate(xs) - delta / (2 * xs)).max() <= 0.01
        assert res.parity == "odd"


class TestTrig:
    def test_t0_coefficient_is_j0(self):
        from scipy.special import jv
        cos_r, _ = approx_trig(2.7, 1e-8)
        assert cos_r.cheb.cheb_coeffs[0].real == pytest.approx(jv(0, 2.7), abs=1e-12)

    def test_negate_t(self):
        cos_p, sin_p = approx_trig(1.3, 1e-9)
        cos_m, sin_m = approx_trig(-1.3, 1e-9)
        np.testing.assert_allclose(cos_p.cheb.cheb_coeffs, cos_m.cheb.cheb_coeffs,
                                   atol=1e-15)
        np.testing.assert_allclose(sin_p.cheb.cheb_coeffs, -sin_m.cheb.cheb_coeffs,
                                   atol=1e-15)

    def test_grid_error_t5(self):
        cos_r, sin_r = approx_trig(5.0, 1e-6)
        assert np.abs(cos_r.evaluate(DENSE) - np.cos(5 * DENSE)).max() <= 1e-6
        assert np.abs(sin_r.evaluate(DENSE) - np.sin(5 * DENSE)).max() <= 1e-6

    def test_miller_matches_scipy(self):
        from scipy.special import jv
        got = bessel_j(30, 7.3)
        want = jv(np.arange(31), 7.3)
        np.testing.assert_allclose(got, want, atol=1e-13)


class TestSolveR:
    def test_defining_equation(self):
        r = solve_r(2.0, 1e-6)
        assert abs((2.0 / r) ** r - 1e-6) <= 1e-12 * 1e-6

    def test_euler_branch(self):
        eps = 1e-5
        t = math.log(1 / eps) / math.e
        assert solve_r(t, eps) <= math.e * t * (1 + 1e-9)

    def test_q_third_bound(self):
        r = solve_r(2.0, 1e-6)
        q = 1.0 / 3.0
        assert r <= math.exp(q) * 2.0 + math.log(1e6) / q


class TestTaylor:
    def test_exponential_window(self):
        beta = 2.0
        n = 40
        coef = np.array([math.exp(-beta * 0) * (beta) ** k / math.factorial(k)
                         for k in range(n)])
        # f(x) = e^{-beta(1-x)} = e^-beta * e^{beta x}; expand around x0=1:
        # f(1+u) = e^{beta u} -> a_k = beta^k / k!
        a = np.array([beta ** k / math.factorial(k) for k in range(n)])
        B = float(np.sum((0.5 + 0.25) ** np.arange(n) * np.abs(a)))
        eps = min(1e-4, 1 / (2 * B))
        res = approx_taylor(a, 1.0, 0.5, 0.25, B, eps,
                            target=lambda x: np.exp(-beta * (1 - np.asarray(x))),
                            label="exp-window")
        xs = np.linspace(0.5, 1.0, 2001)
        assert np.abs(res.evaluate(xs) - np.exp(-beta * (1 - xs))).max() <= eps

    def test_constant_series(self):
        a = np.zeros(3)
        a[0] = 1.0
        res = approx_taylor(a, 0.0, 0.5, 0.25, 1.0, 1e-4,
                            target=lambda x: np.ones_like(np.asarray(x, float)),
                            label="const")
        xs = np.linspace(-0.5, 0.5, 1001)
        assert np.abs(res.evaluate(xs) - 1.0).max() <= 1e-4

    def test_fourier_one_norm(self):
        a = np.array([0.0, 0.9, 0.0, -0.3, 0.0, 0.05])
        series = fourier_from_power_series(a, 0.05, 1e-5)
        assert series.one_norm() <= np.abs(a).sum() + 1e-12

    def test_fourier_accuracy(self):
        a = np.array([0.2, 0.5, -0.1, 0.3])
        delta = 0.1
        series = fourier_from_power_series(a, delta, 1e-6)
        xs = np.linspace(-1 + delta, 1 - delta, 1001)
        want = np.polynomial.polynomial.polyval(xs, a)
        got = series(xs)
        assert np.abs(got - want).max() <= 1e-6


class TestTaylorMulti:
    def test_two_patch_inverse(self):
        delta = 0.25
        eps = 1e-3
        n = 60
        # f(x) = (3/4) delta / x; around +-1: f(1+u) = (3 delta/4) sum (-u)^k
        # f(1+u) = (3d/4)/(1+u) = (3d/4) sum (-u)^k;
        # f(-1+u) = (3d/4)/(u-1) = -(3d/4) sum u^k
        a_right = np.array([(3 * delta / 4) * (-1.0) ** k for k in range(n)])
        a_left = np.array([-(3 * delta / 4) for _ in range(n)])
        r = 1 - delta
        dd = delta / 2
        B = float(np.sum((r + dd) ** np.arange(n) * np.abs(a_right)))
        res = approx_taylor_multi(
            [(-1.0, r, dd, a_left), (1.0, r, dd, a_right)], B, min(eps, 1 / (4 * B)),
            target=lambda x: 0.75 * delta / np.asarray(x, float))
        for seg in [np.linspace(-1, -delta, 2001), np.linspace(delta, 1, 2001)]:
            err = np.abs(res.evaluate(seg) - 0.75 * delta / seg).max()
            assert err <= eps + 1e-9

    def test_single_patch_degenerates(self):
        a = np.array([1.0, 0.5, 0.25])
        B = float(np.sum(0.75 ** np.arange(3) * np.abs(a)))
        eps = min(1e-4, 1 / (2 * B))
        multi = approx_taylor_multi([(0.0, 0.5, 0.25, a)], B, eps,
                                    target=lambda x: np.polynomial.polynomial.polyval(np.asarray(x), a))
        single = approx_taylor(a, 0.0, 0.5, 0.25, B, eps,
                               target=lambda x: np.polynomial.polynomial.polyval(np.asarray(x), a))
        xs = np.linspace(-0.5, 0.5, 501)
        assert np.abs(multi.evaluate(xs) - single.evaluate(xs)).max() <= 2 * eps


class TestNamed:
    def test_monomial_bound(self):
        res = approx_monomial(100, 30)
        bound = 2 * math.exp(-30 ** 2 / (2 * 100))
        assert np.abs(res.evaluate(DENSE) - DENSE ** 100).max() <= bound

    def test_window_endpoints(self):
        for n in (4, 7):
            res = approx_window(n, 1e-3)
            assert res.evaluate(1.0) == pytest.approx(1.0, abs=1e-9)
            assert res.evaluate(-1.0) == pytest.approx((-1.0) ** n, abs=1e-9)

    def test_window_suppression(self):
        res = approx_window(20, 1e-3)
        lam = res.valid_domain[0][1]
        xs = np.linspace(-lam, lam, 2001)
        assert np.abs(res.evaluate(xs)).max() <= 1e-3 * (1 + 1e-9)

    def test_arcsin_odd_and_accurate(self):
        res = approx_arcsin(0.2, 1e-3)
        assert res.parity == "odd"
        assert abs(res.evaluate(0.0)) < 1e-12
        xs = np.linspace(-0.8, 0.8, 2001)
        assert np.abs(res.evaluate(xs) - 2 / math.pi * np.arcsin(xs)).max() <= 1e-3

    def test_neg_power(self):
        res = approx_named("neg_power", 1e-3, c=2.0, delta=0.25, parity="even")
        xs = np.linspace(0.25, 1, 2001)
        want = 0.25 ** 2 / 2 * xs ** -2.0
        assert np.abs(res.evaluate(xs) - want).max() <= 1e-3
        assert np.abs(res.evaluate(DENSE)).max() <= 1.0

    def test_exp_family(self):
        res = approx_exp(3.0, 1e-5)
        assert np.abs(res.evaluate(DENSE) - np.exp(-3 * (1 - DENSE))).max() <= 1e-5


class TestDegreeMonotonicity:
    @pytest.mark.parametrize("eps_pair", [(1e-2, 1e-4), (1e-3, 1e-6)])
    def test_sign_family(self, eps_pair):
        hi, lo = eps_pair
        assert approx_sign(0.2, lo).degree >= approx_sign(0.2, hi).degree

    def test_trig_family(self):
        assert approx_trig(3.0, 1e-9)[0].degree >= approx_trig(3.0, 1e-3)[0].degree


def test_approx_spec_dispatch():
    from svtkit.approx import ApproxSpec, build
    res = build(ApproxSpec(target="sign", delta=0.3, eps=0.1))
    assert res.parity == "odd"
    res = build(ApproxSpec(target="window", n=6, eps=1e-3))
    assert res.degree == 6
    with pytest.raises(ValueError):
        ApproxSpec(target="inverse", kappa=0.5)


def test_named_forwards_to_registry():
    from svtkit.approx import FAMILIES, ApproxSpec, build
    np.testing.assert_array_equal(
        approx_named("sign", 0.1, delta=0.3).cheb.cheb_coeffs,
        build(ApproxSpec(target="sign", delta=0.3, eps=0.1)).cheb.cheb_coeffs)
    assert set(FAMILIES) == {"sign", "rect", "inverse", "cos", "sin", "exp",
                             "arcsin", "neg_power", "monomial", "window"}
    with pytest.raises(ValueError):
        approx_named("nosuch", 1e-3)


def test_sign_cap_applies_to_returned_degree():
    # sign(0.13, 1e-4) is a degree-505 series on [-1, 1] although its
    # construction on [-2, 2] runs to degree 547
    from svtkit.errors import DegreeOverflow
    deg = approx_sign(0.13, 1e-4).degree
    assert approx_sign(0.13, 1e-4, max_degree=deg).degree == deg
    with pytest.raises(DegreeOverflow):
        approx_sign(0.13, 1e-4, max_degree=deg - 1)
