import ast
import dataclasses
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import chebyshev as npcheb
from scipy.special import gammaln, ive

from svtkit import _chebops
from svtkit import approx as approx_mod
from svtkit.apps import hamsim
from svtkit.approx import (ApproxResult, ApproxSpec, _certify, _Target,
                           approx_arcsin, approx_exp,
                           approx_inverse, approx_monomial, approx_neg_power,
                           approx_rect, approx_sign, approx_trig,
                           approx_window, bessel_j, build, solve_r)
from svtkit.errors import DegreeOverflow, NumericalFailure
from svtkit.poly import ChebSeries

DENSE = np.linspace(-1, 1, 20001)


class TestSign:
    def test_grid_error(self):
        res = approx_sign(0.3, 0.1)
        xs = np.concatenate([np.linspace(-1, -0.3, 4000),
                             np.linspace(0.3, 1, 4000)])
        assert np.abs(res.evaluate(xs) - np.sign(xs)).max() <= 0.1

    def test_odd_at_zero(self):
        res = approx_sign(0.3, 0.1)
        assert abs(res.evaluate(0.0)) < 1e-12
        assert res.parity == "odd"

    def test_degree_shrinks_with_delta(self):
        d1 = approx_sign(0.1, 0.01).degree
        d2 = approx_sign(0.2, 0.01).degree
        assert 1.5 <= d1 / d2 <= 2.5

    @pytest.mark.parametrize("delta", [2.0, 2.5, 1.5])
    def test_refuses_an_empty_valid_domain(self, delta):
        with pytest.raises(ValueError, match="valid domain .* empty"):
            approx_sign(delta, 0.1)

    @pytest.mark.parametrize("eps", [0.1, 1e-8])
    def test_builds_at_delta_one(self, eps):
        # the valid domain is the two points +-1, where discriminate's
        # one-sided run at b = 1 asks for sign
        res = approx_sign(1.0, eps)
        assert res.degree == 1
        assert res.valid_domain == ((-1.0, -1.0), (1.0, 1.0))
        assert abs(res.evaluate(1.0) - 1.0) <= eps
        assert np.abs(res.evaluate(DENSE)).max() <= 1.0


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
        # the cos series is s (J_0 + 2 sum_k (-1)^k J_2k T_2k), s the scale
        # to its margin, which moves it by at most 7 eps/12
        from scipy.special import jv
        eps = 1e-8
        cos_r, _ = approx_trig(2.7, eps)
        got = cos_r.cheb.cheb_coeffs.real
        k = np.arange(len(got))
        want = np.where(k % 2, 0.0, np.where(k, 2.0, 1.0)
                        * (-1.0) ** (k // 2) * jv(k, 2.7))
        s = got[0] / jv(0, 2.7)
        assert 1 - 7 * eps / 12 <= s <= 1
        np.testing.assert_allclose(got, s * want, rtol=0, atol=1e-12)

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
        res = build(ApproxSpec(target="neg_power", eps=1e-3, c=2.0,
                               delta=0.25, parity="even"))
        xs = np.linspace(0.25, 1, 2001)
        want = 0.25 ** 2 / 2 * xs ** -2.0
        assert np.abs(res.evaluate(xs) - want).max() <= 1e-3
        assert np.abs(res.evaluate(DENSE)).max() <= 1.0

    def test_exp_family(self):
        res = approx_exp(3.0, 1e-5)
        assert np.abs(res.evaluate(DENSE) - np.exp(-3 * (1 - DENSE))).max() <= 1e-5

    @pytest.mark.parametrize("c, delta, eps, parity", [
        (0.5, 0.3, 1e-3, "odd"), (0.5, 0.3, 1e-3, "even"),
        (1.5, 0.2, 1e-3, "odd"), (0.25, 0.4, 1e-4, "even")])
    def test_neg_power_non_integer(self, c, delta, eps, parity):
        # the constructor's own certificate must pass
        res = approx_neg_power(c, delta, eps, parity)
        xs = np.linspace(delta, 1, 2001)
        want = delta ** c / 2 * xs ** -c
        assert np.abs(res.evaluate(xs) - want).max() <= eps
        assert np.abs(res.evaluate(DENSE)).max() <= 1.0


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
    from svtkit.approx import FAMILIES
    np.testing.assert_array_equal(
        approx_sign(0.3, 0.1).cheb.cheb_coeffs,
        build(ApproxSpec(target="sign", delta=0.3, eps=0.1)).cheb.cheb_coeffs)
    assert set(FAMILIES) == {"sign", "rect", "inverse", "cos", "sin", "exp",
                             "arcsin", "neg_power", "monomial", "window"}
    with pytest.raises(ValueError):
        build(ApproxSpec(target="nosuch", eps=1e-3))


@pytest.mark.parametrize("kind, args", [
    ("arcsin", (0.5, 1e-3)), ("arcsin", (0.1, 1e-6)),
    ("arcsin", (0.02, 1e-10)),
    ("fracq", (0.5, 1e-3)), ("fracq", (-1.0, 1e-5)), ("fracq", (0.75, 1e-8)),
    ("neg_power", (2.0, 0.1, 1e-6, "odd")),
    ("neg_power", (3.0, 0.1, 1e-3, "even")),
    ("neg_power", (0.5, 0.25, 1e-3, "even")),
    ("neg_power", (1.0, 0.5, 1e-6, "odd"))])
def test_one_sign_series_bounded_and_accurate(kind, args):
    # max |p| on [-1, 1] by the peak kernel, the error against a
    # 20,001-point reference on the domain each construction promises
    if kind == "arcsin":
        delta, eps = args
        xs = np.linspace(-1 + delta, 1 - delta, 20001)
        pairs = [(approx_arcsin(*args).cheb.cheb_coeffs.real,
                  2 / math.pi * np.arcsin(xs))]
    elif kind == "fracq":
        t, eps = args
        xs = np.linspace(-0.5, 0.5, 20001)
        pairs = zip(hamsim._fracq_poly(*args),
                    (np.cos(t * np.arcsin(xs)), np.sin(t * np.arcsin(xs))))
    else:
        c, delta, eps, _ = args
        xs = np.linspace(delta, 1, 20001)
        pairs = [(approx_neg_power(*args).cheb.cheb_coeffs.real,
                  delta ** c / 2 * xs ** -c)]
    for coeffs, want in pairs:
        assert _chebops.peak(coeffs) <= 1.0
        assert np.abs(npcheb.chebval(xs, coeffs) - want).max() <= eps


def test_one_sign_series_degrees():
    # a fractional query's pair and unitary_log's arcsin at eps 1e-3
    assert max(len(c) - 1 for c in hamsim._fracq_poly(0.5, 1e-3)) <= 16
    assert approx_arcsin(0.5, 2e-3 / math.pi).degree <= 16


def test_one_sign_series_refuses_a_tail_that_never_shrinks():
    # ratio * y_max = 2 keeps the geometric tail bound infinite
    with pytest.raises(DegreeOverflow, match="8 times the cap 16"):
        approx_mod._one_sign_series(1.0, lambda k: 4.0, np.square, 0, 0.5,
                                    1e-3, 16)


def test_degree_is_the_series_degree():
    results = [approx_mod.build(approx_mod.ApproxSpec(target=name))
               for name in approx_mod.FAMILIES]
    results += [approx_trig(20.0, 1e-12)[1], approx_exp(0.0, 0.1)]
    for res in results:
        coeffs = res.to_json()["poly"]["coeffs"]
        assert res.degree == res.cheb.degree == len(coeffs) - 1, res.label


def result_builders(source: str) -> list:
    """(function, line) for each call of ApproxResult, with the name of
    the innermost enclosing function ('' at module level)."""
    found = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr",
                                                                    None)
                if name == "ApproxResult":
                    found.append((fn, child.lineno))
            visit(child, fn)

    visit(ast.parse(source), "")
    return found


def test_detects_a_result_built_outside_certified():
    src = ("def _certified():\n    return ApproxResult(1)\n"
           "def approx_x():\n    return m.ApproxResult(2)\n")
    assert result_builders(src) == [("_certified", 2), ("approx_x", 4)]


def test_every_result_is_built_by_certified():
    # a constructor that built its own result could skip the degree cap
    # or the certificate
    for path in sorted(pathlib.Path(approx_mod.__file__).parent.rglob("*.py")):
        for fn, line in result_builders(path.read_text()):
            assert (path.name, fn) == ("approx.py", "_certified"), (
                f"{path.name}:{line} builds an ApproxResult in {fn or 'module'}")


def test_sign_cap_applies_to_returned_degree():
    # the cap applies to the returned degree, which is the fit's own; the
    # erf series it replaced ran to 311 and 547
    deg = approx_sign(0.13, 1e-4).degree
    assert approx_sign(0.13, 1e-4, max_degree=deg).degree == deg
    with pytest.raises(DegreeOverflow):
        approx_sign(0.13, 1e-4, max_degree=deg - 1)



def test_over_cap_trig_refused_without_a_long_bessel_pass(monkeypatch):
    # a series within eps < 1 of cos(30000 x) has a root between each two
    # of its +-1 points, far more than the cap allows: refused before a
    # Bessel pass, which at this t would run for seconds
    passes = []
    real = approx_mod._miller
    monkeypatch.setattr(approx_mod, "_miller",
                        lambda orders, t, start, *a: passes.append(start)
                        or real(orders, t, start, *a))
    with pytest.raises(DegreeOverflow, match="> cap 512"):
        approx_mod.approx_trig(30000.0, 1e-6, 512)
    assert max(passes, default=0) <= 2 * 512


def test_over_cap_sign_fit_refused_without_larger_fits(monkeypatch):
    # the degree search tries no fit above its cap, 511 for odd fits at
    # cap 512, and refuses once the level at that cap is above the aim
    sizes = []
    real = approx_mod._exchange
    monkeypatch.setattr(approx_mod, "_exchange",
                        lambda m, *a: sizes.append(2 * m) or real(m, *a))
    with pytest.raises(DegreeOverflow, match="more than 511 > cap 512"):
        approx_mod.approx_sign(0.001, 1e-12, 512)
    assert max(sizes) <= 512


# ----------------------------------------------------------------------
# the minimax builder


@pytest.mark.parametrize("family, args, bound", [
    ("sign", (0.089, 0.02), 100),
    ("rect", (0.5713, 0.0287, 0.025), 110),
    ("inverse", (2.5, 1e-3, True), 40)])
def test_minimax_degrees(family, args, bound):
    # the erf-series constructions they replaced: 217, 518 and 353
    build_ = {"sign": approx_sign, "rect": approx_rect,
              "inverse": approx_inverse}[family]
    assert build_(*args).degree <= bound


@pytest.mark.parametrize("eps", [0.1, 1e-3])
@pytest.mark.parametrize("delta", [0.1, 0.3, 0.45])
@pytest.mark.parametrize("t", [0.05, 0.3, 0.5, 0.9])
def test_rect_keeps_its_margin(t, delta, eps):
    # t - delta <= 0 leaves the plateau out, t + delta >= 1 the floor;
    # either way 1 - rect stays a high-pass target inside [eps/4, 1 - eps/4]
    c = np.array(approx_rect(t, delta, eps).cheb.cheb_coeffs.real)
    c[0] -= 0.5
    assert _chebops.peak(c) <= 0.5 - eps / 4 + 1e-15


@pytest.mark.parametrize("kappa, eps", [
    (1.5, 1e-2), (2.5, 1e-3), (3.0, 1e-6), (10.0, 1e-3), (10.0, 0.4)])
def test_bounded_inverse_is_subunit(kappa, eps):
    res = approx_inverse(kappa, eps, bounded=True)
    assert _chebops.peak(res.cheb.cheb_coeffs.real) <= 1.0


REFERENCE = 200_001


@pytest.mark.parametrize("family, args", [
    ("sign", (0.089, 0.02)), ("sign", (0.1, 1e-6)), ("sign", (0.05, 1e-4)),
    ("sign", (0.6, 7e-3)), ("sign", (1.0, 0.1)),
    ("rect", (0.5713, 0.0287, 0.025)), ("rect", (0.4, 0.1, 5e-5)),
    ("rect", (0.5, 0.207, 1.5e-3)), ("rect", (0.1, 0.3, 1e-3)),
    ("rect", (0.8, 0.3, 1e-2)), ("rect", (0.456, 0.452, 1e-11)),
    ("inverse", (2.5, 1e-3)), ("inverse", (10.0, 1e-3)),
    ("inverse", (3.0, 1e-6)),
    *[("neg_power", (c, delta, eps, parity))
      for c, delta, eps in [(0.5, 0.2, 1e-3), (2.0, 0.1, 1e-6),
                            (5.0, 0.3, 1e-4), (8.0, 0.3, 1e-3),
                            (12.0, 0.5, 1e-3)]
      for parity in ("odd", "even")]])
def test_minimax_families_meet_eps_on_a_reference(family, args):
    # all on [-1, 1]; the error only where each promises it, the bound
    # everywhere
    if family == "sign":
        delta, eps = args
        res = approx_sign(*args)
        xs = np.linspace(-1.0, 1.0, REFERENCE)
        want, on = np.sign(xs), np.abs(xs) >= delta
    elif family == "rect":
        t, delta, eps = args
        res = approx_rect(*args)
        xs = np.linspace(-1.0, 1.0, REFERENCE)
        want = (np.abs(xs) <= t).astype(float)
        on = (np.abs(xs) <= t - delta) | (np.abs(xs) >= t + delta)
    elif family == "inverse":
        kappa, eps = args
        res = approx_inverse(kappa, eps, bounded=True)
        xs = np.linspace(-1.0, 1.0, REFERENCE)
        on = np.abs(xs) >= 1.0 / kappa
        want = np.where(on, 1.0 / (2.0 * kappa * np.where(on, xs, 1.0)), 0.0)
    else:
        # both sides of the gap, the negative one by parity
        c, delta, eps, parity = args
        res = approx_neg_power(*args)
        xs = np.linspace(-1.0, 1.0, REFERENCE)
        on = np.abs(xs) >= delta
        mag = delta ** c / 2 * np.abs(np.where(on, xs, 1.0)) ** -c
        want = np.where(on, mag * np.sign(xs) ** (parity == "odd"), 0.0)
    got = res.evaluate(xs)
    assert np.abs(got).max() <= 1.0
    assert np.abs(got - want)[on].max() <= eps


@pytest.mark.parametrize("args, degree", [
    ((1.0, 0.1, 1e-4, "odd"), 149), ((2.0, 0.1, 1e-6, "even"), 300),
    ((3.0, 0.1, 1e-6, "odd"), 417), ((8.0, 0.3, 1e-3, "odd"), 161)])
def test_neg_power_degrees(args, degree):
    # series times (1 - rectangle): 561, 1,178, 1,649 and 615
    assert approx_neg_power(*args).degree <= degree


@pytest.mark.parametrize("beta, eps, degree", [
    (1.0, 1e-4, 5), (2.0, 1e-6, 9), (5.0, 1e-8, 15), (10.0, 1e-6, 17)])
def test_exp_error_is_the_dropped_tail(beta, eps, degree):
    # the monomial sums needed 7, 12, 22 and 28; every dropped Chebyshev
    # coefficient 2 e^-beta I_k(beta) is positive, so the error is largest
    # at x = 1, where it is their sum, and one degree less drops more
    # than eps/2
    res = approx_exp(beta, eps)
    assert res.degree == degree
    dropped = 2 * ive(np.arange(degree + 1, degree + 400), beta).sum()
    assert 1.0 - res.evaluate(1.0) == pytest.approx(dropped, rel=1e-6,
                                                    abs=1e-15)
    assert dropped <= eps / 2 < dropped + 2 * ive(degree, beta)
    err = np.abs(res.evaluate(DENSE) - np.exp(-beta * (1 - DENSE))).max()
    assert err <= dropped + 1e-15
    assert _chebops.peak(res.cheb.cheb_coeffs.real) < 1.0


def test_exp_refuses_a_beta_that_needs_more_than_the_cap():
    # the largest Chebyshev coefficient bounds the degree from below
    with pytest.raises(DegreeOverflow, match="degree at least"):
        approx_exp(1e6, 1e-3, max_degree=512)
    with pytest.raises(ValueError):
        approx_exp(1e-310, 1e-3)


def test_minimax_degree_is_least():
    # one basis function fewer, an exchange on a grid eight times as fine
    # finds a level above the aim, so no polynomial of that degree meets
    # it (de la Vallee Poussin)
    aim, pieces = 1e-4, [(0.1, 1.0)]
    fit = approx_mod._minimax(pieces, np.ones_like, "odd", aim, 512)
    m = (len(fit) - 1) // 2

    def grid(n):
        return approx_mod._fit_points(pieces, np.ones_like, np.ones_like, 1,
                                      8 * n)

    start = np.sqrt(0.01 + 0.99 * (1 - np.cos(
        np.pi * (np.arange(m + 1) + 0.5) / (m + 1))) / 2)
    coeffs, level, _, _ = approx_mod._exchange(m, grid, start, 1, aim)
    assert coeffs is None and level > aim


# ----------------------------------------------------------------------
# kernels: point values, FFT fit, Miller recurrence


@settings(max_examples=60, deadline=None)
@given(degree=st.integers(0, 1000), points=st.integers(1, 300),
       kind=st.sampled_from(["real", "complex", "columns"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_values_matches_chebval(degree, points, kind, seed):
    gen = np.random.default_rng(seed)
    shape = (degree + 1, 3) if kind == "columns" else (degree + 1,)
    c = gen.standard_normal(shape) * 10.0 ** gen.uniform(-3, 3)
    if kind == "complex":
        c = c + 1j * gen.standard_normal(shape)
    ends = [1.0, -1.0, 0.0, 1.0 - 1e-12 * gen.uniform(),
            -1.0 + 1e-12 * gen.uniform(), 1.0 - 1e-16, -1.0 + 1e-16]
    x = gen.uniform(-1.0, 1.0, points)
    x[: len(ends)] = ends[:points]
    got = _chebops.values(c, x)
    assert got.shape == npcheb.chebval(x, c).shape
    # the docstring's bounds: the product's, or Clenshaw's above the
    # crossover.  The reference is chebval in long double: in double, its
    # own rounding near +-1 can exceed the product's bound (1.06 times it
    # at degree 257, x = 1 - 2^-53), so Clenshaw's bound is also allowed
    # in the reference's precision
    wide = np.clongdouble if kind == "complex" else np.longdouble
    want = npcheb.chebval(x.astype(np.longdouble), c.astype(wide))
    u, u_ref = np.finfo(float).eps / 2, np.finfo(np.longdouble).eps / 2
    dense = points <= _chebops._DENSE_POINTS
    own = ((2 * math.pi + 1) * degree + degree + 1 if dense
           else (degree + 1) ** 2) * u
    bound = (own + (degree + 1) ** 2 * u_ref) * np.abs(c).sum(axis=0)
    assert np.all(np.abs(got - want) <= np.expand_dims(bound, -1))


def test_values_runs_clenshaw_above_the_crossover():
    c = np.random.default_rng(3).standard_normal(701)
    x = np.linspace(-1.0, 1.0, _chebops._DENSE_POINTS + 1)
    assert np.array_equal(_chebops.values(c, x), npcheb.chebval(x, c))
    assert np.ndim(_chebops.values(c, 0.5)) == 0


@pytest.mark.parametrize("degree", [3, 30, 300, 1000])
def test_values_routes_agree_across_the_crossover(degree):
    # one point above the crossover runs Clenshaw; the same points in two
    # calls at or below it run the product, and the two agree within the
    # sum of the docstring's bounds
    gen = np.random.default_rng(degree)
    c = gen.standard_normal(degree + 1)
    x = gen.uniform(-1.0, 1.0, _chebops._DENSE_POINTS + 1)
    x[:2] = 1.0, -1.0
    clenshaw = _chebops.values(c, x)
    assert np.array_equal(clenshaw, npcheb.chebval(x, c))
    product = np.concatenate([_chebops.values(c, x[:-1]),
                              _chebops.values(c, x[-1:])])
    u = np.finfo(float).eps / 2
    bound = (((2 * math.pi + 1) * degree + degree + 1 + (degree + 1) ** 2)
             * u * np.abs(c).sum())
    assert np.abs(product - clenshaw).max() <= bound


@pytest.mark.parametrize("bad", [1.0 + 2e-16, -1.5, np.inf, np.nan])
def test_values_refuses_points_off_the_interval(bad):
    with pytest.raises(ValueError):
        _chebops.values(np.ones(4), np.array([0.0, bad]))


@pytest.mark.parametrize("n", [1, 2, 3, 8, 65, 512, 1001, 4096])
@pytest.mark.parametrize("is_complex", [False, True])
def test_fit_matches_direct_cosine_sum(n, is_complex):
    gen = np.random.default_rng(n)
    v = gen.uniform(-1, 1, n)
    if is_complex:
        v = v + 1j * gen.uniform(-1, 1, n)
    k = np.arange(n)
    theta = np.pi * (k + 0.5) / n
    direct = np.concatenate([(2.0 / n) * (np.cos(np.outer(rows, theta)) @ v)
                             for rows in np.array_split(k, max(n // 256, 1))])
    direct[0] /= 2
    np.testing.assert_allclose(_chebops.fit(v, n - 1), direct, rtol=0,
                               atol=1e-13)


def test_bessel_j_is_a_column_of_the_table():
    from scipy.special import jv
    for t in [0.01, 0.7, 7.3, 40.0]:
        np.testing.assert_allclose(bessel_j(60, t), jv(np.arange(61), t),
                                   atol=1e-13)


# ----------------------------------------------------------------------
# the certificate


LINE = _Target(lambda x: x / 2, 1)


def _line(domain, extra=np.zeros(1)):
    """p(x) = x/2 plus the series ``extra``, claiming error 1e-3 on
    ``domain`` against LINE."""
    return ApproxResult(cheb=ChebSeries(_chebops.add(np.array([0.0, 0.5]),
                                                     extra)),
                        claimed_sup_bound=1.0, claimed_error=1e-3,
                        valid_domain=domain, label="line")


def _fejer_bump(theta0, degree, height):
    """F(theta - theta0) + F(theta + theta0), F the Fejer kernel of
    ``degree``, as a Chebyshev series scaled to peak ``height``: a
    nonnegative bump of width about pi/degree around x = cos(theta0)."""
    k = np.arange(1, degree + 1)
    c = np.concatenate([[2.0], 4.0 * (1 - k / (degree + 1))
                        * np.cos(k * theta0)])
    return c * (height / _chebops.peak(c))


def test_certificate_refuses_a_bump_between_grid_points():
    # the retired certificate sampled x_j = cos(pi j / 2^15) and accepted
    # within 1e-9; a bump 1e-9 over the claim, centred between two of
    # those points, reads below the claim on every one of them
    n = 2 ** 15
    bump = _fejer_bump(np.pi * (10_923 + 0.5) / n, 300, 1e-3 * (1 + 1e-6))
    grid = np.cos(np.pi * np.arange(n + 1) / n)
    assert npcheb.chebval(grid, bump).max() < 1e-3
    _certify(_line(((0.1, 0.9),)), LINE)  # control: accepted
    with pytest.raises(NumericalFailure, match="error bound"):
        _certify(_line(((0.1, 0.9),), bump), LINE)


@pytest.mark.parametrize("bad", ["series", "target"])
def test_certificate_refuses_nan(bad):
    # a NaN compares false with any bound, so it must fail the check
    res = _line(((0.1, 0.9),))
    if bad == "series":
        res = dataclasses.replace(
            res, cheb=ChebSeries(np.array([0.0, np.nan]), "odd"))
    target = (_Target(lambda x: np.full_like(x, np.nan)) if bad == "target"
              else LINE)
    with pytest.raises(NumericalFailure):
        _certify(res, target)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_certified_refuses_non_finite_coefficients(bad):
    # before the series drops the parity the non-finite value sits on
    with pytest.raises(NumericalFailure, match="non-finite"):
        approx_mod._certified(np.array([bad, 0.5]), None, LINE,
                              1.0, 1e-3, ((0.1, 0.9),), "line", 10)


CERTIFIED = [
    ("sign", dict(delta=0.25, eps=1e-12)), ("sign", dict(delta=1.0, eps=0.1)),
    ("rect", dict(t=0.4, delta=0.05, eps=1e-6)),
    ("inverse", dict(kappa=8.0, eps=1e-3)),
    ("inverse", dict(kappa=2.6, eps=2e-4, bounded=True)),
    ("neg_power", dict(c=1.5, delta=0.2, eps=1e-3)),
    ("neg_power", dict(c=0.5, delta=0.1, eps=1e-3, parity="even")),
    ("arcsin", dict(delta=0.02, eps=1e-6)),
    ("exp", dict(beta=0.0, eps=1e-3)), ("exp", dict(beta=40.0, eps=1e-6)),
    ("cos", dict(t=20.0, eps=1e-8)), ("sin", dict(t=20.0, eps=1e-8)),
    ("monomial", dict(s=100, d=30)), ("window", dict(n=31, eps=1e-5))]


def test_reference_rows_cover_every_family():
    assert {family for family, _ in CERTIFIED} == set(approx_mod.FAMILIES)


@pytest.mark.parametrize("family, kw", CERTIFIED,
                         ids=[f"{f}-{i}" for i, (f, _) in enumerate(CERTIFIED)])
def test_certificate_bounds_a_reference(family, kw, monkeypatch):
    # on each piece the error bound is at least the error on 200,001
    # points (p in long double) and at most the claim, and the sup at
    # least max |p|; the last two within the certificate's rounding term,
    # since the window's error equals its claim and `_to_peak`'s top may
    # be exceeded by rounding
    monkeypatch.setattr(approx_mod, "_MEMO", {})
    seen = {}
    real = approx_mod._certify

    def spy(res, target, sup=None):
        seen[id(res)] = target, real(res, target, sup)
        return seen[id(res)][1]

    monkeypatch.setattr(approx_mod, "_certify", spy)
    res = build(ApproxSpec(target=family, **kw))
    target, (pieces, sup) = seen[id(res)]
    c = res.cheb.cheb_coeffs.real
    assert len(pieces) == len(res.valid_domain) > 0
    for (lo, hi), (bound, r) in zip(res.valid_domain, pieces):
        xs = np.linspace(lo, hi, REFERENCE)
        got = npcheb.chebval(xs.astype(np.longdouble),
                             c.astype(np.longdouble))
        assert np.abs(got - target.f(xs)).max() <= bound
        assert bound <= res.claimed_error + r
    d = len(c) - 1
    own = ((2 * math.pi + 1) * d + d + 1) * 2.0 ** -53 * np.abs(c).sum()
    xs = np.linspace(-1.0, 1.0, REFERENCE)
    assert np.abs(npcheb.chebval(xs.astype(np.longdouble),
                                 c.astype(np.longdouble))).max() <= sup + own


MIRRORED = [("sign", dict(delta=0.25, eps=1e-6), 1),
            ("rect", dict(t=0.4, delta=0.05, eps=1e-6), 2),
            ("inverse", dict(kappa=2.6, eps=2e-4, bounded=True), 1),
            ("exp", dict(beta=40.0, eps=1e-6), 1),
            ("window", dict(n=31, eps=1e-5), 1)]


@pytest.mark.parametrize("family, kw, calls", MIRRORED,
                         ids=[f for f, _, _ in MIRRORED])
def test_mirrored_pieces_are_certified_once(family, kw, calls, monkeypatch):
    # a piece whose mirror image was bounded takes its (bound, r): sign
    # bounds one of its two pieces, rect two of three; exp and window,
    # with no symmetry, bound all.  Bounding every piece anew gives the
    # same verdict, and each mirror's own bound within its rounding term
    monkeypatch.setattr(approx_mod, "_MEMO", {})
    seen, bounded = {}, []
    real_certify, real_piece = approx_mod._certify, approx_mod._piece_error

    def spy(res, target, sup=None):
        seen["res"], seen["target"] = res, target
        seen["out"] = real_certify(res, target, sup)
        return seen["out"]

    def count(c, own, target, lo, hi, claim):
        bounded.append((lo, hi))
        return real_piece(c, own, target, lo, hi, claim)

    monkeypatch.setattr(approx_mod, "_certify", spy)
    monkeypatch.setattr(approx_mod, "_piece_error", count)
    build(ApproxSpec(target=family, **kw))
    res, target, (pieces, _) = seen["res"], seen["target"], seen["out"]
    assert len(bounded) == calls
    assert len(pieces) == len(res.valid_domain)
    every, _ = real_certify(res, dataclasses.replace(target, symmetry="none"))
    by_piece = dict(zip(res.valid_domain, pieces))
    for (lo, hi), (bound, r), (alone, _) in zip(res.valid_domain, pieces,
                                                every):
        if (-hi, -lo) in by_piece and (lo, hi) not in bounded:
            assert (bound, r) == by_piece[-hi, -lo]
        assert abs(alone - bound) <= r


@pytest.mark.parametrize("symmetry, calls", [("odd", 1), ("even", 2),
                                             ("none", 2)])
def test_a_mirror_is_reused_only_for_a_matching_parity(symmetry, calls,
                                                       monkeypatch):
    # p(x) = x/2 is odd: an odd line reuses the mirror piece, an even one
    # (wrongly declared) and one without symmetry bound both
    bounded = []
    real = approx_mod._piece_error
    monkeypatch.setattr(approx_mod, "_piece_error",
                        lambda *a: bounded.append(a) or real(*a))
    _certify(_line(((-0.9, -0.1), (0.1, 0.9))),
             dataclasses.replace(LINE, symmetry=symmetry))
    assert len(bounded) == calls


@pytest.mark.parametrize("kappa, eps", [(3.0, 1e-3), (8.0, 1e-5),
                                        (12.0, 1e-6)])
def test_claimed_sup_is_the_peak(kappa, eps):
    # the certificate grid's own max missed the sup by 1.3e-7 to 3.8e-5
    res = approx_inverse(kappa, eps)
    coeffs = res.cheb.cheb_coeffs.real
    assert res.claimed_sup_bound == _chebops.peak(coeffs)
    xs = np.linspace(-1.0, 1.0, 200_001)
    assert res.claimed_sup_bound >= np.abs(npcheb.chebval(xs, coeffs)).max()


def _svt_targets(monkeypatch, module, run):
    """The series ``run`` hands to ``module.svt_apply``."""
    seen = []
    real = module.svt_apply
    monkeypatch.setattr(module, "svt_apply",
                        lambda pu, p, **kw: seen.append(p) or real(pu, p, **kw))
    run()
    return [p.cheb_coeffs.real for p in seen]


def _pinv_threshold_targets(monkeypatch):
    from svtkit.apps import solve
    from svtkit.blockenc import embed
    pu = embed(np.diag([0.7, 0.08]), 1.0).pu
    return [(c, 1e-3 / 2) for c in _svt_targets(
        monkeypatch, solve,
        lambda: solve.pseudoinverse(pu, 0.1, 1e-3, threshold_mode=0.4))]


def _amplify_targets(monkeypatch):
    from svtkit.apps import amplify
    from svtkit.blockenc import embed
    pu = embed(np.diag([0.1, 0.3]), 1.0).pu
    return [(c, 1e-4 / 2) for c in _svt_targets(
        monkeypatch, amplify,
        lambda: amplify.amplify_singular_values(pu, 2.0, 0.2, 1e-4))]


@pytest.mark.parametrize("build_", [
    *[lambda _, t=t: [(r.cheb.cheb_coeffs.real, 1e-8)
                      for r in approx_trig(t, 1e-8)]
      for t in (0.2, 1.4, 5.0, 20.0)],
    lambda _: [(approx_arcsin(d, e).cheb.cheb_coeffs.real, e)
               for d, e in ((0.5, 1e-3), (0.1, 1e-6))],
    lambda _: [(c, 3 * 1e-5 / 8) for t in (0.6, 1.0, -1.0)
               for c in hamsim._fracq_poly(t, 1e-5)],
    _pinv_threshold_targets,
    _amplify_targets,
], ids=["trig-0.2", "trig-1.4", "trig-5", "trig-20", "arcsin", "fracq",
        "pinv-threshold", "amplify"])
def test_phase_targets_keep_their_margin(build_, monkeypatch):
    # each target of error budget b peaks at most 1 - b/4, up to the
    # rounding of re-measuring the peak of a scaled series
    targets = build_(monkeypatch)
    assert targets
    for coeffs, b in targets:
        assert _chebops.peak(coeffs) <= 1 - b / 4 + 1e-14


# ----------------------------------------------------------------------
# the constructor memo


class TestMemo:
    def test_repeat_returns_identical_object(self):
        assert approx_sign(0.3, 0.1) is approx_sign(0.3, 0.1)
        assert approx_trig(1.3, 1e-6) is approx_trig(1.3, 1e-6)

    def test_positional_and_keyword_calls_share_an_entry(self, monkeypatch):
        monkeypatch.setattr(approx_mod, "_MEMO", {})
        a = approx_rect(0.5, 0.1, 0.05)
        assert approx_rect(eps_p=0.05, t=0.5, delta_p=0.1,
                           max_degree=approx_mod.LIB_MAX_DEGREE) is a
        assert approx_rect(0.5, 0.1, 0.05, approx_mod.LIB_MAX_DEGREE) is a
        assert approx_inverse(4.0, 0.01, True) is approx_inverse(
            4.0, 0.01, bounded=True)
        assert approx_rect(0.5, 0.1, 0.05, max_degree=600) is not a
        assert len(approx_mod._MEMO) == 3  # the two rects and the inverse

    def test_returned_arrays_refuse_writes(self):
        results = [approx_sign(0.3, 0.1), approx_rect(0.5, 0.1, 0.05),
                   approx_inverse(4.0, 0.01), *approx_trig(1.3, 1e-6),
                   approx_exp(2.0, 1e-4), approx_arcsin(0.3, 1e-3),
                   build(ApproxSpec(target="neg_power", eps=1e-3, c=1.0,
                                    delta=0.3)),
                   approx_window(6, 1e-3), approx_monomial(10, 5)]
        arrays = [r.cheb.cheb_coeffs for r in results]
        arrays.extend(hamsim._fracq_poly(0.25, 1e-3))
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_degree_overflow_is_raised_every_time(self, monkeypatch):
        builds = []
        real = approx_mod._minimax
        monkeypatch.setattr(approx_mod, "_minimax",
                            lambda *a, **k: builds.append(a) or real(*a, **k))
        for _ in range(2):
            with pytest.raises(DegreeOverflow):
                approx_sign(0.05, 1e-6, max_degree=10)
        assert len(builds) == 2

    def test_memo_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(approx_mod, "_MEMO", {})
        monkeypatch.setattr(approx_mod, "_MEMO_MAX", 4)
        built = [approx_monomial(8, d) for d in range(1, 9)]
        assert len(approx_mod._MEMO) == 4
        assert approx_monomial(8, 8) is built[-1]
        assert approx_monomial(8, 1) is not built[0]

    def test_fractional_query_builds_its_polynomial_once(self, monkeypatch):
        import scipy.linalg
        from svtkit.apps import fractional_query
        monkeypatch.setattr(approx_mod, "_MEMO", {})
        calls = []
        real = hamsim._one_sign_series
        monkeypatch.setattr(hamsim, "_one_sign_series",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        u = scipy.linalg.expm(1j * np.diag([0.3, -0.2]))
        for _ in range(2):
            fractional_query(u, 0.25, 1e-3)
        assert len(calls) == 2


# the scipy functions the library replaced, as oracles

def _gammaln_log_factorials(n):
    return gammaln(np.arange(n + 1) + 1.0)


def test_log_factorials_match_gammaln():
    np.testing.assert_allclose(approx_mod._log_factorials(3000),
                               _gammaln_log_factorials(3000),
                               rtol=1e-14, atol=0)


@pytest.mark.parametrize("s", [1, 2, 7, 24, 60, 200, 800])
def test_monomial_weights_match_gammaln(s, monkeypatch):
    got = approx_mod._monomial_cheb(s, s)
    monkeypatch.setattr(approx_mod, "_log_factorials",
                        _gammaln_log_factorials)
    want = approx_mod._monomial_cheb(s, s)
    # each log-weight is log s! - log k! - log (s-k)!: in double precision
    # either table is off by about one spacing of log s!, and exp turns
    # that absolute error into a relative one
    rtol = 1e-14 + 8 * np.spacing(gammaln(s + 1.0))
    np.testing.assert_allclose(got, want, rtol=rtol, atol=0)
