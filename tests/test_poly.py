import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svtkit import ParityPoly, ChebSeries
from svtkit.errors import DegreeTooLarge
from svtkit.poly import (arithmetic, convert, evaluate, find_roots,
                         monic_from_roots, supnorm)

rng = np.random.default_rng(20240511)


def cheb_unit(d):
    c = np.zeros(d + 1)
    c[d] = 1.0
    return ChebSeries(c)


def horner_reversed(coeffs, x):
    """Independent oracle: summation in the opposite order via powers."""
    total = 0.0 + 0.0j
    for j, c in enumerate(coeffs):
        total += c * x ** j
    return total


class TestEvaluate:
    def test_t5_at_one(self):
        assert evaluate(cheb_unit(5), 1.0) == pytest.approx(1.0)

    def test_t5_defining_identity(self):
        x = np.cos(0.3)
        assert evaluate(cheb_unit(5), x) == pytest.approx(np.cos(1.5), abs=1e-14)

    def test_matches_independent_horner(self):
        coeffs = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        p = ParityPoly(coeffs)
        got = evaluate(p, 0.4)
        want = horner_reversed(p.coeffs, 0.4)
        assert abs(got - want) <= 1e-13 * (1 + np.abs(coeffs).sum())


class TestConvert:
    def test_x_squared(self):
        c = convert(ParityPoly([0, 0, 1.0]))
        np.testing.assert_allclose(c.cheb_coeffs.real, [0.5, 0, 0.5], atol=1e-15)

    def test_t3_closed_form(self):
        p = convert(cheb_unit(3))
        np.testing.assert_allclose(p.coeffs.real, [0, -3, 0, 4], atol=1e-14)

    def test_roundtrip_degree20_even(self):
        c = rng.standard_normal(21)
        c[1::2] = 0
        p = ParityPoly(c)
        back = convert(convert(p))
        n = max(len(back.coeffs), len(p.coeffs))
        a = np.zeros(n, complex); a[: len(p.coeffs)] = p.coeffs
        b = np.zeros(n, complex); b[: len(back.coeffs)] = back.coeffs
        assert np.abs(a - b).max() <= 1e-12 * max(1, np.abs(a).max())

    def test_degree_cap(self):
        with pytest.raises(DegreeTooLarge):
            convert(ParityPoly(np.ones(600)), max_degree=512)


class TestArithmetic:
    def test_real_part(self):
        p = ParityPoly([0, 0, 0, 1 + 2j])
        r = arithmetic(p, op="real_part")
        np.testing.assert_allclose(r.coeffs, [0, 0, 0, 1.0])

    def test_parity_split(self):
        p = ParityPoly([0, 1.0, 1.0])
        ev, od = arithmetic(p, op="parity_split")
        np.testing.assert_allclose(ev.coeffs.real, [0, 0, 2.0])
        np.testing.assert_allclose(od.coeffs.real, [0, 2.0])
        assert ev.parity == "even" and od.parity == "odd"

    def test_multiply_matches_convolution(self):
        a = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        b = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        prod = arithmetic(ParityPoly(a), ParityPoly(b), op="multiply")
        want = np.convolve(a, b)
        assert np.abs(prod.coeffs - want[: len(prod.coeffs)]).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("pa,pb,expect", [
        ("even", "even", "even"), ("odd", "odd", "even"),
        ("even", "odd", "odd"), ("odd", "even", "odd")])
    def test_parity_propagation(self, pa, pb, expect):
        ca = rng.standard_normal(7)
        cb = rng.standard_normal(7)
        ca[0 if pa == "odd" else 1::2] = 0
        cb[0 if pb == "odd" else 1::2] = 0
        if pa == "odd":
            ca[0::2] = 0
        if pb == "odd":
            cb[0::2] = 0
        prod = arithmetic(ParityPoly(ca), ParityPoly(cb), op="multiply")
        assert prod.parity == expect


class TestRoots:
    def test_quadratic(self):
        roots = sorted(find_roots(ParityPoly([-1.0, 0, 1.0])), key=lambda z: z.real)
        np.testing.assert_allclose([r.real for r in roots], [-1, 1], atol=1e-12)

    def test_t4_roots(self):
        p = convert(cheb_unit(4))
        got = np.sort_complex(find_roots(p))
        want = np.sort_complex(np.cos((2 * np.arange(1, 5) - 1) * np.pi / 8).astype(complex))
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_residual_contract_degree_40(self):
        # roots at unit scale, the regime completion polynomials live in
        true_roots = 1.2 * np.exp(2j * np.pi * rng.random(40)) * rng.random(40) ** 0.25
        c = np.polynomial.polynomial.polyfromroots(true_roots)
        p = ParityPoly(c)
        roots = find_roots(p)
        resid = np.abs(evaluate(p, roots)).max() / np.abs(p.coeffs).sum()
        assert resid <= 1e-10

    def test_monic_reconstruction(self):
        c = rng.standard_normal(31)
        p = ParityPoly(c)
        roots = find_roots(p)
        rebuilt = monic_from_roots(roots, leading=p.coeffs[p.degree])
        n = p.degree + 1
        err = np.abs(rebuilt.coeffs[:n] - p.coeffs[:n]).max()
        assert err <= 1e-8 * max(1, np.abs(p.coeffs).max())


class TestSupnorm:
    def test_t9(self):
        p = convert(cheb_unit(9))
        assert supnorm(p, (-1, 1)) == pytest.approx(1.0, abs=1e-9)

    def test_linear(self):
        assert supnorm(ParityPoly([0, 2.0]), (-1, 1)) == pytest.approx(2.0, abs=1e-12)

    def test_grid_stability(self):
        c = rng.standard_normal(15)
        p = ParityPoly(c)
        a = supnorm(p, (-1, 1))
        # brute-force dense grid can only find less-or-equal values
        xs = np.linspace(-1, 1, 100_001)
        dense = np.abs(evaluate(p, xs)).max()
        assert dense <= a + 1e-8


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.booleans(), st.booleans())
def test_parity_closed_under_algebra(da, db, odd_a, odd_b):
    ca = np.arange(1.0, da + 2)
    cb = np.arange(1.0, db + 2)
    ca[0 if odd_a else 1::2] = 0
    cb[0 if odd_b else 1::2] = 0
    if not np.any(ca):
        ca[1 if odd_a else 0] = 1.0
    if not np.any(cb):
        cb[1 if odd_b else 0] = 1.0
    a, b = ParityPoly(ca), ParityPoly(cb)
    prod = arithmetic(a, b, op="multiply")
    assert prod.parity in ("even", "odd")
    idx = 1 if prod.parity == "even" else 0
    assert np.abs(prod.coeffs[idx::2]).max(initial=0.0) == 0.0


def test_json_roundtrip():
    p = ParityPoly([1.0, 0, -0.5 + 0.25j])
    q = ParityPoly.from_json(p.to_json())
    assert q == p
    c = ChebSeries([0.5, 0, 0.25])
    c2 = ChebSeries.from_json(c.to_json())
    np.testing.assert_allclose(c2.cheb_coeffs, c.cheb_coeffs)


def test_parity_closure_thousand_pairs():
    local = np.random.default_rng(55)
    for _ in range(1000):
        da, db = int(local.integers(1, 9)), int(local.integers(1, 9))
        ca = local.standard_normal(da + 1)
        cb = local.standard_normal(db + 1)
        ca[(da % 2) ^ 1::2] = 0.0
        cb[(db % 2) ^ 1::2] = 0.0
        prod = arithmetic(ParityPoly(ca), ParityPoly(cb), op="multiply")
        assert prod.parity in ("even", "odd")
        idx = 1 if prod.parity == "even" else 0
        assert np.abs(prod.coeffs[idx::2]).max(initial=0.0) == 0.0


def test_supnorm_matches_critical_point_oracle():
    local = np.random.default_rng(77)
    for _ in range(20):
        deg = int(local.integers(2, 16))
        p = ParityPoly(local.standard_normal(deg + 1))
        got = supnorm(p, (-1, 1))
        # exact oracle: |p| attains its sup at an endpoint or a root of p'
        crit = np.polynomial.polynomial.polyroots(
            np.polynomial.polynomial.polyder(p.coeffs))
        pts = [z.real for z in crit
               if abs(z.imag) < 1e-10 and -1 <= z.real <= 1]
        pts += [-1.0, 1.0]
        true = max(abs(complex(evaluate(p, x))) for x in pts)
        assert abs(got - true) < 1e-8 * max(1.0, true)


def test_supnorm_of_sign_poly_bounded():
    from svtkit.approx import approx_sign
    res = approx_sign(0.25, 0.01)
    xs = np.linspace(-1, 1, 100_001)
    dense = float(np.abs(res.evaluate(xs)).max())
    assert dense <= 1.0 + 1e-9
    assert supnorm(res.cheb, (-1, 1)) <= 1.0 + 1e-9
