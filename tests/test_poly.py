import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb

from svtkit import ParityPoly, ChebSeries
from svtkit import _chebops as cheb_ops
from svtkit.errors import DegreeTooLarge
from svtkit.poly import convert, evaluate, supnorm

@pytest.fixture
def rng():
    """This module's generator, seeded anew for each test, so that no
    test's draws depend on which tests ran before it."""
    return np.random.default_rng(20240511)


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

    def test_matches_independent_horner(self, rng):
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
        # 4x^3 - 3x = T_3
        c = convert(ParityPoly([0, -3, 0, 4]))
        np.testing.assert_allclose(c.cheb_coeffs, [0, 0, 0, 1], atol=1e-14)
        assert c.parity == "odd"

    def test_roundtrip_degree20_even(self, rng):
        # the monomial -> Chebyshev direction only: the converted series
        # agrees with Horner on the monomial coefficients
        c = rng.standard_normal(21)
        c[1::2] = 0
        p = ParityPoly(c)
        series = convert(p)
        assert series.parity == "even"
        xs = np.linspace(-1, 1, 2001)
        err = np.abs(evaluate(series, xs) - horner_reversed(p.coeffs, xs))
        assert err.max() <= 1e-12 * max(1, np.abs(c).max())

    def test_degree_cap(self):
        with pytest.raises(DegreeTooLarge):
            convert(ParityPoly(np.ones(600)), max_degree=512)


class TestSupnorm:
    def test_t9(self):
        assert supnorm(cheb_unit(9), (-1, 1)) == pytest.approx(1.0, abs=1e-9)

    def test_linear(self):
        assert supnorm(ParityPoly([0, 2.0]), (-1, 1)) == pytest.approx(2.0, abs=1e-12)

    def test_grid_stability(self, rng):
        c = rng.standard_normal(15)
        p = ParityPoly(c)
        a = supnorm(p, (-1, 1))
        # brute-force dense grid can only find less-or-equal values
        xs = np.linspace(-1, 1, 100_001)
        dense = np.abs(evaluate(p, xs)).max()
        assert dense <= a + 1e-8


class TestNormalForm:
    """Both classes build through one normal form: a declared parity that
    a coefficient contradicts above the drop threshold is refused."""

    @pytest.mark.parametrize("cls", [ParityPoly, ChebSeries])
    @pytest.mark.parametrize("coeffs, parity", [([0.4, 0.5], "odd"),
                                                ([1, 1e-3], "even")])
    def test_contradicted_parity_raises(self, cls, coeffs, parity):
        with pytest.raises(ValueError, match=f"declared {parity}"):
            cls(coeffs, parity)

    @pytest.mark.parametrize("cls", [ParityPoly, ChebSeries])
    def test_rounding_noise_is_zeroed(self, cls):
        p = cls([1e-16, 0.5, 0, 0.25], "odd")
        coeffs = p.coeffs if cls is ParityPoly else p.cheb_coeffs
        assert coeffs[0] == 0 and p.degree == 3 and p.parity == "odd"

    @pytest.mark.parametrize("cls", [ParityPoly, ChebSeries])
    def test_immutable(self, cls):
        p = cls([0, 0.5])
        with pytest.raises(AttributeError):
            p.parity = "even"
        with pytest.raises(ValueError):
            (p.coeffs if cls is ParityPoly else p.cheb_coeffs)[1] = 1.0

    def test_two_dimensional_raises(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            ChebSeries(np.eye(2))


class TestOneDirection:
    """A series is never re-expanded in powers: at degree 59 the sign
    series' monomial coefficients reach 6.5e16."""

    def test_convert_refuses_a_series(self):
        from svtkit.approx import approx_sign
        with pytest.raises(TypeError):
            convert(approx_sign(0.185, 1.5e-5).cheb)
        assert not hasattr(ChebSeries, "to_parity_poly")

    def test_parity_poly_refuses_chebyshev_json(self):
        obj = ChebSeries([0.5, 0, 0.25]).to_json()
        with pytest.raises(ValueError, match="monomial"):
            ParityPoly.from_json(obj)

    def test_series_refuses_an_unknown_basis(self):
        obj = dict(ChebSeries([0, 0.5]).to_json(), basis="legendre")
        with pytest.raises(ValueError, match="unknown basis"):
            ChebSeries.from_json(obj)

    def test_series_reads_monomial_json(self):
        obj = ParityPoly([0, -3, 0, 4]).to_json()
        np.testing.assert_allclose(ChebSeries.from_json(obj).cheb_coeffs,
                                   [0, 0, 0, 1], atol=1e-14)


def test_json_roundtrip():
    p = ParityPoly([1.0, 0, -0.5 + 0.25j])
    q = ParityPoly.from_json(p.to_json())
    assert q == p
    c = ChebSeries([0.5, 0, 0.25])
    c2 = ChebSeries.from_json(c.to_json())
    np.testing.assert_allclose(c2.cheb_coeffs, c.cheb_coeffs)


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


def critical_peak(c):
    """max |p| over [-1, 1] at the ends, at the critical points of |p|^2
    (the real roots of Re(conj p p'), from the colleague matrix, polished
    by Newton steps) and on 20,001 points."""
    c = np.asarray(c, complex)
    g = npcheb.chebmul(np.conj(c), npcheb.chebder(c)).real
    pts = [np.linspace(-1.0, 1.0, 20001)]
    if np.abs(g).max(initial=0.0) > 0:
        r = npcheb.chebroots(g)
        r = r[(np.abs(r.imag) < 1e-6) & (np.abs(r.real) <= 1.0)].real
        dg = npcheb.chebder(g)
        for _ in range(3):
            r = np.clip(r - npcheb.chebval(r, g) / npcheb.chebval(r, dg),
                        -1.0, 1.0)
        pts.append(r)
    return float(np.abs(npcheb.chebval(np.concatenate(pts), c)).max())


def fejer_bump(d=300, n=4096):
    """A Fejer bump of degree d centred between two points of the n-point
    DCT grid that `peak` takes at that degree."""
    k = np.arange(d + 1)
    c = 2 * (1 - k / (d + 1)) * np.cos(k * math.pi * 1000.5 / n)
    c[0] = 1.0
    return c


def peak_series(gen):
    """Real and complex series of degree 1-300, then a real and a complex
    Fejer bump."""
    for k in range(24):
        d = int(gen.integers(1, 301))
        c = gen.standard_normal(d + 1) / np.arange(1, d + 2) ** gen.uniform(0, 1.5)
        if k % 2:
            c = c + 1j * gen.standard_normal(d + 1) / (d + 1)
        if k % 3 == 0:
            c[(d + 1) % 2::2] = 0
        yield c
    yield fejer_bump()
    yield np.exp(0.7j) * fejer_bump()


def test_peak_matches_critical_point_reference():
    # both sides round their evaluations; 1e-13 of the peak is far below
    # the 1e-12 at which the completion gate decides
    for c in peak_series(np.random.default_rng(15)):
        ref = critical_peak(c)
        assert abs(cheb_ops.peak(c) - ref) <= 1e-13 * ref, (len(c) - 1, ref)
    # the bump's peak lies between grid points: the grid alone misses it
    grid = np.abs(cheb_ops.dct1_values(fejer_bump(), 4096)).max()
    assert grid < critical_peak(fejer_bump()) * (1 - 1e-4)


def near_end_peak(m, end):
    """0.9 - 0.2 (T_m(x) - T_m(x*))^2, tilted by 1 + 0.05 x toward the
    end x = +-1: its peak is at x* = +-cos(0.6 pi / 2048), less than one
    step of `peak`'s 2048-point grid from that end, whose grid value is
    the highest and is 1.5e-8 (m = 30) to 5.0e-7 (m = 60) below the
    peak."""
    u = np.zeros(m + 1)
    u[m] = 1.0
    u[0] = -math.cos(m * 0.6 * math.pi / 2048)
    c = npcheb.chebmul(npcheb.chebsub([0.9], 0.2 * npcheb.chebmul(u, u)),
                       [1.0, 0.05])
    return c * float(end) ** np.arange(len(c))


def angle_kernel_series():
    # peaks exactly at x = +-1: T_d and 1 - eps + eps T_2 (a flat top at
    # both ends), real and negated
    for d in (1, 2, 7, 40, 41):
        yield np.eye(d + 1)[d]
    for eps in (1e-3, 1e-9):
        yield np.array([1 - eps, 0.0, eps])
        yield -np.array([1 - eps, 0.0, eps])
    # peaks just inside either end
    for m, end in ((30, 1), (30, -1), (60, 1)):
        yield near_end_peak(m, end)
    # complex series, the first peaking at both ends and inside
    yield np.exp(0.4j) * np.eye(12)[11]
    gen = np.random.default_rng(38)
    for d in (9, 33):
        yield (gen.standard_normal(d + 1) + 1j * gen.standard_normal(d + 1)) \
            / np.arange(1, d + 2)
    # flat double-hump tops: 1 - ((x - x0)^2 - h^2)^2 / 10, whose two
    # equal peaks x0 +- h have a dip of h^4 / 10 between them
    for x0, h in ((0.3, 0.01), (-0.71, 0.004), (0.99, 0.005)):
        q = npcheb.chebfromroots([x0 - h, x0 + h])
        yield npcheb.chebsub([1.0], 0.1 * npcheb.chebmul(q, q))
    # degree <= 40 bumps centred midway between two 2048-point grid points
    for d in (3, 12, 40):
        yield fejer_bump(d, 2048)


@pytest.mark.parametrize("c", list(angle_kernel_series()))
def test_peak_in_the_angle_matches_the_reference(c):
    ref = critical_peak(c)
    got = cheb_ops.peak(c)
    assert abs(got - ref) <= 1e-13 * ref, (len(c) - 1, ref)
    # never below the 20,001-point maximum by more than the rounding of
    # either side: the angle sums' ((pi + 1) d + 7) u ||c||_1 and chebval's
    # (d + 1)^2 u ||c||_1
    d, u = len(c) - 1, np.finfo(float).eps / 2
    fine = np.abs(npcheb.chebval(np.linspace(-1.0, 1.0, 20001), c)).max()
    rounding = ((math.pi + 1) * d + 7 + (d + 1) ** 2) * u * np.abs(c).sum()
    assert got >= fine - rounding


def test_supnorm_of_sign_poly_bounded():
    from svtkit.approx import approx_sign
    res = approx_sign(0.25, 0.01)
    xs = np.linspace(-1, 1, 100_001)
    dense = float(np.abs(res.evaluate(xs)).max())
    assert dense <= 1.0 + 1e-9
    assert supnorm(res.cheb, (-1, 1)) <= 1.0 + 1e-9
