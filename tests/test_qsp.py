import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svtkit import ParityPoly, ChebSeries
from svtkit import _chebops, qsp
from svtkit import approx as approx_mod
from svtkit.approx import (approx_inverse, approx_rect, approx_sign,
                           approx_trig)
from svtkit.errors import Inadmissible, NotSubunit, NumericalFailure
from svtkit.qsp import (PhaseSequence, SignalPair, check_admissible,
                        chebyshev_phases, complete, phases_for_target,
                        phases_from_pq, qsp_eval, to_reflection)

@pytest.fixture
def rng():
    """This module's generator, seeded anew for each test, so that no
    test's draws depend on which tests ran before it."""
    return np.random.default_rng(42)
GRID = np.cos(np.linspace(0.001, math.pi - 0.001, 500))


def cheb_unit(d):
    c = np.zeros(d + 1)
    c[d] = 1.0
    return ChebSeries(c)


def random_target(deg, supnorm, gen):
    c = gen.standard_normal(deg + 1)
    c[(deg % 2) ^ 1::2] = 0.0
    c *= supnorm / _chebops.peak(c)
    return ChebSeries(c)


class TestQspEval:
    def test_trivial_even_sequence(self):
        phi = PhaseSequence(np.array([0.7, np.pi / 2, -np.pi / 2]), "wx_sandwich")
        for x in (-0.5, 0.1, 0.9):
            m = qsp_eval(phi, x)
            want = np.diag([np.exp(0.7j), np.exp(-0.7j)])
            np.testing.assert_allclose(m, want, atol=1e-14)

    def test_reflection_at_endpoints(self, rng):
        phis = rng.uniform(-np.pi, np.pi, 5)
        seq = PhaseSequence(phis, "reflection")
        for x in (-1.0, 1.0):
            m = qsp_eval(seq, x)
            want = x ** 5 * np.prod(np.exp(1j * seq.phis))
            assert abs(m[0, 0] - want) < 1e-12

    def test_chebyshev_phases_reproduce_td(self):
        for d in (1, 2, 5, 10):
            seq = chebyshev_phases(d)
            vals = qsp_eval(seq, GRID)[:, 0, 0]
            want = np.cos(d * np.arccos(GRID))
            assert np.abs(vals - want).max() < 1e-11

    def test_unitarity_property(self, rng):
        phis = rng.uniform(-np.pi, np.pi, 9)
        seq = PhaseSequence(phis, "reflection")
        ms = qsp_eval(seq, GRID[:50])
        for m in ms:
            assert np.abs(m.conj().T @ m - np.eye(2)).max() < 1e-12

    def test_gauge_pair_appending(self, rng):
        phis = rng.uniform(-np.pi, np.pi, 4)
        seq = PhaseSequence(phis, "wx_sandwich")
        padded = PhaseSequence(np.concatenate([phis, [np.pi / 2, -np.pi / 2]]),
                               "wx_sandwich")
        a = qsp_eval(seq, GRID[:40])
        b = qsp_eval(padded, GRID[:40])
        assert np.abs(a - b).max() < 1e-12


class TestAdmissible:
    def test_t7_admissible(self):
        rep = check_admissible(cheb_unit(7))
        assert rep["admissible"]

    def test_half_x_real_but_not_complex(self):
        p = ParityPoly([0, 0.5])
        qsp._completion_gap(np.array([0.0, 0.5]))  # a real target: accepted
        rep = check_admissible(p)
        assert not rep["admissible"]
        assert rep["outside_margin"] < 0

    def test_sign_poly_real_admissible(self):
        res = approx_sign(0.3, 0.1)
        qsp._completion_gap(res.cheb.cheb_coeffs.real)
        xs = np.cos(np.linspace(0, math.pi, 2001))
        assert np.abs(res.cheb(xs)).max() <= 1 - 1e-9


class TestComplete:
    def test_constant_one(self):
        pair = complete(ParityPoly([1.0]))
        assert abs(pair.p_value(0.3) - 1.0) < 1e-12
        assert abs(pair.q_value(0.3)) < 1e-12

    def test_t3(self):
        pair = complete(cheb_unit(3))
        xs = GRID
        want = 1 - np.cos(3 * np.arccos(xs)) ** 2
        got = (1 - xs ** 2) * np.abs(pair.q_value(xs)) ** 2
        assert np.abs(got - want).max() < 1e-10

    def test_sign_poly_invariants(self):
        res = approx_sign(0.2, 0.05)
        pair = complete(res.cheb)
        assert pair.unitarity_defect() < 1e-10

    def test_not_subunit_rejected(self):
        with pytest.raises((NotSubunit, Inadmissible, NumericalFailure)):
            complete(ParityPoly([0, 1.2]))  # |p(1)| = 1.2 > 1

    def test_imaginary_part_refused(self):
        # the gate refuses it as phases_for_target does, not completing 0.5x
        with pytest.raises(Inadmissible):
            complete([0, 0.5 + 0.3j])

    def test_spectral_method_matches(self, rng):
        # completion has one route; its pair meets the bound both old
        # factorization methods were held to
        assert complete(random_target(14, 0.9, rng)).unitarity_defect() < 1e-11

    @pytest.mark.parametrize("delta", [0.25, 0.3, 0.4])
    def test_tight_sign_targets_complete(self, delta):
        # peak 1 - 2.5e-13: the gate must see the target as given and the
        # cut be rescaled, as for phases_for_target, or delta 0.25 is
        # refused as NotSubunit
        c = approx_sign(delta, 1e-12).cheb.cheb_coeffs.real
        pair = complete(c)
        assert pair.unitarity_defect() <= 1e-10
        xs = np.linspace(-1.0, 1.0, 20001)
        got = pair.p_value(xs).real
        assert np.abs(got - np.polynomial.chebyshev.chebval(xs, c)).max() \
            <= 1e-10


class TestPhasesFromPq:
    def test_constant_pair(self):
        pair = SignalPair(np.array([np.exp(0.4j)]), np.zeros(1))
        seq = phases_from_pq(pair)
        assert seq.convention == "wx_sandwich"
        assert seq.phis[0] == pytest.approx(0.4, abs=1e-12)

    def test_t2_roundtrip(self):
        pair = complete(cheb_unit(2))
        seq = phases_from_pq(pair)
        rec = qsp_eval(seq, GRID)[:, 0, 0]
        assert np.abs(rec - pair.p_value(GRID)).max() < 1e-11

    def test_degree_drop_instrumented(self, rng):
        tgt = random_target(9, 0.9, rng)
        pair = complete(tgt)
        seq = phases_from_pq(pair)
        assert len(seq.phis) == pair.k + 1

    def test_random_roundtrip_degrees(self, rng):
        for deg in (4, 7, 12, 19):
            tgt = random_target(deg, 0.9, rng)
            pair = complete(tgt)
            seq = phases_from_pq(pair)
            rec = qsp_eval(seq, GRID)
            assert np.abs(rec[:, 0, 0] - pair.p_value(GRID)).max() < 1e-10
            qs = rec[:, 0, 1] / (1j * np.sqrt(1 - GRID ** 2))
            assert np.abs(qs - pair.q_value(GRID)).max() < 1e-9


class TestToReflection:
    def test_degree_one_identity_target(self):
        seq = to_reflection(PhaseSequence(np.array([0.0, 0.0]), "wx_sandwich"))
        assert seq.convention == "reflection"
        vals = qsp_eval(seq, GRID)[:, 0, 0]
        assert np.abs(vals - GRID).max() < 1e-13

    def test_topleft_preserved_random(self, rng):
        phis = rng.uniform(-np.pi, np.pi, 9)
        sandwich = PhaseSequence(phis, "wx_sandwich")
        refl = to_reflection(sandwich)
        a = qsp_eval(sandwich, GRID)[:, 0, 0]
        b = qsp_eval(refl, GRID)[:, 0, 0]
        assert np.abs(a - b).max() < 1e-11

    def test_chebyshev_consistency(self):
        # complete(T_5) -> phases, against the closed-form lemma phases
        pair = complete(cheb_unit(5))
        refl = to_reflection(phases_from_pq(pair))
        got = qsp_eval(refl, GRID)[:, 0, 0]
        want = qsp_eval(chebyshev_phases(5), GRID)[:, 0, 0]
        # same real part (gauge may differ by a phase on the imaginary part)
        assert np.abs(got.real - want.real).max() < 1e-10


class TestRealQsp:
    def test_t5_gauge_equivalence(self):
        refl, _ = phases_for_target(cheb_unit(5), tol=1e-9)
        got = qsp_eval(refl, GRID)[:, 0, 0].real
        want = np.cos(5 * np.arccos(GRID))
        assert np.abs(got - want).max() < 1e-9

    def test_linear_target(self):
        refl, _ = phases_for_target(ParityPoly([0, 0.9]), tol=1e-8)
        got = qsp_eval(refl, GRID)[:, 0, 0].real
        assert np.abs(got - 0.9 * GRID).max() < 1e-8

    def test_rect_target(self):
        res = approx_rect(0.5, 0.1, 0.05)
        refl, _ = phases_for_target(res.cheb, tol=1e-8)
        assert len(refl.phis) % 2 == 0  # even-degree sequence
        got = qsp_eval(refl, GRID)[:, 0, 0].real
        want = res.evaluate(GRID)
        assert np.abs(got - want).max() < 1e-8

    def test_degree_60_at_1e10(self, rng):
        tgt = random_target(60, 0.95, rng)
        refl, _ = phases_for_target(tgt, tol=1e-10)
        got = qsp_eval(refl, GRID)[:, 0, 0].real
        want = np.polynomial.chebyshev.chebval(GRID, tgt.cheb_coeffs).real
        assert np.abs(got - want).max() < 1e-10

    def test_inadmissible_rejected(self):
        with pytest.raises(Inadmissible):
            phases_for_target(ParityPoly([0, 1.5]))


# Chebyshev-Lobatto points: neither the certificate grid nor the Newton
# solver's nodes cos((j + 1/2) pi / 2n), since 1001 is odd
LOBATTO = np.cos(np.pi * np.arange(1002) / 1001)


def lobatto_error(refl, c):
    got = qsp_eval(refl, LOBATTO)[:, 0, 0].real
    want = np.polynomial.chebyshev.chebval(LOBATTO, c)
    return float(np.abs(got - want).max())


@settings(max_examples=200, deadline=None)
@given(deg=st.integers(1, 100), seed=st.integers(0, 2 ** 32 - 1))
def test_roundtrip_by_degree_and_parity(deg, seed):
    c = random_target(deg, 0.99, np.random.default_rng(seed)).cheb_coeffs
    refl, _ = phases_for_target(c, tol=1e-12)
    assert len(refl.phis) == deg
    assert lobatto_error(refl, c) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(deg=st.integers(1, 120), seed=st.integers(0, 2 ** 32 - 1))
def test_completion_by_degree_and_parity(deg, seed):
    c = random_target(deg, 0.9, np.random.default_rng(seed)).cheb_coeffs
    pair = complete(c)
    assert pair.unitarity_defect() <= 1e-11
    real = pair.p_value(LOBATTO).real
    assert np.abs(real - np.polynomial.chebyshev.chebval(LOBATTO, c)).max() \
        <= 1e-12
    assert (len(phases_from_pq(pair).phis)
            == len(phases_for_target(c)[0].phis) + 1)


def peaked_target(peak, deg=30, seed=1):
    """Random parity target scaled so that max |f| = peak, reached at an
    interior critical point."""
    c = random_target(deg, 1.0, np.random.default_rng(seed)).cheb_coeffs
    crit = np.polynomial.chebyshev.chebroots(
        np.polynomial.chebyshev.chebder(c))
    crit = crit[(np.abs(crit.imag) < 1e-12) & (np.abs(crit.real) < 1)].real
    pts = np.concatenate([crit, [-1.0, 1.0]])
    vals = np.abs(np.polynomial.chebyshev.chebval(pts, c))
    assert abs(pts[np.argmax(vals)]) < 1
    return c * peak / vals.max()


@pytest.mark.parametrize("m", [1, 2, 3, 7, 50, 101, 63, 64, 65, 128, 300])
def test_su2_prefixes_match_running_products(m):
    gen = np.random.default_rng(m)
    ang = gen.uniform(0, 2 * np.pi, (3, m, 4))
    la = np.cos(ang[0]) * np.exp(1j * ang[1])
    lb = np.sin(ang[0]) * np.exp(1j * ang[2])
    pa, pb = qsp._su2_prefixes(la, lb)
    run = np.broadcast_to(np.eye(2, dtype=complex), (4, 2, 2))
    for j in range(m):
        layer = np.array([[la[j], lb[j]], [-np.conj(lb[j]), np.conj(la[j])]])
        run = run @ np.moveaxis(layer, -1, 0)
        np.testing.assert_allclose(pa[j], run[:, 0, 0], atol=1e-13)
        np.testing.assert_allclose(pb[j], run[:, 0, 1], atol=1e-13)


class TestPhasesForTarget:
    @pytest.mark.parametrize("target", [
        pytest.param(lambda: approx_trig(1.0, 1e-9)[1].cheb, id="sin"),
        pytest.param(lambda: approx_sign(0.6, 1e-9).cheb, id="sign"),
    ])
    def test_tight_tolerance(self, target):
        # completion + stripping misses 1e-10 on both
        tgt = target()
        refl, rep = phases_for_target(tgt, tol=1e-10)
        assert rep["reconstruction_error"] <= 1e-10
        assert lobatto_error(refl, tgt.cheb_coeffs.real) <= 1e-10
        assert complete(tgt, 1e-10).unitarity_defect() <= 1e-10

    @pytest.mark.parametrize("c", [1.0, 0.5, -0.3, 0.0, -1.0])
    def test_constant_target(self, c):
        # a nonzero constant takes (arccos c, 0); zero keeps its one layer
        refl, rep = phases_for_target([c], tol=1e-12)
        assert len(refl.phis) == (1 if c == 0 else 2)
        if c:
            np.testing.assert_allclose(refl.phis, [math.acos(c), 0.0])
        assert rep["reconstruction_error"] <= 1e-13
        assert lobatto_error(refl, np.array([c])) <= 1e-15
        assert complete([c], 1e-12).unitarity_defect() <= 1e-14

    def test_high_degree_sign(self):
        # degree 523 before the cut; completion reaches only 3.6e-7 here
        tgt = approx_sign(0.185, 1e-6).cheb
        refl, rep = phases_for_target(tgt, tol=1e-7)
        assert rep["reconstruction_error"] <= 1e-7
        assert lobatto_error(refl, tgt.cheb_coeffs.real) <= 1e-7

    def test_phase_count_matches_completion(self):
        # the circuit is no longer than the one completion + stripping gives
        tgt = approx_inverse(2.0, 1e-2, bounded=True).cheb
        refl, _ = phases_for_target(tgt, tol=1e-3)
        assert len(refl.phis) == len(phases_from_pq(complete(tgt)).phis) - 1

    def test_stops_at_the_rounding_floor(self, monkeypatch):
        # an unreachable goal: the iteration must stop once the residual
        # stops falling, and the certificate accepts that iterate
        steps = []
        solve = np.linalg.solve

        def counted(a, b):
            steps.append(1)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        c = random_target(40, 0.9, np.random.default_rng(3)).cheb_coeffs.real
        _, resid = qsp._symmetric_phases(c, goal=0.0)
        assert resid <= qsp.NEWTON_GOAL
        assert len(steps) < qsp.NEWTON_MAX_ITER

    def test_interior_peak_near_one(self):
        c = peaked_target(1 - 1e-9)
        refl, _ = phases_for_target(c, tol=1e-10)
        assert lobatto_error(refl, c) <= 1e-10

    def test_interior_peak_above_one_refused(self):
        with pytest.raises(NotSubunit):
            phases_for_target(peaked_target(1 + 1e-9), tol=1e-10)

    def test_mixed_parity_refused(self):
        with pytest.raises(Inadmissible):
            phases_for_target(np.array([0.0, 0.5, 0.3]), tol=1e-10)

    def test_imaginary_part_refused(self):
        # Re c = 0.5 T0 alone is admissible; the odd imaginary part breaks
        # parity and is refused, not dropped
        with pytest.raises(Inadmissible):
            phases_for_target(np.array([0.5, 0.5j]), tol=1e-10)
        with pytest.raises(Inadmissible):
            phases_for_target(np.array([0.0, 0.5, 0.0, 1e-6j]))


def symmetric_phis(psi, d):
    j = np.arange(d + 1)
    return psi[np.minimum(j, d - j)]


def re_u00(psi, d, xs):
    seq = PhaseSequence(symmetric_phis(psi, d), "wx_sandwich")
    return qsp_eval(seq, xs)[:, 0, 0].real


class TestHalfProduct:
    """`_half_product` forms U from the free half of a symmetric sequence."""

    @pytest.mark.parametrize("d", list(range(1, 81)))
    def test_matches_the_full_product(self, d):
        gen = np.random.default_rng(d)
        n = d // 2 + 1
        psi = gen.uniform(-np.pi, np.pi, n)
        xs = np.cos(np.pi * (np.arange(n) + 0.5) / (2 * n))
        ws = 1j * np.sqrt(1.0 - xs ** 2)
        u00, u01, _ = qsp._half_product(psi, d, xs, ws)
        full = qsp_eval(PhaseSequence(symmetric_phis(psi, d), "wx_sandwich"),
                        xs)
        assert np.abs(u00 - full[:, 0, 0]).max() <= 1e-13
        assert np.abs(u01 - full[:, 0, 1]).max() <= 1e-13

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 9, 16, 31, 50, 79, 80])
    def test_jacobian_matches_central_differences(self, d):
        gen = np.random.default_rng(100 + d)
        n = d // 2 + 1
        psi = gen.uniform(-np.pi, np.pi, n)
        xs = np.cos(np.pi * (np.arange(n) + 0.5) / (2 * n))
        ws = 1j * np.sqrt(1.0 - xs ** 2)
        _, _, jac = qsp._half_product(psi, d, xs, ws)
        h = 1e-5
        fd = np.empty((n, n))
        for k in range(n):
            step = np.zeros(n)
            step[k] = h
            fd[:, k] = (re_u00(psi + step, d, xs)
                        - re_u00(psi - step, d, xs)) / (2 * h)
        np.testing.assert_allclose(jac, fd, atol=1e-8)


def bracket_jacobian(psi, d, xs, ws):
    """`_half_product`'s Jacobian as the complex bracket it was first
    written as, kept verbatim."""
    n = len(psi)
    e = np.exp(1j * psi)[:, None]
    la, lb = xs * e, ws / e
    la[0], lb[0] = e[0], 0.0
    pa, pb = qsp._su2_prefixes(la, lb)
    ba, bb = qsp._su2_mul(pa[d - n], pb[d - n], xs, ws)
    u00 = pa[-1] * ba + pb[-1] * bb
    u01 = pb[-1] * np.conj(ba) - pa[-1] * np.conj(bb)
    jac = -2.0 * ((pa.real ** 2 + pa.imag ** 2 - pb.real ** 2 - pb.imag ** 2)
                  * u00 + 2.0 * pa * pb * np.conj(u01)).imag.T
    if d % 2 == 0:
        jac[:, -1] /= 2.0
    return jac


@pytest.mark.parametrize("d", [*range(1, 41), 51, 100, 199, 200, 381])
def test_jacobian_is_the_complex_bracket_bit_for_bit(d):
    gen = np.random.default_rng(300 + d)
    n = d // 2 + 1
    psi = gen.uniform(-np.pi, np.pi, n)
    xs = np.cos(np.pi * (np.arange(n) + 0.5) / (2 * n))
    ws = 1j * np.sqrt(1.0 - xs ** 2)
    _, _, jac = qsp._half_product(psi, d, xs, ws)
    assert np.array_equal(jac, bracket_jacobian(psi, d, xs, ws))


@pytest.mark.parametrize("d", [20, 21])
def test_jacobian_is_the_derivative(d):
    gen = np.random.default_rng(d)
    n = d // 2 + 1
    psi = gen.uniform(-np.pi, np.pi, n)
    xs = np.cos(np.pi * (np.arange(n) + 0.5) / (2 * n))
    _, _, jac = qsp._half_product(psi, d, xs, 1j * np.sqrt(1.0 - xs ** 2))
    h = 1e-4
    for k in range(n):
        step = np.zeros(n)
        step[k] = h
        fd = (re_u00(psi + step, d, xs) - re_u00(psi - step, d, xs)) / (2 * h)
        assert np.abs(jac[:, k] - fd).max() <= 1e-6


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 30, 51, 128, 255, 256, 400])
def test_reflection_row_is_the_top_row_bit_for_bit(d):
    """The certificate's top-row kernel gives `qsp_eval`'s Re U_00, value
    for value, at the Chebyshev nodes and at the ends."""
    gen = np.random.default_rng(d)
    seq = PhaseSequence(gen.uniform(-np.pi, np.pi, d), "reflection")
    xs = np.concatenate([np.cos(np.pi * (np.arange(d + 1) + 0.5) / (d + 1)),
                         [1.0, -1.0, 0.0], gen.uniform(-1, 1, 5)])
    a, _ = qsp._reflection_row(seq.phis, xs)
    assert np.array_equal(a.real, qsp_eval(seq, xs)[:, 0, 0].real)


def full_prefix_phases(c, goal):
    """The symmetric-phase Newton iteration with every one of the d + 1
    layers multiplied out, prefix and suffix alike, as explicit 2x2
    matrices: a slow reference for `_symmetric_phases`."""
    d = len(c) - 1
    n = d // 2 + 1
    xs = np.cos(np.pi * (np.arange(n) + 0.5) / (2 * n))
    s = np.sqrt(1.0 - xs ** 2)
    w = np.zeros((n, 2, 2), complex)
    w[:, 0, 0] = w[:, 1, 1] = xs
    w[:, 0, 1] = w[:, 1, 0] = 1j * s
    z = np.diag([1.0, -1.0])
    want = np.polynomial.chebyshev.chebval(xs, c)
    psi = np.zeros(n)
    psi[0] = math.pi / 4
    best = None
    for _ in range(qsp.NEWTON_MAX_ITER):
        phis = symmetric_phis(psi, d)
        layers = [np.diag(np.exp([1j * f, -1j * f])) for f in phis]
        # prefix[j] = D_0 W D_1 ... W D_j; suffix[j] = W D_{j+1} ... W D_d
        prefix = [np.broadcast_to(layers[0], (n, 2, 2))]
        for f in layers[1:]:
            prefix.append(prefix[-1] @ w @ f)
        suffix = [np.broadcast_to(np.eye(2), (n, 2, 2))]
        for f in layers[:0:-1]:
            suffix.append(w @ f @ suffix[-1])
        suffix = suffix[::-1]
        u = prefix[d]
        r = u[:, 0, 0].real - want
        resid = float(np.abs(r).max())
        if not math.isfinite(resid):
            break
        if best is not None and resid >= best[0] \
                and best[0] <= qsp.NEWTON_FLOOR:
            break
        if best is None or resid < best[0]:
            best = (resid, phis)
        if resid <= goal:
            break
        jac = np.zeros((n, n))
        for j in range(d + 1):
            dj = 1j * prefix[j] @ z @ suffix[j]
            jac[:, min(j, d - j)] += dj[:, 0, 0].real
        psi = psi - np.linalg.solve(jac, r)
    return best


@pytest.mark.parametrize("target", [
    pytest.param(lambda: approx_sign(0.185, 1.5e-5), id="sign"),
    pytest.param(lambda: approx_rect(0.5, 0.077, 1.5e-4), id="rect"),
    pytest.param(lambda: approx_inverse(2.7, 1e-3, bounded=True),
                 id="inverse"),
])
def test_solver_matches_full_prefix_reference(target):
    c = qsp._degree_cut(target().cheb.cheb_coeffs.real, 1e-8)
    seq, resid = qsp._symmetric_phases(c, 1e-9)
    want_resid, want_phis = full_prefix_phases(c, 1e-9)
    assert resid <= 1e-9 and want_resid <= 1e-9
    assert np.abs(seq.phis - PhaseSequence(want_phis, "wx_sandwich").phis
                  ).max() <= 1e-9


def certificate_targets(gen):
    """Random parity targets of degree 3-300, sign and trig, with the tol
    each is synthesized at."""
    for _ in range(21):
        deg = int(gen.integers(3, 301))
        yield random_target(deg, 0.95, gen).cheb_coeffs, 1e-10
    for _ in range(15):
        sign = approx_sign(gen.uniform(0.2, 0.5), 10 ** gen.uniform(-10, -3))
        yield sign.cheb.cheb_coeffs.real, 1e-9
    for _ in range(15):
        pair = approx_trig(gen.uniform(0.5, 30.0), 10 ** gen.uniform(-12, -3))
        yield 0.99 * pair[int(gen.integers(2))].cheb.cheb_coeffs.real, 1e-9


def test_reconstruction_error_bounds_a_fine_grid():
    """The certificate by coefficients covers the error measured on 20,001
    points, rounding-level targets included."""
    grid = np.linspace(-1.0, 1.0, 20001)
    tiny = 0
    for c, tol in certificate_targets(np.random.default_rng(14)):
        approx_mod._MEMO.clear()
        refl, rep = phases_for_target(c, tol=tol)
        got = qsp_eval(refl, grid)[:, 0, 0].real
        measured = np.abs(got - np.polynomial.chebyshev.chebval(grid, c)).max()
        assert rep["reconstruction_error"] >= measured
        tiny += rep["reconstruction_error"] < 1e-11
    assert tiny >= 10


def test_tol_below_the_certificate_refused():
    """`phases_for_target` raises NumericalFailure when the reconstruction
    bound misses the requested tol: here its rounding term alone does."""
    c = 0.9 * cheb_unit(5).cheb_coeffs
    bound = phases_for_target(c, tol=1e-12)[1]["reconstruction_error"]
    assert 1e-15 < bound <= 1e-12
    with pytest.raises(NumericalFailure, match="reconstruction error"):
        phases_for_target(c, tol=1e-15)


def test_phase_synthesis_shares_the_constructor_memo(monkeypatch):
    """`phases_for_target` results are entries of `approx._MEMO`, held to
    `_MEMO_MAX` oldest out first; a refused request is never stored."""
    monkeypatch.setattr(approx_mod, "_MEMO", {})
    monkeypatch.setattr(approx_mod, "_MEMO_MAX", 4)
    c = 0.9 * cheb_unit(5).cheb_coeffs
    outs = [phases_for_target(s * c, tol=1e-8)
            for s in (0.2, 0.4, 0.5, 0.6, 0.8, 1.0)]
    assert len(approx_mod._MEMO) == 4
    assert phases_for_target(c, tol=1e-8) is outs[-1]
    keys = list(approx_mod._MEMO)
    for _ in range(2):
        with pytest.raises(NumericalFailure, match="reconstruction error"):
            phases_for_target(c, tol=1e-15)
    assert list(approx_mod._MEMO) == keys


def test_phase_synthesis_forms_no_pair(monkeypatch):
    """A `phases_for_target` cache miss constructs no SignalPair and takes
    no unitarity defect; `complete` constructs and validates one pair."""
    counts = {"pairs": 0, "defects": 0}
    init, defect = SignalPair.__init__, SignalPair.unitarity_defect

    def counted_init(self, *args, **kwargs):
        counts["pairs"] += 1
        init(self, *args, **kwargs)

    def counted_defect(self):
        counts["defects"] += 1
        return defect(self)

    monkeypatch.setattr(SignalPair, "__init__", counted_init)
    monkeypatch.setattr(SignalPair, "unitarity_defect", counted_defect)
    monkeypatch.setattr(approx_mod, "_MEMO", {})
    for c in (approx_sign(0.3, 1e-4).cheb, [0.5], [0.0]):
        phases_for_target(c, tol=1e-8)
        assert counts == {"pairs": 0, "defects": 0}
        complete(c, 1e-8)
        assert counts == {"pairs": 1, "defects": 1}
        counts.update(pairs=0, defects=0)


@pytest.mark.parametrize("target", [
    pytest.param(lambda: random_target(7, 0.9, np.random.default_rng(21)),
                 id="random7"),
    pytest.param(lambda: approx_trig(2.0, 1e-12)[0].cheb, id="cos"),
    pytest.param(lambda: approx_sign(0.6, 1e-9).cheb, id="sign"),
])
def test_complete_pair_is_the_certified_circuit(target):
    """At tol 1e-12 `complete` and `phases_for_target` run `_real_phases`
    alike, and the pair is the top row of the certified circuit:
    P = U_00 and (1 - x^2)|Q|^2 = |U_01|^2 off the fit's nodes."""
    c = target().cheb_coeffs.real
    refl, _ = phases_for_target(c, tol=1e-12)
    pair = complete(c, 1e-12)
    u = qsp_eval(refl, LOBATTO)
    assert np.abs(pair.p_value(LOBATTO) - u[:, 0, 0]).max() <= 1e-13
    q2 = (1 - LOBATTO ** 2) * np.abs(pair.q_value(LOBATTO)) ** 2
    assert np.abs(q2 - np.abs(u[:, 0, 1]) ** 2).max() <= 1e-13


def test_unitarity_defect_bounds_a_fine_grid():
    """The coefficient bound is at least the defect on 20,001 points once
    the defect is above rounding; at rounding level the bound and a grid
    round differently, so there it is only held below 1e-12."""
    def fine(pair):
        xs = np.linspace(-1.0, 1.0, 20001)
        pv = np.polynomial.chebyshev.chebval(xs, pair.p_cheb)
        qv = np.polynomial.chebyshev.chebval(xs, pair.q_cheb)
        return np.abs(np.abs(pv) ** 2 + (1 - xs ** 2) * np.abs(qv) ** 2
                      - 1).max()

    pair = complete(random_target(41, 0.9, np.random.default_rng(4)))
    assert pair.unitarity_defect() < 1e-12
    assert qsp.complete_complex(cheb_unit(7)).unitarity_defect() < 1e-12
    q = pair.q_cheb.copy()
    q[3] += 1e-6
    off = SignalPair(pair.p_cheb, q, validate=False)
    assert off.unitarity_defect() >= fine(off) > 1e-7
    gen = np.random.default_rng(5)
    long_pair = SignalPair(1e-3 * gen.standard_normal(1501),
                           1e-3 * gen.standard_normal(1500), validate=False)
    assert long_pair.unitarity_defect() >= fine(long_pair) > 0.5


def critical_sup(c):
    """max |p| on [-1, 1] from its critical points (roots of p', and grid
    maxima, polished by Newton steps on p') and the end points."""
    dc = np.polynomial.chebyshev.chebder(c)
    d2c = np.polynomial.chebyshev.chebder(dc)
    roots = (np.polynomial.chebyshev.chebroots(dc) if len(dc) > 1
             else np.zeros(0))
    xs = np.cos(np.linspace(0, np.pi, 20001))
    v = np.abs(np.polynomial.chebyshev.chebval(xs, c))
    peaks = xs[1:-1][(v[1:-1] >= v[:-2]) & (v[1:-1] >= v[2:])]
    x = np.clip(np.concatenate([roots[np.abs(roots.imag) < 1e-6].real,
                                peaks]), -1.0, 1.0)
    with np.errstate(all="ignore"):
        for _ in range(6):
            x = np.clip(x - np.polynomial.chebyshev.chebval(x, dc)
                        / np.polynomial.chebyshev.chebval(x, d2c), -1.0, 1.0)
    pts = np.concatenate([[-1.0, 1.0], x[np.isfinite(x)]])
    return float(np.abs(np.polynomial.chebyshev.chebval(pts, c)).max())


class TestOneGate:
    """`_completion_gap` is the one admissibility gate of a real target."""

    def test_accepts_exactly_the_subunit_targets(self):
        gen = np.random.default_rng(11)
        wrong = []
        for _ in range(100):
            d = int(gen.integers(1, 201))
            c = np.zeros(d + 1)
            c[d % 2::2] = gen.standard_normal(d // 2 + 1)
            sup = critical_sup(c)
            for level in (0.999, 1 - 1e-9, 1 + 1e-9, 1.001):
                try:
                    qsp._completion_gap(c * (level / sup))
                    accepted = True
                except NotSubunit:
                    accepted = False
                if accepted != (level <= 1):
                    wrong.append((d, level))
        assert wrong == []

    def test_real_qsp_needs_no_admissibility_report(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("check_admissible called")

        monkeypatch.setattr(qsp, "check_admissible", refuse)
        c = random_target(9, 0.8, np.random.default_rng(8)).cheb_coeffs.real
        refl, _ = phases_for_target(c, tol=1e-9)
        assert lobatto_error(refl, c) <= 1e-9


class TestCompletionIdentityProperty:
    def test_many_random(self, rng):
        for deg in range(2, 24, 3):
            tgt = random_target(deg, 0.97, rng)
            pair = complete(tgt)
            assert pair.unitarity_defect() <= 1e-10


class TestStructureInvariants:
    def test_top_right_entry_is_polynomial(self, rng):
        # top-right / (i sqrt(1-x^2)) extends to a polynomial of degree k-1:
        # interpolate at k chebyshev nodes, then check the residual off-grid
        phis = rng.uniform(-np.pi, np.pi, 7)
        seq = PhaseSequence(phis, "wx_sandwich")
        k = len(phis) - 1
        nodes = np.cos(np.pi * (np.arange(k) + 0.5) / k)
        tr = qsp_eval(seq, nodes)[:, 0, 1]
        qvals = tr / (1j * np.sqrt(1 - nodes ** 2))
        coeffs = np.polynomial.chebyshev.chebfit(nodes, qvals, k - 1)
        probe = np.cos(np.linspace(0.05, math.pi - 0.05, 211))
        tr2 = qsp_eval(seq, probe)[:, 0, 1]
        want = np.polynomial.chebyshev.chebval(probe, coeffs) \
            * 1j * np.sqrt(1 - probe ** 2)
        assert np.abs(tr2 - want).max() < 1e-10

    def test_completion_real_roots_pair_up(self, rng):
        # 1 - P P* for a completed pair: real roots inside (-1, 1) come in
        # even multiplicity (here: none at all for strictly subunit targets)
        tgt = random_target(5, 0.9, rng)
        pair = complete(tgt)
        from svtkit import _chebops as cheb_ops
        pc = pair.p_cheb
        a = cheb_ops.add(np.array([1.0 + 0j]), -cheb_ops.mul(pc, np.conj(pc)))
        mono = np.polynomial.chebyshev.cheb2poly(a.real)
        roots = np.polynomial.polynomial.polyroots(mono)
        interior = [r for r in roots
                    if abs(r.imag) < 1e-7 and abs(r.real) < 1 - 1e-7]
        interior.sort(key=lambda z: z.real)
        assert len(interior) % 2 == 0
        for i in range(0, len(interior), 2):
            assert abs(interior[i + 1].real - interior[i].real) < 1e-4
