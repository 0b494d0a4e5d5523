import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svtkit import ParityPoly, ChebSeries
from svtkit import qsp
from svtkit.approx import (approx_inverse, approx_rect, approx_sign,
                           approx_trig)
from svtkit.errors import Inadmissible, NotSubunit, NumericalFailure
from svtkit.qsp import (PhaseSequence, SignalPair, check_admissible,
                        chebyshev_phases, complete, phases_for_target,
                        phases_from_pq, qsp_eval, real_qsp, signal_matrix,
                        to_reflection)

rng = np.random.default_rng(42)
GRID = np.cos(np.linspace(0.001, math.pi - 0.001, 500))


def cheb_unit(d):
    c = np.zeros(d + 1)
    c[d] = 1.0
    return ChebSeries(c)


def random_target(deg, supnorm=0.9, gen=None):
    c = (rng if gen is None else gen).standard_normal(deg + 1)
    c[(deg % 2) ^ 1::2] = 0.0
    xs = np.cos(np.linspace(0, np.pi, 2001))
    c *= supnorm / np.abs(np.polynomial.chebyshev.chebval(xs, c)).max()
    return ChebSeries(c)


class TestSignalMatrix:
    def test_w_at_one(self):
        np.testing.assert_allclose(signal_matrix(1.0, "W"), np.eye(2), atol=1e-15)

    def test_r_at_one(self):
        np.testing.assert_allclose(signal_matrix(1.0, "R"), np.diag([1, -1]),
                                   atol=1e-15)

    def test_w_r_conjugation(self):
        # W(x) = i e^{-i pi/4 Z} R(x) e^{-i pi/4 Z}; the printed form with
        # opposite signs on the two phases does not hold numerically.
        for x in (-0.8, -0.2, 0.33, 0.97):
            z = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
            want = 1j * z @ signal_matrix(x, "R") @ z
            np.testing.assert_allclose(signal_matrix(x, "W"), want, atol=1e-14)

    def test_unitarity(self):
        for kind in ("W", "R"):
            m = signal_matrix(0.37, kind)
            np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=1e-14)


class TestQspEval:
    def test_trivial_even_sequence(self):
        phi = PhaseSequence(np.array([0.7, np.pi / 2, -np.pi / 2]), "wx_sandwich")
        for x in (-0.5, 0.1, 0.9):
            m = qsp_eval(phi, x)
            want = np.diag([np.exp(0.7j), np.exp(-0.7j)])
            np.testing.assert_allclose(m, want, atol=1e-14)

    def test_reflection_at_endpoints(self):
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

    def test_unitarity_property(self):
        phis = rng.uniform(-np.pi, np.pi, 9)
        seq = PhaseSequence(phis, "reflection")
        ms = qsp_eval(seq, GRID[:50])
        for m in ms:
            assert np.abs(m.conj().T @ m - np.eye(2)).max() < 1e-12

    def test_gauge_pair_appending(self):
        phis = rng.uniform(-np.pi, np.pi, 4)
        seq = PhaseSequence(phis, "wx_sandwich")
        padded = PhaseSequence(np.concatenate([phis, [np.pi / 2, -np.pi / 2]]),
                               "wx_sandwich")
        a = qsp_eval(seq, GRID[:40])
        b = qsp_eval(padded, GRID[:40])
        assert np.abs(a - b).max() < 1e-12


class TestAdmissible:
    def test_t7_admissible(self):
        rep = check_admissible(cheb_unit(7), "complex_full")
        assert rep["admissible"]

    def test_half_x_real_but_not_complex(self):
        p = ParityPoly([0, 0.5])
        assert check_admissible(p, "real_target")["admissible"]
        rep = check_admissible(p, "complex_full")
        assert not rep["admissible"]
        assert rep["outside_margin"] < 0

    def test_sign_poly_real_admissible(self):
        res = approx_sign(0.3, 0.1)
        rep = check_admissible(res.cheb, "real_target")
        assert rep["admissible"]
        assert rep["inside_margin"] >= 1e-9


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

    def test_spectral_method_matches(self):
        # completion has one route; its pair meets the bound both old
        # factorization methods were held to
        assert complete(random_target(14)).unitarity_defect() < 1e-11


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

    def test_degree_drop_instrumented(self):
        tgt = random_target(9)
        pair = complete(tgt)
        seq = phases_from_pq(pair)
        assert len(seq.phis) == pair.k + 1

    def test_random_roundtrip_degrees(self):
        for deg in (4, 7, 12, 19):
            tgt = random_target(deg)
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

    def test_topleft_preserved_random(self):
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
        pair, refl = real_qsp(cheb_unit(5), delta=1e-9)
        got = qsp_eval(refl, GRID)[:, 0, 0].real
        want = np.cos(5 * np.arccos(GRID))
        assert np.abs(got - want).max() < 1e-9

    def test_linear_target(self):
        pair, refl = real_qsp(ParityPoly([0, 0.9]), delta=1e-8)
        got = qsp_eval(refl, GRID)[:, 0, 0].real
        assert np.abs(got - 0.9 * GRID).max() < 1e-8

    def test_rect_target(self):
        res = approx_rect(0.5, 0.1, 0.05)
        pair, refl = real_qsp(res.cheb, delta=1e-8)
        assert len(refl.phis) % 2 == 0  # even-degree sequence
        got = qsp_eval(refl, GRID)[:, 0, 0].real
        want = res.evaluate(GRID)
        assert np.abs(got - want).max() < 1e-8

    def test_degree_60_at_1e10(self):
        tgt = random_target(60, supnorm=0.95)
        pair, refl = real_qsp(tgt, delta=1e-10)
        got = qsp_eval(refl, GRID)[:, 0, 0].real
        want = np.polynomial.chebyshev.chebval(GRID, tgt.cheb_coeffs).real
        assert np.abs(got - want).max() < 1e-10

    def test_inadmissible_rejected(self):
        with pytest.raises(Inadmissible):
            real_qsp(ParityPoly([0, 1.5]))


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
    _, refl = real_qsp(c, delta=1e-12)
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
    assert len(phases_from_pq(pair).phis) == len(real_qsp(c)[1].phis) + 1


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


@pytest.mark.parametrize("m", [1, 2, 3, 7, 50, 101])
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
        pair, refl, rep = phases_for_target(tgt, tol=1e-10)
        assert rep["reconstruction_error"] <= 1e-10
        assert lobatto_error(refl, tgt.cheb_coeffs.real) <= 1e-10
        assert pair.unitarity_defect() <= 1e-10

    def test_high_degree_sign(self):
        # degree 523 before the cut; completion reaches only 3.6e-7 here
        tgt = approx_sign(0.185, 1e-6).cheb
        _, refl, rep = phases_for_target(tgt, tol=1e-7)
        assert rep["reconstruction_error"] <= 1e-7
        assert lobatto_error(refl, tgt.cheb_coeffs.real) <= 1e-7

    def test_phase_count_matches_completion(self):
        # the circuit is no longer than the one completion + stripping gives
        tgt = approx_inverse(2.0, 1e-2, bounded=True).cheb
        _, refl, _ = phases_for_target(tgt, tol=1e-3)
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
        _, _, resid = qsp._symmetric_phases(c, goal=0.0)
        assert resid <= qsp.NEWTON_GOAL
        assert len(steps) < qsp.NEWTON_MAX_ITER

    def test_interior_peak_near_one(self):
        c = peaked_target(1 - 1e-9)
        _, refl, _ = phases_for_target(c, tol=1e-10)
        assert lobatto_error(refl, c) <= 1e-10

    def test_interior_peak_above_one_refused(self):
        with pytest.raises(NotSubunit):
            phases_for_target(peaked_target(1 + 1e-9), tol=1e-10)

    def test_mixed_parity_refused(self):
        with pytest.raises(Inadmissible):
            phases_for_target(np.array([0.0, 0.5, 0.3]), tol=1e-10)


class TestCompletionIdentityProperty:
    def test_many_random(self):
        for deg in range(2, 24, 3):
            tgt = random_target(deg, supnorm=0.97)
            pair = complete(tgt)
            assert pair.unitarity_defect() <= 1e-10


class TestStructureInvariants:
    def test_top_right_entry_is_polynomial(self):
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

    def test_completion_real_roots_pair_up(self):
        # 1 - P P* for a completed pair: real roots inside (-1, 1) come in
        # even multiplicity (here: none at all for strictly subunit targets)
        tgt = random_target(5, supnorm=0.9)
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
