import math

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import given, settings, strategies as st

from svtkit import ChebSeries, ParityPoly, _chebops
from svtkit.apps import fast_or, threshold_projector
from svtkit.blockenc import (BlockEncoding, Projector, ProjectedUnitary,
                             embed, is_unitary, operator_norm)
from svtkit.errors import (Inadmissible, NormExceeded, NotHermitian,
                           NotSubunit, NumericalFailure, ParityMismatch)
from svtkit.qsp import (PhaseSequence, chebyshev_phases, complete,
                        complete_complex, phases_for_target, phases_from_pq,
                        qsp_eval)
from svtkit.svt import (alternating_sequence, branch_lcu,
                        eigenvalue_transform, invariant_decomposition, reference_svt,
                        robustness_bound, svt_apply)


@pytest.fixture
def rng():
    """This module's generator, seeded anew for each test, so that no
    test's draws depend on which tests ran before it."""
    return np.random.default_rng(11)


def random_unitary(n, gen):
    return scipy.stats.unitary_group.rvs(n, random_state=gen)


def random_pu(dim, rank_pi, rank_pit, gen):
    u = random_unitary(dim, gen)
    pi = Projector(dim, indices=range(rank_pi))
    pit = Projector(dim, indices=range(rank_pit))
    return ProjectedUnitary(u, pi, pit)


def cheb_unit(d):
    c = np.zeros(d + 1)
    c[d] = 1.0
    return ChebSeries(c)


def random_target(deg, supnorm=0.9, *, gen):
    c = gen.standard_normal(deg + 1)
    c[(deg % 2) ^ 1::2] = 0.0
    c *= supnorm / _chebops.peak(c)
    return ChebSeries(c)


class TestReferenceSvt:
    def test_identity_function(self, rng):
        a = rng.standard_normal((4, 4)) * 0.3
        got = reference_svt(a, lambda x: x, "odd")
        np.testing.assert_allclose(got, a, atol=1e-12)

    def test_even_square(self, rng):
        a = rng.standard_normal((4, 4)) * 0.3 + 1j * rng.standard_normal((4, 4)) * 0.2
        got = reference_svt(a, lambda x: x ** 2, "even")
        np.testing.assert_allclose(got, a.conj().T @ a, atol=1e-12)

    def test_t3_diagonal(self):
        a = np.diag([0.2, 0.5])
        got = reference_svt(a, cheb_unit(3), "odd")
        t3 = lambda x: 4 * x ** 3 - 3 * x
        np.testing.assert_allclose(got, np.diag([t3(0.2), t3(0.5)]), atol=1e-12)

    def test_parity_mismatch(self):
        with pytest.raises(ParityMismatch):
            reference_svt(np.eye(2) * 0.5, cheb_unit(3), "even")

    def test_odd_preserves_kernel(self):
        a = np.zeros((3, 3))
        a[0, 0] = 0.6
        got = reference_svt(a, cheb_unit(3), "odd")
        assert operator_norm(got[:, 1:]) < 1e-12

    def test_near_repeated_singular_values(self):
        # the sum does not depend on the vectors chosen inside the cluster
        # 0.5 + 5e-10, 0.5, so the oracle is exact on it too
        gen = np.random.default_rng(3)
        a = (random_unitary(4, gen) @ np.diag([0.9, 0.5 + 5e-10, 0.5, 0.2])
             @ random_unitary(4, gen))
        odd = reference_svt(a, cheb_unit(3), "odd")
        assert np.abs(odd - (4 * a @ a.conj().T @ a - 3 * a)).max() <= 1e-13
        even = reference_svt(a, cheb_unit(2), "even")
        assert np.abs(even - (2 * a.conj().T @ a - np.eye(4))).max() <= 1e-13


class TestInvariantDecomposition:
    def test_rank_one_rotation(self):
        # U = R(x) (+) I with rank-1 projectors: single 2d block, sigma = x
        x = 0.42
        s = math.sqrt(1 - x * x)
        u = np.eye(4, dtype=complex)
        u[0, 0], u[0, 1], u[1, 0], u[1, 1] = x, s, s, -x
        pu = ProjectedUnitary(u, Projector(4, indices=[0]),
                              Projector(4, indices=[0]))
        dec = invariant_decomposition(pu)
        assert len(dec.blocks) == 1
        assert dec.blocks[0][0] == pytest.approx(x, abs=1e-12)
        assert dec.two_by_two_defect(u) < 1e-12

    def test_random_orthonormality(self, rng):
        pu = random_pu(8, 3, 4, gen=rng)
        dec = invariant_decomposition(pu)
        assert dec.gram_defect() < 1e-10
        assert dec.gram_defect_tilde() < 1e-10
        assert dec.two_by_two_defect(pu.u) < 1e-10

    def test_saturated_direction(self, rng):
        # U with an exact invariant direction inside both projectors
        u = np.eye(4, dtype=complex)
        u[2:, 2:] = random_unitary(2, gen=rng)
        pu = ProjectedUnitary(u, Projector(4, indices=[0, 1]),
                              Projector(4, indices=[0, 1]))
        dec = invariant_decomposition(pu)
        assert len(dec.saturated) == 2
        for psi, psit in dec.saturated:
            np.testing.assert_allclose(u @ psi, psit, atol=1e-10)

    def test_rank_deficient_kernels(self, rng):
        # a rank-1 3x3 block: U maps the right kernel of A = Pi~ U Pi into
        # img(I - Pi~), and U^dag the left kernel into img(I - Pi)
        a = np.outer(rng.standard_normal(3), rng.standard_normal(3))
        pu = embed(a * (0.7 / operator_norm(a))).pu
        dec = invariant_decomposition(pu)
        assert len(dec.blocks) == 1
        assert len(dec.right_kernel) == len(dec.left_kernel) == 2
        pi, pit = pu.pi.matrix(), pu.pi_tilde.matrix()
        for psi, u_psi in dec.right_kernel:
            np.testing.assert_allclose(pi @ psi, psi, atol=1e-12)
            np.testing.assert_allclose(pit @ u_psi, 0, atol=1e-12)
        for ud_psit, psit in dec.left_kernel:
            np.testing.assert_allclose(pit @ psit, psit, atol=1e-12)
            np.testing.assert_allclose(pi @ ud_psit, 0, atol=1e-12)
        assert dec.gram_defect() < 1e-12
        assert dec.gram_defect_tilde() < 1e-12


class TestAlternatingSequence:
    def test_single_phase_identity_poly(self, rng):
        pu = random_pu(8, 3, 3, gen=rng)
        seq = chebyshev_phases(1)
        u_phi, ledger = alternating_sequence(pu, seq)
        got = pu.pi_tilde.matrix() @ u_phi @ pu.pi.matrix()
        np.testing.assert_allclose(got, pu.encoded(), atol=1e-12)
        assert ledger["u_uses"] == 1

    def test_chebyshev_t2(self, rng):
        pu = random_pu(8, 3, 3, gen=rng)
        seq = chebyshev_phases(2)
        u_phi, _ = alternating_sequence(pu, seq)
        got = pu.pi.matrix() @ u_phi @ pu.pi.matrix()
        want = reference_svt(pu.encoded(), cheb_unit(2), "even",
                             pi=pu.pi, pi_tilde=pu.pi_tilde)
        assert operator_norm(got - want) < 1e-10

    def test_chebyshev_t5_odd(self, rng):
        pu = random_pu(10, 4, 4, gen=rng)
        seq = chebyshev_phases(5)
        u_phi, ledger = alternating_sequence(pu, seq)
        got = pu.pi_tilde.matrix() @ u_phi @ pu.pi.matrix()
        want = reference_svt(pu.encoded(), cheb_unit(5), "odd",
                             pi=pu.pi, pi_tilde=pu.pi_tilde)
        assert operator_norm(got - want) < 1e-10
        assert ledger["u_uses"] == 5

    def test_pi_half_pair_on_projection(self, rng):
        # degree-2 sequence (pi/2, -pi/2) realizes T_2: equals 1 on the
        # saturated directions of a Hermitian-unitary block
        u = np.zeros((4, 4), complex)
        u[:2, :2] = np.array([[0, 1], [1, 0]])  # sigma_x on img(Pi)
        u[2:, 2:] = random_unitary(2, gen=rng)
        pu = ProjectedUnitary(u, Projector(4, indices=[0, 1]),
                              Projector(4, indices=[0, 1]))
        from svtkit.qsp import PhaseSequence
        seq = PhaseSequence(np.array([math.pi / 2, -math.pi / 2]), "reflection")
        u_phi, _ = alternating_sequence(pu, seq)
        got = pu.pi.matrix() @ u_phi @ pu.pi.matrix()
        np.testing.assert_allclose(got, pu.pi.matrix(), atol=1e-10)


def _dense_phase(p, phi):
    """e^{i phi (2 Pi - I)} as an explicit matrix."""
    eye = np.eye(p.shape[0])
    return np.exp(1j * phi) * p + np.exp(-1j * phi) * (eye - p)


def _random_projector(gen, dim, rank, kind):
    if kind == "indices":
        return Projector(dim, indices=gen.choice(dim, rank, replace=False))
    z = gen.standard_normal((dim, rank)) + 1j * gen.standard_normal((dim, rank))
    q, _ = np.linalg.qr(z)
    return Projector(dim, matrix=q @ q.conj().T)


@settings(max_examples=150, deadline=None)
@given(dim=st.integers(2, 16), n=st.integers(1, 12), data=st.data(),
       kinds=st.tuples(st.sampled_from(["indices", "matrix"]),
                       st.sampled_from(["indices", "matrix"])),
       negate=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_alternating_sequence_matches_dense_product(dim, n, data, kinds,
                                                    negate, seed):
    gen = np.random.default_rng(seed)
    rank_pi = data.draw(st.integers(1, dim))
    rank_pit = data.draw(st.integers(1, dim))
    pi = _random_projector(gen, dim, rank_pi, kinds[0])
    pit = _random_projector(gen, dim, rank_pit, kinds[1])
    pu = ProjectedUnitary(random_unitary(dim, gen), pi, pit)
    seq = PhaseSequence(gen.uniform(-math.pi, math.pi, n), "reflection")
    if negate:
        seq = seq.negated()
    got, ledger = alternating_sequence(pu, seq)
    u, p, pt, phis = pu.u, pi.matrix(), pit.matrix(), seq.phis
    # odd n: e^{i phi_1 (2 Pi~ - I)} U prod_k [e^{i phi_2k (2 Pi - I)} U^dag
    # e^{i phi_2k+1 (2 Pi~ - I)} U]; even n: the product alone, from phi_1
    want = np.eye(dim, dtype=complex)
    start = n % 2
    if start:
        want = _dense_phase(pt, phis[0]) @ u
    for j in range(start, n, 2):
        want = (want @ _dense_phase(p, phis[j]) @ u.conj().T
                @ _dense_phase(pt, phis[j + 1]) @ u)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert ledger["u_uses"] == n


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("ranks", [(0, 0), (0, 5), (5, 0), (5, 5), (2, 3)])
@pytest.mark.parametrize("kind", ["indices", "matrix"])
@pytest.mark.parametrize("real", [False, True])
def test_reflection_layers_match_literal_product(n, ranks, kind, real):
    # the rank-r layers, including rank-0 and full-rank projectors, against
    # e^{i phi_1 (2Pi~-I)} U and e^{i phi_1 (2Pi-I)} U^dag e^{i phi_2 (2Pi~-I)} U
    gen = np.random.default_rng(97 + 10 * n + ranks[0] + 3 * ranks[1])
    dim = 5
    if real:
        u = scipy.stats.ortho_group.rvs(dim, random_state=gen)
        pi, pit = (_real_projector(gen, dim, r, kind) for r in ranks)
    else:
        u = random_unitary(dim, gen)
        pi, pit = (_random_projector(gen, dim, r, kind) for r in ranks)
    pu = ProjectedUnitary(u, pi, pit)
    assert pu.real == real
    phis = gen.uniform(-math.pi, math.pi, n)
    got, ledger = alternating_sequence(pu, PhaseSequence(phis, "reflection"))
    p, pt = pi.matrix(), pit.matrix()
    if n == 1:
        want = _dense_phase(pt, phis[0]) @ u
    else:
        want = (_dense_phase(p, phis[0]) @ u.conj().T
                @ _dense_phase(pt, phis[1]) @ u)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    assert ledger["u_uses"] == n


def test_sequences_share_no_buffer():
    # the layer buffers are per call: two results in a row are distinct
    # arrays, and neither aliases U
    for pu in (random_pu(8, 3, 5, gen=np.random.default_rng(41)),
               embed(np.diag([0.3, 0.6, 0.9])).pu):
        seq = PhaseSequence(np.random.default_rng(42).uniform(-1, 1, 7),
                            "reflection")
        first, _ = alternating_sequence(pu, seq)
        kept = first.copy()
        second, _ = alternating_sequence(pu, seq)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, pu.u)
        np.testing.assert_array_equal(first, kept)
        np.testing.assert_array_equal(first, second)


def test_fractional_query_circuits_stay_unitary(monkeypatch):
    # criterion 10's 50 draws: every ProjectedUnitary built on the way,
    # checked or certified, stays within the 6.1e-13 worst 2-norm defect
    # of the product-with-U construction
    from svtkit import blockenc
    from svtkit.apps import fractional_query
    worst = []
    hold = blockenc.ProjectedUnitary._hold

    def measured(self, u, pi, pi_tilde):
        worst.append(operator_norm(u.conj().T @ u - np.eye(u.shape[0])))
        hold(self, u, pi, pi_tilde)

    monkeypatch.setattr(blockenc.ProjectedUnitary, "_hold", measured)
    gen = np.random.default_rng(606)
    for i in range(50):
        h = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
        h = (h + h.conj().T) / 2
        h *= 0.5 / operator_norm(h) * gen.uniform(0.5, 1.0)
        fractional_query(scipy.linalg.expm(1j * h), (0.25, 0.5, 0.75)[i % 3],
                         1e-5)
    assert worst and max(worst) <= 6.1e-13


@pytest.mark.parametrize("kind", ["real_poly", "complex_poly"])
@pytest.mark.parametrize("proj", ["indices", "matrix"])
@pytest.mark.parametrize("degree", [7, 8])
def test_block_error_matches_full_space_error(kind, proj, degree):
    # svt_apply measures its error on the compressed block; by the
    # orthonormal bases it is the full-space error up to rounding
    gen = np.random.default_rng(131 + degree)
    dim = 8
    pu = ProjectedUnitary(random_unitary(dim, gen),
                          _random_projector(gen, dim, 3, proj),
                          _random_projector(gen, dim, 4, proj))
    tgt = random_target(degree, gen=gen)
    if kind == "complex_poly":
        pair = complete(tgt.cheb_coeffs)
        outcome = svt_apply(pu, pair, kind=kind)
        f = ChebSeries(pair.p_cheb)
    else:
        outcome = svt_apply(pu, tgt, kind=kind, delta=1e-8)
        f = tgt
    full = operator_norm(outcome.result - reference_svt(
        pu.encoded(), f, "odd" if degree % 2 else "even",
        pi=pu.pi, pi_tilde=pu.pi_tilde))
    assert abs(outcome.measured_error - full) <= 1e-14
    assert outcome.result.shape == (dim, dim)


class TestSvtApply:
    def test_real_sign_rank_one(self, rng):
        # rank-1 A = a |psi_G><psi_0|: sign transform amplifies to ~1
        from svtkit.approx import approx_sign
        dim = 8
        u = random_unitary(dim, gen=rng)
        psi0 = np.zeros(dim); psi0[0] = 1.0
        pi = Projector(dim, matrix=np.outer(psi0, psi0))
        out_vec = u @ psi0
        # target projector onto a subspace containing u psi0 partially
        v = np.zeros(dim); v[1] = 1.0
        g = out_vec * 0.4 + v * math.sqrt(1 - 0.4 ** 2) * 0
        pit = Projector(dim, indices=[0, 1, 2])
        pu = ProjectedUnitary(u, pi, pit)
        a_val = operator_norm(pu.encoded())
        if a_val < 0.3:
            pytest.skip("random overlap too small for this seed")
        res = approx_sign(0.25, 1e-3)
        outcome = svt_apply(pu, res.cheb, kind="real_poly", delta=1e-6)
        oracle = reference_svt(pu.encoded(), res.cheb, "odd",
                               pi=pu.pi, pi_tilde=pu.pi_tilde)
        assert operator_norm(outcome.result - oracle) < 1e-7

    def test_real_random_poly(self, rng):
        pu = random_pu(8, 3, 3, gen=rng)
        tgt = random_target(7, gen=rng)
        outcome = svt_apply(pu, tgt, kind="real_poly", delta=1e-8)
        assert outcome.measured_error < 1e-8

    def test_complex_from_completion(self, rng):
        pu = random_pu(8, 3, 3, gen=rng)
        pair = complete(random_target(5, gen=rng).cheb_coeffs.real)
        outcome = svt_apply(pu, pair, kind="complex_poly")
        assert outcome.measured_error < 1e-8
        assert outcome.ledger["u_uses"] == 5

    def test_even_degree_routes_through_pi(self, rng):
        pu = random_pu(8, 3, 5, gen=rng)
        tgt = random_target(6, gen=rng)
        outcome = svt_apply(pu, tgt, kind="real_poly", delta=1e-8)
        want = reference_svt(pu.encoded(), tgt, "even",
                             pi=pu.pi, pi_tilde=pu.pi_tilde)
        assert operator_norm(outcome.result - want) < 1e-8

    def test_inadmissible_rejected(self, rng):
        pu = random_pu(4, 2, 2, gen=rng)
        with pytest.raises(Inadmissible):
            svt_apply(pu, ParityPoly([0, 1.4]), kind="real_poly")

    def test_real_route_needs_no_admissibility_report(self, monkeypatch,
                                                     rng):
        import svtkit.qsp
        import svtkit.svt

        def refuse(*args, **kwargs):
            raise AssertionError("check_admissible called")

        monkeypatch.setattr(svtkit.qsp, "check_admissible", refuse)
        monkeypatch.setattr(svtkit.svt, "check_admissible", refuse,
                            raising=False)
        outcome = svt_apply(random_pu(8, 3, 3, gen=rng),
                            random_target(7, gen=rng), kind="real_poly",
                            delta=1e-8)
        assert outcome.measured_error < 1e-8

    def test_above_one_refused_as_not_subunit(self, rng):
        pu = random_pu(4, 2, 2, gen=rng)
        with pytest.raises(NotSubunit):
            svt_apply(pu, ParityPoly([0, 1.4]))
        with pytest.raises(Inadmissible):
            svt_apply(pu, ParityPoly([0, 1.4]))

    def test_imaginary_part_refused(self, rng):
        pu = random_pu(4, 2, 2, gen=rng)
        with pytest.raises(Inadmissible):
            svt_apply(pu, np.array([0.5, 0.5j]), kind="real_poly")


class TestCompleteComplex:
    def test_t7(self):
        pair = complete_complex(cheb_unit(7))
        assert pair.unitarity_defect() < 1e-8

    def test_matches_real_completion_pipeline(self):
        tgt = random_target(6, supnorm=0.8, gen=np.random.default_rng(11))
        pair = complete(tgt)  # P complex now
        pair2 = complete_complex(ChebSeries(pair.p_cheb))
        assert pair2.unitarity_defect() < 1e-8

    @pytest.mark.parametrize("d", range(1, 25))
    def test_chebyshev_double_roots(self, d):
        # 1 - T_d^2 = (1 - x^2) U_{d-1}^2: every other root is double
        pair = complete_complex(cheb_unit(d))
        assert pair.unitarity_defect() < 1e-8

    def test_rounding_level_above_degree_24(self):
        # the colleague-matrix roots alone complete T_25..T_100 and complex
        # pairs of degree 20-80 to rounding level, and the double-precision
        # strip of each completion rebuilds P
        xs = np.cos(np.linspace(0, np.pi, 2001))
        gen = np.random.default_rng(3)
        targets = [cheb_unit(d) for d in range(25, 101)] + [
            ChebSeries(complete(random_target(int(gen.integers(20, 81)),
                                              gen=gen)).p_cheb)
            for _ in range(20)]
        for tgt in targets:
            pair = complete_complex(tgt)
            assert pair.unitarity_defect() <= 1.5e-12
            rec = qsp_eval(phases_from_pq(pair), xs)[:, 0, 0]
            assert np.abs(rec - pair.p_value(xs)).max() <= 2e-12

    def test_real_completion_degree_25(self):
        # the admissibility check must not lose 1e-8 near |x| = 1 here
        tgt = random_target(25, supnorm=0.8, gen=np.random.default_rng(1))
        pair = complete_complex(ChebSeries(complete(tgt).p_cheb))
        assert pair.unitarity_defect() < 1e-8

    def test_tail_below_degree_cut(self):
        # a tail under the 1e-11 degree cut must not add z-roots: Q keeps
        # degree 6 and the pairing of the double roots stays intact
        c = np.zeros(10)
        c[7], c[9] = 1.0, 5e-12
        pair = complete_complex(ChebSeries(c / c.sum()))
        assert len(pair.q_cheb) == 7
        assert pair.unitarity_defect() < 1e-8

    def test_svt_apply_completes_t7(self):
        pu = random_pu(8, 3, 3, gen=np.random.default_rng(7))
        outcome = svt_apply(pu, cheb_unit(7), kind="complex_poly")
        assert outcome.measured_error < 1e-8

    def test_svt_apply_refuses_a_miss_above_delta(self):
        pu = random_pu(8, 3, 3, gen=np.random.default_rng(7))
        with pytest.raises(NumericalFailure, match="misses oracle"):
            svt_apply(pu, cheb_unit(7), kind="complex_poly", delta=1e-16)


class TestEigenvalueTransform:
    def test_linear_map(self, rng):
        h = rng.standard_normal((4, 4))
        h = (h + h.T) / 2
        h /= 2 * operator_norm(h)
        be = embed(h, 1.0)
        tgt = ParityPoly([0, 0.5])
        out = eigenvalue_transform(be, tgt, delta=1e-8)
        np.testing.assert_allclose(out.result, h / 2, atol=1e-8)

    def test_mixed_parity_polynomial(self, rng):
        h = rng.standard_normal((4, 4))
        h = (h + h.T) / 2
        h /= 2.5 * operator_norm(h)
        be = embed(h, 1.0)
        c = np.array([0.1, 0.15, 0.1, 0.05])  # mixed parity, sup < 1/2
        out = eigenvalue_transform(be, ChebSeries(c), delta=1e-8)
        w, v = np.linalg.eigh(h)
        want = v @ np.diag(np.polynomial.chebyshev.chebval(w, c)) @ v.conj().T
        np.testing.assert_allclose(out.result, want, atol=1e-7)

    def test_peak_between_grid_points_refused(self):
        # (1 + delta)(1 - T_101(0.97 x)) / 4 peaks at 0.5000006, between
        # the points of a 4001-point angle grid, which reads 0.4999994
        d, delta = 101, 1.3e-6
        c = -np.polynomial.chebyshev.chebinterpolate(
            lambda x: np.cos(d * np.arccos(0.97 * x)), d)
        c[0] += 1.0
        c *= (1 + delta) / 4
        grid = np.cos(np.linspace(0, math.pi, 4001))
        assert np.abs(np.polynomial.chebyshev.chebval(grid, c)).max() < 0.5
        be = embed(np.diag([0.5, -0.3]), 1.0)
        with pytest.raises(Inadmissible, match=r"needs \|P\| <= 0.5"):
            eigenvalue_transform(be, ChebSeries(c), delta=1e-8)


class TestConstantParityParts:
    """A parity part that is a constant c enters `branch_lcu` as the exact
    pair (e^{i theta} I, e^{-i theta} I), cos theta = c."""

    def test_constant_plus_linear(self):
        a = np.diag([0.5, -0.3])
        out = eigenvalue_transform(embed(a), ChebSeries([0.1, 0.3]))
        np.testing.assert_allclose(out.result, 0.1 * np.eye(2) + 0.3 * a,
                                   rtol=0, atol=1e-12)
        assert out.ledger["u_uses"] == 1

    def test_constant_alone_uses_no_query(self):
        out = eigenvalue_transform(embed(np.diag([0.5, -0.3])),
                                   ChebSeries([0.2]))
        np.testing.assert_allclose(out.result, 0.2 * np.eye(2),
                                   rtol=0, atol=1e-12)
        assert out.ledger["u_uses"] == 0

    def test_complex_target_with_constants(self):
        gen = np.random.default_rng(41)
        h = gen.standard_normal((4, 4))
        h = (h + h.T) / 2
        h *= 0.9 / operator_norm(h)
        c = np.array([0.05 + 0.04j, 0.1 - 0.05j, 0.0, 0.03j])
        out = eigenvalue_transform(embed(h), ChebSeries(c),
                                   complex_target=True)
        w, v = np.linalg.eigh(h)
        want = v @ np.diag(np.polynomial.chebyshev.chebval(w, c)) @ v.T
        np.testing.assert_allclose(out.result, want, rtol=0, atol=1e-10)


class TestRobustness:
    def test_scalar_chebyshev_footnote(self):
        d = 50
        x, y = 1.0, 1.0 - 1.0 / (2 * d * d)
        td = lambda z: math.cos(d * math.acos(min(1.0, z)))
        measured = abs(td(x) - td(y))
        bound = robustness_bound(np.array([[x]]), np.array([[y]]),
                                 "poly_sqrt", degree=d)
        assert measured <= bound
        assert 0.44 <= measured <= 0.48
        assert bound >= 2 * math.sqrt(2) - 1e-9

    def test_zero_distance(self, rng):
        a = rng.standard_normal((3, 3)) * 0.3
        assert robustness_bound(a, a, "modulus", omega=lambda t: t) == 0.0
        assert robustness_bound(a, a, "poly_sqrt", degree=5) == 0.0

    def test_poly_linear_dominates_measured(self, rng):
        n = 9
        a = rng.standard_normal((4, 4)); a *= 0.5 / operator_norm(a)
        e = rng.standard_normal((4, 4)); e *= 1e-3 / operator_norm(e)
        at = a + e
        tgt = random_target(n, supnorm=0.9, gen=rng)
        pa = reference_svt(a, tgt, "odd")
        pat = reference_svt(at, tgt, "odd")
        measured = operator_norm(pa - pat)
        bound = robustness_bound(a, at, "poly_linear", degree=n)
        assert measured <= bound

    def test_poly_linear_precondition(self):
        a = np.eye(2)
        with pytest.raises(Inadmissible):
            robustness_bound(a, a * 0.999, "poly_linear", degree=3)


class TestCircuitOracleAgreement:
    @pytest.mark.parametrize("trial", range(10))
    def test_randomized(self, trial):
        rng = np.random.default_rng((11, trial))
        dim = int(rng.integers(4, 12))
        rk = int(rng.integers(1, dim // 2 + 1))
        rkt = int(rng.integers(1, dim // 2 + 1))
        pu = random_pu(dim, rk, rkt, gen=rng)
        deg = int(rng.integers(1, 14))
        tgt = random_target(deg, supnorm=0.95, gen=rng)
        outcome = svt_apply(pu, tgt, kind="real_poly", delta=1e-8)
        assert outcome.measured_error <= 1e-8


class TestComplexEigenvalueTransform:
    def test_quarter_bounded_complex(self, rng):
        h = rng.standard_normal((3, 3))
        h = (h + h.T) / 2
        h /= 2 * operator_norm(h)
        be = embed(h, 1.0)
        c = np.array([0.05 + 0.02j, 0.08 - 0.04j, 0.06 + 0.03j])
        out = eigenvalue_transform(be, ChebSeries(c), delta=1e-8,
                                   complex_target=True)
        w, v = np.linalg.eigh(h)
        want = v @ np.diag(np.polynomial.chebyshev.chebval(w, c)) @ v.conj().T
        assert operator_norm(out.result - want) <= 1e-7

    def test_real_target_matches_real_route(self, rng):
        h = rng.standard_normal((4, 4))
        h = (h + h.T) / 2
        h /= 2 * operator_norm(h)
        be = embed(h, 1.0)
        c = np.array([0.08, 0.1, -0.05, 0.04])  # mixed parity, |P| < 1/4
        real = eigenvalue_transform(be, ChebSeries(c), delta=1e-8)
        both = eigenvalue_transform(be, ChebSeries(c), delta=1e-8,
                                    complex_target=True)
        assert operator_norm(both.result - real.result) <= 1e-12

    def test_ledger_alpha_and_ancillas(self):
        be = embed(np.diag([0.5, -0.3]), 1.0)
        c = np.array([0.05 + 0.02j, 0.08 - 0.04j, 0.06 + 0.03j])
        out = eigenvalue_transform(be, ChebSeries(c), delta=1e-8,
                                   complex_target=True)
        # longest real-part sequence (2) plus longest imaginary-part one (2)
        assert out.ledger["u_uses"] == 4
        assert out.ledger["claimed_eps"] == pytest.approx(1e-8)
        # alpha 2 on a + 3 ancilla qubits: the block is P(A) / 2
        assert out.u_phi.shape == (2 ** (be.ancillas + 3) * 2,) * 2
        np.testing.assert_array_equal(out.result, 2 * out.u_phi[:2, :2])

    def test_quarter_bound_enforced(self):
        h = np.diag([0.3, -0.2])
        be = embed(h, 1.0)
        with pytest.raises(Inadmissible):
            eigenvalue_transform(be, ChebSeries(np.array([0.3 + 0.2j])),
                                 complex_target=True)


class TestParityNecessity:
    def test_even_transform_stays_right_sided(self, rng):
        # with disjoint projectors the even transform has no left-right
        # component: the reference lives in Pi..Pi and its Pi~-sandwich
        # vanishes, while the raw circuit cross-block is junk
        u = random_unitary(8, gen=rng)
        pi = Projector(8, indices=[0, 1, 2])
        pit = Projector(8, indices=[4, 5, 6])
        pu = ProjectedUnitary(u, pi, pit)
        c = np.zeros(5)
        c[0], c[2], c[4] = 0.2, 0.3, 0.25
        outcome = svt_apply(pu, ChebSeries(c), kind="real_poly", delta=1e-7)
        assert outcome.measured_error <= 1e-9  # routed through Pi .. Pi
        ref = reference_svt(pu.encoded(), ChebSeries(c), "even",
                            pi=pu.pi, pi_tilde=pu.pi_tilde)
        cross = pit.matrix() @ ref @ pi.matrix()
        assert operator_norm(cross) <= 1e-12


def _dense_u_phi(pu, phis):
    """U_Phi as a product of dense phase operators (reflection convention)."""
    n = len(phis)
    u, p, pt = pu.u, pu.pi.matrix(), pu.pi_tilde.matrix()
    want = np.eye(pu.dim, dtype=complex)
    for j, phi in enumerate(phis):
        if (n - j) % 2:
            want = want @ _dense_phase(pt, phi) @ u
        else:
            want = want @ _dense_phase(p, phi) @ u.conj().T
    return want


def _dense_lcu(pu, terms):
    """(H^{(x)m} (x) I) diag(w_j U_{Phi_j}, w_j U_{-Phi_j}, ...) (H^{(x)m} (x) I),
    a None term standing for the branches (w I, -w I) and a constant c for
    (w e^{i theta} I, w e^{-i theta} I) with cos theta = c."""
    blocks = []
    for w, refl in terms:
        if refl is None:
            blocks += [w * np.eye(pu.dim), -w * np.eye(pu.dim)]
        elif isinstance(refl, PhaseSequence):
            blocks += [w * _dense_u_phi(pu, refl.phis),
                       w * _dense_u_phi(pu, -refl.phis)]
        else:  # a constant cos(theta)
            theta = math.acos(refl)
            blocks += [w * np.exp(1j * theta) * np.eye(pu.dim),
                       w * np.exp(-1j * theta) * np.eye(pu.dim)]
    h = scipy.linalg.hadamard(len(blocks)) / math.sqrt(len(blocks))
    hh = np.kron(h, np.eye(pu.dim))
    return hh @ scipy.linalg.block_diag(*blocks) @ hh


class TestBranchLcu:
    @pytest.mark.parametrize("kind", ["indices", "matrix"])
    @pytest.mark.parametrize("layout", [
        [(1, 5)], [(1j, 4)],                       # k = 2 branches
        [(1, 7), (1j, 6)], [(1, 3), (1, 3)],       # k = 4 branches
        [(1, None), (1j, 5)], [(1j, 6), (1, None)],  # with a +-I term
    ])
    def test_matches_dense_circuit(self, kind, layout):
        gen = np.random.default_rng(23)
        dim = 6
        pu = ProjectedUnitary(random_unitary(dim, gen),
                              _random_projector(gen, dim, 2, kind),
                              _random_projector(gen, dim, 3, kind))
        terms = [(w, None if n is None else PhaseSequence(
            gen.uniform(-math.pi, math.pi, n), "reflection"))
            for w, n in layout]
        got, ledger = branch_lcu(pu, terms)
        np.testing.assert_allclose(got, _dense_lcu(pu, terms),
                                   rtol=0, atol=1e-12)
        assert ledger["u_uses"] == max(n for _, n in layout if n is not None)

    def test_real_part_at_zero_block(self):
        # |0> block of one term: (U_Phi + U_-Phi) / 2, the circuit of P_Re
        pu = random_pu(6, 2, 2, gen=np.random.default_rng(5))
        seq = PhaseSequence(np.random.default_rng(6).uniform(-1, 1, 5),
                            "reflection")
        got, _ = branch_lcu(pu, [(1, seq)])
        up, _ = alternating_sequence(pu, seq)
        um, _ = alternating_sequence(pu, seq.negated())
        np.testing.assert_allclose(got[:6, :6], (up + um) / 2, atol=1e-14)

    def test_only_identity_terms(self):
        pu = random_pu(4, 2, 2, gen=np.random.default_rng(7))
        got, ledger = branch_lcu(pu, [(1, None)])
        assert ledger is None
        np.testing.assert_allclose(got[:4, :4], 0, atol=1e-15)

    @pytest.mark.parametrize("terms", [[(0.5, None)], [(1, None)] * 3, []])
    def test_refuses_bad_terms(self, terms):
        pu = random_pu(4, 2, 2, gen=np.random.default_rng(8))
        with pytest.raises(ValueError):
            branch_lcu(pu, terms)


class TestBranchLcuConstants:
    @pytest.mark.parametrize("kind", ["indices", "matrix"])
    @pytest.mark.parametrize("layout", [
        [(1, 0.3)], [(1j, -1.0)],
        [(1, 0.3), (1j, 5)], [(1j, -0.8), (1, None)],
        [(1, 4), (1, 0.0), (1j, 0.5), (-1, 3)],
    ])
    def test_matches_dense_circuit(self, kind, layout):
        gen = np.random.default_rng(29)
        dim = 5
        pu = ProjectedUnitary(random_unitary(dim, gen),
                              _random_projector(gen, dim, 2, kind),
                              _random_projector(gen, dim, 2, kind))
        terms = [(w, PhaseSequence(gen.uniform(-math.pi, math.pi, n),
                                   "reflection")
                  if isinstance(n, int) else n) for w, n in layout]
        got, ledger = branch_lcu(pu, terms)
        np.testing.assert_allclose(got, _dense_lcu(pu, terms),
                                   rtol=0, atol=1e-12)
        lengths = [n for _, n in layout if isinstance(n, int)]
        if lengths:
            assert ledger["u_uses"] == max(lengths)
        else:
            assert ledger is None

    def test_refuses_constant_above_one(self):
        pu = random_pu(4, 2, 2, gen=np.random.default_rng(8))
        with pytest.raises(ValueError):
            branch_lcu(pu, [(1, 1.5)])


def _real_projector(gen, dim, rank, kind):
    if kind == "indices":
        return Projector(dim, indices=gen.choice(dim, rank, replace=False))
    q, _ = np.linalg.qr(gen.standard_normal((dim, rank)))
    return Projector(dim, matrix=q @ q.T)


@settings(max_examples=120, deadline=None)
@given(dim=st.integers(2, 10), n=st.integers(1, 12), data=st.data(),
       kinds=st.tuples(st.sampled_from(["indices", "matrix"]),
                       st.sampled_from(["indices", "matrix"])),
       seed=st.integers(0, 2 ** 32 - 1))
def test_real_encoding_conjugate_branch(dim, n, data, kinds, seed):
    # for real U and real projectors U_{-Phi} = conj(U_Phi): bit-equal with
    # index projectors, to rounding with real-basis matrix projectors
    gen = np.random.default_rng(seed)
    pi = _real_projector(gen, dim, data.draw(st.integers(1, dim)), kinds[0])
    pit = _real_projector(gen, dim, data.draw(st.integers(1, dim)), kinds[1])
    pu = ProjectedUnitary(scipy.stats.ortho_group.rvs(dim, random_state=gen),
                          pi, pit)
    assert pu.real
    seq = PhaseSequence(gen.uniform(-math.pi, math.pi, n), "reflection")
    up, _ = alternating_sequence(pu, seq)
    um, _ = alternating_sequence(pu, seq.negated())
    if kinds == ("indices", "indices"):
        np.testing.assert_array_equal(um, up.conj())
    else:
        np.testing.assert_allclose(um, up.conj(), rtol=0, atol=1e-13)
    other = PhaseSequence(gen.uniform(-math.pi, math.pi,
                                      data.draw(st.integers(1, 12))),
                          "reflection")
    terms = [(1, seq), (1j, other)]
    got, _ = branch_lcu(pu, terms)
    np.testing.assert_allclose(got, _dense_lcu(pu, terms), rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(2, 32), n=st.integers(1, 12), data=st.data(),
       kinds=st.tuples(st.sampled_from(["indices", "matrix"]),
                       st.sampled_from(["indices", "matrix"])),
       seed=st.integers(0, 2 ** 32 - 1))
def test_real_sequence_matches_dense_product(dim, n, data, kinds, seed):
    # a real encoding runs its sequence in float64 on the view of U_Phi^T
    gen = np.random.default_rng(seed)
    pi = _real_projector(gen, dim, data.draw(st.integers(1, dim)), kinds[0])
    pit = _real_projector(gen, dim, data.draw(st.integers(1, dim)), kinds[1])
    pu = ProjectedUnitary(scipy.stats.ortho_group.rvs(dim, random_state=gen),
                          pi, pit)
    assert pu.real
    seq = PhaseSequence(gen.uniform(-math.pi, math.pi, n), "reflection")
    up, ledger = alternating_sequence(pu, seq)
    np.testing.assert_allclose(up, _dense_u_phi(pu, seq.phis),
                               rtol=0, atol=1e-12)
    assert ledger["u_uses"] == n
    # the single-term wrap holds Re U_Phi and i Im U_Phi exactly
    wrapped, _ = branch_lcu(pu, [(1, seq)])
    for diag in (wrapped[:dim, :dim], wrapped[dim:, dim:]):
        np.testing.assert_array_equal(diag.real, up.real)
        assert not diag.imag.any()
    for off in (wrapped[:dim, dim:], wrapped[dim:, :dim]):
        np.testing.assert_array_equal(off.imag, up.imag)
        assert not off.real.any()


def _overlap_taken(monkeypatch):
    """Record, for each `_overlap_layers` call, whether it built U_Phi
    (True) or left it to the loop (False)."""
    import svtkit.svt as svt_module
    taken = []
    run = svt_module._overlap_layers

    def spy(*args):
        out = run(*args)
        taken.append(out is not None)
        return out

    monkeypatch.setattr(svt_module, "_overlap_layers", spy)
    return taken


def _loop_u_phi(monkeypatch, pu, seq):
    """U_Phi from the layer loop alone, at any dimension."""
    import svtkit.svt as svt_module
    with monkeypatch.context() as patch:
        patch.setattr(svt_module, "OVERLAP_MIN_DIM", 10 ** 9)
        return alternating_sequence(pu, seq)[0]


def _defect(m):
    return operator_norm(m.conj().T @ m - np.eye(m.shape[0]))


@pytest.mark.parametrize("dim, n", [(64, 51), (64, 200), (128, 100),
                                    (128, 201)])
@pytest.mark.parametrize("real", [True, False])
def test_overlap_recurrence_matches_dense_product(monkeypatch, dim, n, real):
    # `embed` of a Gaussian block at sigma_max 0.95: above the crossover
    # the index projector's layers run as the overlap recurrence
    gen = np.random.default_rng(dim + n + real)
    a = gen.standard_normal((dim // 2, dim // 2))
    if not real:
        a = a + 1j * gen.standard_normal(a.shape)
    pu = embed(a * (0.95 / operator_norm(a))).pu
    assert pu.real == real
    seq = PhaseSequence(gen.uniform(-math.pi, math.pi, n), "reflection")
    taken = _overlap_taken(monkeypatch)
    up, ledger = alternating_sequence(pu, seq)
    assert taken == [True]
    assert ledger["u_uses"] == n
    np.testing.assert_allclose(up, _dense_u_phi(pu, seq.phis),
                               rtol=0, atol=1e-12)
    assert _defect(up) <= _defect(_loop_u_phi(monkeypatch, pu, seq))
    if real:
        um, _ = alternating_sequence(pu, seq.negated())
        np.testing.assert_array_equal(um, up.conj())


@pytest.mark.parametrize("n", [51, 52])
def test_overlap_recurrence_scattered_rows(monkeypatch, n):
    # index sets that are not one block of rows, on a Haar unitary
    gen = np.random.default_rng(n)
    dim = 64
    pu = ProjectedUnitary(
        random_unitary(dim, gen),
        Projector(dim, indices=gen.choice(dim, 16, replace=False)),
        Projector(dim, indices=gen.choice(dim, 12, replace=False)))
    seq = PhaseSequence(gen.uniform(-math.pi, math.pi, n), "reflection")
    taken = _overlap_taken(monkeypatch)
    got, _ = alternating_sequence(pu, seq)
    assert taken == [True]
    np.testing.assert_allclose(got, _dense_u_phi(pu, seq.phis),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [51, 52])
@pytest.mark.parametrize("fixed_rows, moved_rows, overlap", [
    (range(32), [], True),            # a rank-0 moved projector
    (range(64), range(20), False),    # a full-rank fixed one: no rest rows
    ([5], range(20, 40), True),       # a one-row fixed one
], ids=["moved-rank-0", "fixed-full-rank", "fixed-one-row"])
def test_overlap_edge_projectors(monkeypatch, n, fixed_rows, moved_rows,
                                 overlap):
    gen = np.random.default_rng(n + len(fixed_rows))
    dim = 64
    fixed = Projector(dim, indices=fixed_rows)
    moved = Projector(dim, indices=moved_rows)
    # odd n: Pi~ is the fixed projector; even n: Pi
    pi, pit = (moved, fixed) if n % 2 else (fixed, moved)
    pu = ProjectedUnitary(random_unitary(dim, gen), pi, pit)
    seq = PhaseSequence(gen.uniform(-math.pi, math.pi, n), "reflection")
    taken = _overlap_taken(monkeypatch)
    got, _ = alternating_sequence(pu, seq)
    assert taken == [overlap]
    np.testing.assert_allclose(got, _dense_u_phi(pu, seq.phis),
                               rtol=0, atol=1e-12)


def test_unit_singular_value_takes_the_loop(monkeypatch):
    # an orthogonal block, every singular value 1, fails the tau test: its
    # degree-301 circuit is the loop's, bit for bit
    gen = np.random.default_rng(301)
    pu = embed(scipy.stats.ortho_group.rvs(32, random_state=gen)).pu
    seq = PhaseSequence(gen.uniform(-math.pi, math.pi, 301), "reflection")
    taken = _overlap_taken(monkeypatch)
    got, _ = alternating_sequence(pu, seq)
    assert taken == [False]
    np.testing.assert_array_equal(got, _loop_u_phi(monkeypatch, pu, seq))
    assert taken == [False]


def test_real_wrap_certificate_matches_full_check():
    # the single-term wrap of a real encoding has U_Phi's defect, so the
    # certificate (U_Phi at UNITARY_TOL) decides as the full check would
    gen = np.random.default_rng(71)
    for _ in range(60):
        n, deg = int(gen.integers(1, 17)), int(gen.integers(1, 40))
        a = gen.standard_normal((n, n))
        a *= gen.uniform(0.3, 0.99) / operator_norm(a)
        out = svt_apply(embed(a).pu, random_target(deg, supnorm=0.95, gen=gen),
                        kind="real_poly", delta=1e-8)
        w = out.u_phi
        dim = w.shape[0] // 2
        up = w[:dim, :dim] + w[:dim, dim:]  # Re U_Phi + i Im U_Phi, exact
        assert is_unitary(w) == is_unitary(up)
        defect_w = operator_norm(w.conj().T @ w - np.eye(2 * dim))
        defect_u = operator_norm(up.conj().T @ up - np.eye(dim))
        assert abs(defect_w - defect_u) <= 1e-15


class TestWrapCertificate:
    """`svt_apply` (real_poly) builds the wrapped encoding of a real
    encoding on its branch's certificate; every phased branch is checked
    once at UNITARY_TOL, and one above it is refused with NormExceeded
    before any wrap is built."""

    @staticmethod
    def _cell():
        gen = np.random.default_rng(72)
        a = gen.standard_normal((4, 4))
        a *= 0.9 / operator_norm(a)
        return embed(a).pu, random_target(9, gen=gen)

    @staticmethod
    def _checked_shapes(monkeypatch):
        import svtkit.blockenc as blockenc_module
        shapes = []
        check = blockenc_module.is_unitary

        def counted(u, tol=blockenc_module.UNITARY_TOL):
            shapes.append(np.shape(u))
            return check(u, tol)

        monkeypatch.setattr(blockenc_module, "is_unitary", counted)
        return shapes

    @staticmethod
    def _inflate_branches(monkeypatch):
        import svtkit.svt as svt_module
        run = svt_module.alternating_sequence

        def inflated(pu, phi):
            up, ledger = run(pu, phi)
            return up * (1 + 2.5e-12), ledger  # defect 5e-12

        monkeypatch.setattr(svt_module, "alternating_sequence", inflated)

    def test_certified_wrap_not_rechecked(self, monkeypatch):
        pu, tgt = self._cell()
        shapes = self._checked_shapes(monkeypatch)
        out = svt_apply(pu, tgt, kind="real_poly", delta=1e-8)
        assert (16, 16) not in shapes
        assert out.encoding.u.shape == (16, 16)
        assert out.measured_error <= 1e-8

    def test_branch_above_unitary_tol_checks_wrap(self, monkeypatch):
        pu, tgt = self._cell()
        self._inflate_branches(monkeypatch)
        shapes = self._checked_shapes(monkeypatch)
        with pytest.raises(NormExceeded):
            svt_apply(pu, tgt, kind="real_poly", delta=1e-8)
        # refused at the branch: no wrap is built or checked
        assert (16, 16) not in shapes

    @pytest.mark.parametrize("path", ["complex_poly", "branch_lcu",
                                      "threshold_projector", "fast_or"])
    def test_branch_above_unitary_tol_refused(self, monkeypatch, path):
        pu, _ = self._cell()
        refl, _ = phases_for_target(cheb_unit(5).cheb_coeffs * 0.9)
        self._inflate_branches(monkeypatch)
        with pytest.raises(NormExceeded):
            if path == "complex_poly":
                svt_apply(pu, cheb_unit(7), kind="complex_poly")
            elif path == "branch_lcu":
                branch_lcu(pu, [(1, refl)])
            elif path == "threshold_projector":
                threshold_projector(pu, 0.5, 0.2, 0.05)
            else:
                v = np.random.default_rng(73).standard_normal(8) + 0j
                v /= np.linalg.norm(v)
                rho = np.outer(v, v.conj())
                fast_or([rho], rho, 0.01, 0.01, 0.01)


def _defect(m):
    return operator_norm(m.conj().T @ m - np.eye(len(m)))


@pytest.fixture
def wraps(monkeypatch):
    """Every branch list that `branch_lcu` hands to `_hadamard_wrap`,
    with the wrap it got back."""
    import svtkit.svt as svt_module
    seen = []
    wrap = svt_module._hadamard_wrap

    def recorded(branches):
        out = wrap(branches)
        seen.append((list(branches), out))
        return out

    monkeypatch.setattr(svt_module, "_hadamard_wrap", recorded)
    return seen


class TestWrapBound:
    """`branch_lcu` checks each weighted branch within UNITARY_TOL less
    the margin 2 sqrt(1 + UNITARY_TOL) e + e^2, so the wrap's defect is at
    most the largest branch defect plus that margin."""

    def test_bound_covers_the_wrap_defect(self, wraps):
        from svtkit.svt import _wrap_rounding
        gen = np.random.default_rng(5)
        for cell in range(60):
            n_terms = (1, 2, 4)[cell % 3]
            n = int(gen.integers(2, 33 if n_terms < 4 else 17))
            a = gen.standard_normal((n, n))
            if cell % 2:
                a = a + 1j * gen.standard_normal((n, n))
            a *= gen.uniform(0.5, 0.99) / operator_norm(a)
            pu = embed(a).pu
            terms = []
            for _ in range(n_terms):
                r = gen.uniform()
                refl = (None if r < 0.15 else float(gen.uniform(-1, 1))
                        if r < 0.3 else PhaseSequence(
                            gen.uniform(-math.pi, math.pi,
                                        int(gen.integers(21, 102))),
                            "reflection"))
                terms.append(((1, 1j, -1)[int(gen.integers(3))], refl))
            wraps.clear()
            got, _ = branch_lcu(pu, terms)
            branches, out = wraps[0]
            assert out is got and len(branches) == 2 * n_terms
            worst = max(_defect(b) for b in branches)
            e = _wrap_rounding(len(branches), pu.dim)
            bound = worst + 2 * math.sqrt(1 + worst) * e + e * e
            assert _defect(got) <= bound <= 1e-12

    @pytest.mark.parametrize("refl", ["phased", None, 0.3])
    def test_weight_off_the_unit_circle_refused(self, refl):
        # |w| = 1 + 9e-13 passes the weight's own 1e-12 test, but the
        # weighted branch has defect 1.8e-12, above UNITARY_TOL
        pu = embed(np.diag([0.5, 0.3])).pu
        if refl == "phased":
            refl, _ = phases_for_target(cheb_unit(5).cheb_coeffs * 0.9)
        with pytest.raises(NormExceeded):
            branch_lcu(pu, [(1 + 9e-13, refl)])

    @pytest.mark.parametrize("weight", [1, -1, 1j, -1j, (1 + 1j) / 2 ** 0.5],
                             ids=["1", "-1", "i", "-i", "diagonal"])
    def test_real_encoding_conjugate_branch(self, wraps, monkeypatch,
                                            weight):
        # for a real or imaginary w, w conj(U_Phi) = +-conj(w U_Phi) bit
        # for bit, so one Gram serves both branches; any other w takes two
        import svtkit.svt as svt_module
        grams = []
        check = svt_module.is_unitary

        def counted(u, tol):
            grams.append(u)
            return check(u, tol)

        monkeypatch.setattr(svt_module, "is_unitary", counted)
        pu = embed(np.diag([0.5, 0.3, -0.2])).pu
        refl, _ = phases_for_target(cheb_unit(7).cheb_coeffs * 0.9)
        branch_lcu(pu, [(weight, refl)])
        (plus, minus), _ = wraps[0]
        if weight in (1, -1, 1j, -1j):
            sign = (weight * weight).real
            np.testing.assert_array_equal(minus, sign * plus.conj())
            assert len(grams) == 1 and grams[0] is plus
        else:
            assert len(grams) == 2 and grams[1] is minus


class TestWrapGrams:
    """No caller of `branch_lcu` forms a Gram of its wrap; a transform
    request forms `embed`'s and one per phased term, two for a complex
    encoding."""

    @pytest.fixture
    def grams(self, monkeypatch):
        import svtkit.blockenc as blockenc_module
        import svtkit.svt as svt_module
        seen = []
        for module in (blockenc_module, svt_module):
            def counting(u, *args, check=module.is_unitary, **kwargs):
                seen.append(np.asarray(u))
                return check(u, *args, **kwargs)

            monkeypatch.setattr(module, "is_unitary", counting)
        return seen

    @staticmethod
    def assert_no_wrap_gram(grams, wraps):
        assert wraps
        for _, out in wraps:
            assert not any(g.shape == out.shape and np.array_equal(g, out)
                           for g in grams)

    @staticmethod
    def _hermitian(n, gen):
        h = gen.standard_normal((n, n))
        h = (h + h.T) / 2
        return h * (0.9 / operator_norm(h))

    @pytest.mark.parametrize("complex_target", [False, True])
    def test_eigenvalue_transform(self, grams, wraps, complex_target):
        gen = np.random.default_rng(81)
        c = np.array([0.05, 0.1, -0.06, 0.04])
        if complex_target:
            c = c + 1j * np.array([0.03, -0.05, 0.04, 0.02])
        out = eigenvalue_transform(embed(self._hermitian(4, gen)),
                                   ChebSeries(c),
                                   complex_target=complex_target)
        self.assert_no_wrap_gram(grams, wraps)
        # embed's U and the four or eight branches of two or four phased
        # terms, one Gram each on a real encoding
        assert [g.shape for g in grams] == [(8, 8)] * (5 if complex_target
                                                        else 3)
        assert out.measured_error <= 1e-8

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_svt_apply(self, grams, wraps, kind):
        gen = np.random.default_rng(82)
        a = gen.standard_normal((4, 4))
        if kind == "complex":
            a = a + 1j * gen.standard_normal((4, 4))
        a *= 0.9 / operator_norm(a)
        out = svt_apply(embed(a).pu, random_target(9, gen=gen),
                        kind="real_poly", delta=1e-8)
        self.assert_no_wrap_gram(grams, wraps)
        assert len(grams) == (2 if kind == "real" else 3)
        assert out.encoding.u is out.u_phi
        assert out.measured_error <= 1e-8

    def test_hamiltonian_simulate(self, grams, wraps):
        from svtkit.apps import hamiltonian_simulate
        out, rep = hamiltonian_simulate(
            embed(self._hermitian(3, np.random.default_rng(83))), 2.0, 1e-6)
        self.assert_no_wrap_gram(grams, wraps)
        assert rep["measured"] <= 1e-6

    def test_fractional_query(self, grams, wraps):
        from svtkit.apps import fractional_query
        h = self._hermitian(3, np.random.default_rng(84)) * 0.5
        _, rep = fractional_query(scipy.linalg.expm(1j * h), 0.5, 1e-5)
        self.assert_no_wrap_gram(grams, wraps)
        assert rep["measured"] <= 1e-5

    def test_markov_find(self, grams, wraps):
        from svtkit.apps import MarkovChain, markov_find
        p = np.zeros((6, 6))
        for i in range(6):
            p[i, i], p[i, (i + 1) % 6], p[i, (i - 1) % 6] = 0.5, 0.25, 0.25
        chain = MarkovChain(p, marked=[2])
        gap = chain.singular_gap()
        _, rep = markov_find(chain, delta=0.9 * gap, eps=0.9 * chain.p_m)
        self.assert_no_wrap_gram(grams, wraps)
        assert rep["marked_mass"] >= 2.0 / 3.0

    def test_unitary_log(self, grams, wraps):
        from svtkit.apps import unitary_log
        h = self._hermitian(3, np.random.default_rng(85)) * 0.5
        enc, rep = unitary_log(scipy.linalg.expm(1j * h), 1e-5)
        self.assert_no_wrap_gram(grams, wraps)
        # the encoding holds svt_apply's wrap on its certificate
        assert enc.u is wraps[-1][1]
        assert rep["measured"] <= 1e-5

    def test_cli_hamsim_robust(self, grams, wraps, monkeypatch, capsys):
        from svtkit import cli
        made = []

        def recording(*args, **kwargs):
            made.append(embed(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(cli, "embed", recording)
        assert cli.main(["apps", "hamsim", "--robust", "--dim", "8"]) == 0
        self.assert_no_wrap_gram(grams, wraps)
        u = made[0].u
        assert sum(g.shape == u.shape and np.array_equal(g, u)
                   for g in grams) == 1


class TestHermitianCheck:
    """Every non-Hermitian operator is refused with NotHermitian by
    `blockenc.check_hermitian`, which takes an SVD only when
    ||m - m^dag||_F is above its 1e-9."""

    @pytest.fixture
    def checks(self, monkeypatch):
        """The operators checked, and the matrices whose 2-norm a check
        took."""
        import svtkit.apps.hamsim as hamsim_module
        import svtkit.blockenc as blockenc_module
        import svtkit.svt as svt_module
        checked, svds, inside = [], [], []
        norm = blockenc_module.operator_norm

        def counting(m):
            if inside:
                svds.append(m)
            return norm(m)

        monkeypatch.setattr(blockenc_module, "operator_norm", counting)
        for module in (svt_module, hamsim_module):
            def checking(m, what, check=module.check_hermitian):
                checked.append(what)
                inside.append(what)
                try:
                    return check(m, what)
                finally:
                    inside.pop()

            monkeypatch.setattr(module, "check_hermitian", checking)
        return checked, svds

    @staticmethod
    def _hermitian(n, gen):
        # as the benchmark's transform and apps requests draw them
        x = gen.standard_normal((n, n))
        h = (x + x.T) / 2.0
        return h / operator_norm(h)

    def test_eigenvalue_transform(self, checks):
        h = self._hermitian(16, np.random.default_rng(86))
        out = eigenvalue_transform(embed(h), ChebSeries(
            np.array([0.05, 0.1, -0.06, 0.04])))
        assert checks == (["encoded operator"], [])
        assert out.measured_error <= 1e-8

    @pytest.mark.parametrize("robust", [False, True])
    def test_hamiltonian_simulate(self, checks, robust):
        from svtkit.apps import hamiltonian_simulate
        h = self._hermitian(4, np.random.default_rng(87))
        _, rep = hamiltonian_simulate(embed(h), 2.0, 1e-6, robust=robust)
        assert checks == (["encoded operator"]
                          + (["be.target"] if robust else []), [])
        assert rep["measured"] <= 1e-6

    def test_eigenvalue_transform_refuses_a_non_hermitian_block(self):
        be = embed(np.array([[0.2, 0.3], [-0.1, 0.4]]))
        with pytest.raises(NotHermitian,
                           match="^encoded operator is not Hermitian$"):
            eigenvalue_transform(be, ChebSeries(np.array([0.1, 0.2])))

_THREADS_CELL = """
import sys
import numpy as np
from svtkit import ChebSeries
from svtkit.blockenc import embed, operator_norm
from svtkit.svt import svt_apply
gen = np.random.default_rng(64)
a = gen.standard_normal((64, 64))
a *= 0.95 / operator_norm(a)
c = gen.standard_normal(102)
c[0::2] = 0.0
xs = np.cos(np.linspace(0, np.pi, 2001))
c *= 0.95 / np.abs(np.polynomial.chebyshev.chebval(xs, c)).max()
out = svt_apply(embed(a).pu, ChebSeries(c), kind="real_poly", delta=1e-8)
np.savez(sys.argv[1], result=out.result, u_phi=out.u_phi)
print(out.ledger["u_uses"])
"""


def test_result_independent_of_blas_threads(tmp_path):
    # one (64, 101) real cell with BLAS on one and on two threads
    import os
    import pathlib
    import subprocess
    import sys
    import svtkit
    src = str(pathlib.Path(svtkit.__file__).parents[1])
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        path = tmp_path / f"threads{threads}.npz"
        proc = subprocess.run([sys.executable, "-c", _THREADS_CELL,
                               str(path)], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs.append((np.load(path), int(proc.stdout)))
    (one, uses_one), (two, uses_two) = runs
    assert uses_one == uses_two == 101
    for key in ("result", "u_phi"):
        np.testing.assert_allclose(one[key], two[key], rtol=0, atol=1e-13)


class TestConjugateBranch:
    """A real encoding runs one sequence per `branch_lcu` term; any other
    runs both."""

    @staticmethod
    def _count_sequences(monkeypatch):
        import svtkit.svt as svt_module
        calls = []
        run = svt_module.alternating_sequence

        def counted(pu, phi):
            calls.append(phi)
            return run(pu, phi)

        monkeypatch.setattr(svt_module, "alternating_sequence", counted)
        return calls

    def _two_terms(self, gen):
        return [(1, PhaseSequence(gen.uniform(-1, 1, 5), "reflection")),
                (1j, PhaseSequence(gen.uniform(-1, 1, 4), "reflection"))]

    def test_complex_unitary_runs_both(self, monkeypatch):
        gen = np.random.default_rng(31)
        pu = ProjectedUnitary(random_unitary(6, gen),
                              Projector(6, indices=[0, 1]),
                              Projector(6, indices=[0, 2]))
        assert not pu.real
        terms = self._two_terms(gen)
        calls = self._count_sequences(monkeypatch)
        got, _ = branch_lcu(pu, terms)
        assert len(calls) == 4
        np.testing.assert_allclose(got, _dense_lcu(pu, terms),
                                   rtol=0, atol=1e-12)

    def test_complex_basis_projector_runs_both(self, monkeypatch):
        gen = np.random.default_rng(32)
        pi = _random_projector(gen, 6, 2, "matrix")
        assert pi.basis().imag.any()
        pu = ProjectedUnitary(scipy.stats.ortho_group.rvs(6, random_state=gen),
                              pi, Projector(6, indices=[1, 3]))
        assert not pu.real
        terms = self._two_terms(gen)
        calls = self._count_sequences(monkeypatch)
        got, _ = branch_lcu(pu, terms)
        assert len(calls) == 4
        np.testing.assert_allclose(got, _dense_lcu(pu, terms),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_svt_apply_sequence_count(self, monkeypatch, kind):
        gen = np.random.default_rng(33)
        a = gen.standard_normal((4, 4))
        if kind == "complex":
            a = a + 1j * gen.standard_normal((4, 4))
        a *= 0.9 / operator_norm(a)
        pu = embed(a).pu
        assert pu.real == (kind == "real")
        tgt = random_target(7, gen=gen)
        calls = self._count_sequences(monkeypatch)
        out = svt_apply(pu, tgt, kind="real_poly", delta=1e-8)
        assert len(calls) == (1 if kind == "real" else 2)
        assert out.measured_error <= 1e-8


def test_wrapped_circuit_on_frobenius_fast_path():
    # the polished dilation keeps the 2d-dim circuit of a real (64, 101)
    # cell within 1e-12 in Frobenius norm, so its unitarity check needs
    # no SVD
    gen = np.random.default_rng(64)
    a = gen.standard_normal((64, 64))
    a *= 0.95 / operator_norm(a)
    out = svt_apply(embed(a).pu, random_target(101, supnorm=0.99, gen=gen),
                    kind="real_poly", delta=1e-8)
    u = out.u_phi
    assert np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 10), deg=st.integers(1, 12), data=st.data(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_svt_apply_matrix_projectors_match_oracle(dim, deg, data, seed):
    gen = np.random.default_rng(seed)
    pi = _random_projector(gen, dim, data.draw(st.integers(1, dim)), "matrix")
    pit = _random_projector(gen, dim, data.draw(st.integers(1, dim)), "matrix")
    pu = ProjectedUnitary(random_unitary(dim, gen), pi, pit)
    tgt = random_target(deg, supnorm=0.95, gen=gen)
    outcome = svt_apply(pu, tgt, kind="real_poly", delta=1e-8)
    want = reference_svt(pu.encoded(), tgt, "odd" if deg % 2 else "even",
                         pi=pi, pi_tilde=pit)
    assert operator_norm(outcome.result - want) <= 1e-8
    # the lifted projectors |0><0| (x) Pi select the same block of the
    # doubled circuit
    lifted = np.zeros((2 * dim, 2 * dim), complex)
    lifted[:dim, :dim] = outcome.result
    np.testing.assert_allclose(outcome.encoding.encoded(), lifted,
                               rtol=0, atol=1e-12)
