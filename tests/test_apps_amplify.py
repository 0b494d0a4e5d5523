import math

import numpy as np
import pytest
import scipy.stats

from svtkit.apps import (amplify_singular_values, fixed_point_amplify,
                         oblivious_amplify)
from svtkit.blockenc import Projector, ProjectedUnitary, embed, operator_norm
from svtkit.errors import (NotAnIsometryWithinTolerance,
                           OverlapBelowThreshold, SpectrumOutOfRange)


@pytest.fixture
def rng():
    """This module's generator, seeded anew for each test, so that no
    test's draws depend on which tests ran before it."""
    return np.random.default_rng(23)


def haar(n, rng):
    return scipy.stats.unitary_group.rvs(n, random_state=rng)


def amplification_instance(dim=8, a=0.3, seed_vec=0):
    """Unitary with prescribed overlap a between U psi0 and img(Pi)."""
    psi0 = np.zeros(dim, complex)
    psi0[0] = 1.0
    inside = np.zeros(dim, complex)
    inside[1] = 1.0
    outside = np.zeros(dim, complex)
    outside[dim // 2 + 1] = 1.0
    target = a * inside + math.sqrt(1 - a * a) * outside
    u = np.eye(dim, dtype=complex)
    u[:, 0] = target
    # complete to unitary via QR keeping first column
    q, r = np.linalg.qr(u)
    q = q * np.sign(np.diag(r))
    # force the first column exactly
    q[:, 0] = target
    for j in range(1, dim):
        col = q[:, j]
        col = col - target * (target.conj() @ col)
        for i in range(1, j):
            col = col - q[:, i] * (q[:, i].conj() @ col)
        q[:, j] = col / np.linalg.norm(col)
    pi = Projector(dim, indices=range(dim // 2))
    return q, pi, psi0


class TestFixedPoint:
    def test_full_overlap_short_circuit(self, rng):
        dim = 4
        u = haar(dim, rng)
        psi0 = np.zeros(dim, complex)
        psi0[0] = 1.0
        pi = Projector(dim, indices=range(dim))
        out, rep = fixed_point_amplify(u, pi, psi0, 0.5, 1e-3)
        assert rep["success_probability"] == pytest.approx(1.0)

    def test_full_overlap_report_has_the_normal_keys(self, rng):
        dim = 4
        pi = Projector(dim, indices=range(dim))
        _, full = fixed_point_amplify(haar(dim, rng), pi, np.eye(dim)[0],
                                      0.5, 1e-3)
        _, normal = fixed_point_amplify(*amplification_instance(8, a=0.3),
                                        0.25, 1e-3)
        assert full.keys() == normal.keys()
        assert full["ledger"].keys() == normal["ledger"].keys()
        # U itself: one use, no phases
        assert full["ledger"]["u_uses"] == full["degree"] == 1
        assert full["claimed_deviation"] == normal["claimed_deviation"]

    def test_amplifies_to_target(self):
        u, pi, psi0 = amplification_instance(8, a=0.3)
        out, rep = fixed_point_amplify(u, pi, psi0, 0.25, 1e-3)
        assert rep["deviation"] <= 1e-3

    def test_success_probability(self):
        u, pi, psi0 = amplification_instance(8, a=0.3)
        _, rep = fixed_point_amplify(u, pi, psi0, 0.25, 0.01)
        assert rep["success_probability"] >= 1 - 2 * 0.01

    def test_overlap_below_threshold(self):
        u, pi, psi0 = amplification_instance(8, a=0.1)
        with pytest.raises(OverlapBelowThreshold):
            fixed_point_amplify(u, pi, psi0, 0.25, 1e-3)


class TestOblivious:
    def make_scaled_isometry_pu(self, rng, n, eps=0.0):
        dim = 8
        w_small = haar(dim, rng)[:, :3][:3, :]  # 3x3 unitary block
        w_small = haar(3, rng)
        amp = math.sin(math.pi / (2 * n))
        a_small = amp * w_small
        if eps:
            pert = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            pert *= eps / operator_norm(pert)
            a_small = a_small + pert
            # renormalize into the unit ball of encodings
            s = np.linalg.svd(a_small, compute_uv=False).max()
            if s > 1:
                a_small /= s
        be = embed(a_small, 1.0)
        return be.pu, w_small

    def test_exact_recovery_n3(self, rng):
        pu, w = self.make_scaled_isometry_pu(rng, 3)
        u_tilde, rep = oblivious_amplify(pu, 3)
        got = pu.pi_tilde.basis().conj().T @ u_tilde @ pu.pi.basis()
        assert operator_norm(got - w) < 1e-10

    def test_n1_returns_u(self, rng):
        pu, w = self.make_scaled_isometry_pu(rng, 1)
        u_tilde, _ = oblivious_amplify(pu, 1)
        np.testing.assert_allclose(u_tilde, pu.u, atol=1e-14)

    def test_ledger_keys_match_across_n(self, rng):
        # n = 1 runs no sequence, yet reports the same gate counts
        _, one = oblivious_amplify(self.make_scaled_isometry_pu(rng, 1)[0], 1)
        _, three = oblivious_amplify(self.make_scaled_isometry_pu(rng, 3)[0], 3)
        assert one["ledger"].keys() == three["ledger"].keys()
        assert one["ledger"] == {"u_uses": 1, "cpi_not": 0,
                                 "cpi_tilde_not": 0, "single_qubit_phases": 0}

    def test_robust_bound(self, rng):
        eps = 0.01
        pu, w = self.make_scaled_isometry_pu(rng, 3, eps=eps)
        u_tilde, rep = oblivious_amplify(pu, 3, isometry_eps=2 * eps)
        assert rep["measured"] <= 2 * 3 * (2 * eps)

    def test_not_isometry_rejected(self):
        a = np.diag([0.3, 0.6])
        be = embed(a, 1.0)
        with pytest.raises(NotAnIsometryWithinTolerance):
            oblivious_amplify(be.pu, 3)


class TestUniformAmplification:
    def test_diagonal_two_values(self):
        a = np.diag([0.1, 0.3])
        be = embed(a, 1.0)
        outcome, rep = amplify_singular_values(be.pu, 2.0, 0.2, 1e-4)
        assert rep["max_relative_error"] <= 1e-4

    def test_near_identity_gamma(self):
        a = np.diag([0.2, 0.4])
        be = embed(a, 1.0)
        outcome, rep = amplify_singular_values(be.pu, 1.0 + 1e-9, 0.5, 1e-3)
        block = be.pu.pi_tilde.basis().conj().T @ outcome.result \
            @ be.pu.pi.basis()
        assert operator_norm(block - a) <= 2e-3

    def test_full_magnification(self, rng):
        gamma, delta, eps = 2.0, 0.2, 1e-4
        a = rng.standard_normal((3, 3))
        a *= (1 - delta) / gamma / operator_norm(a)
        be = embed(a, 1.0)
        outcome, rep = amplify_singular_values(be.pu, gamma, delta, eps)
        assert rep["full_magnification_error"] <= eps

    def test_spectrum_out_of_range(self):
        a = np.diag([0.6, 0.3])
        be = embed(a, 1.0)
        with pytest.raises(SpectrumOutOfRange):
            amplify_singular_values(be.pu, 2.0, 0.2, 1e-4)

    def test_vectors_unchanged(self, rng):
        a = haar(3, rng) @ np.diag([0.1, 0.25, 0.3]) @ haar(3, rng).conj().T
        be = embed(a, 1.0)
        outcome, rep = amplify_singular_values(be.pu, 2.0, 0.3, 1e-5)
        assert rep["subspace_angle"] <= 1e-4
