import math

import numpy as np
import pytest
import scipy.stats

from svtkit.apps import (discriminate, fast_or, pcr_solve, pseudoinverse,
                         singular_vector_transform, threshold_projector,
                         threshold_projectors_exact)
from svtkit.blockenc import Projector, ProjectedUnitary, embed, operator_norm
from svtkit.errors import PromiseViolated, SpectrumBelowDelta


@pytest.fixture
def rng():
    """This module's generator, seeded anew for each test, so that no
    test's draws depend on which tests ran before it."""
    return np.random.default_rng(31)


def haar(n, rng):
    return scipy.stats.unitary_group.rvs(n, random_state=rng)


def pu_with_singular_values(sigmas, rng, left_dim=None):
    sigmas = np.asarray(sigmas, float)
    n = len(sigmas)
    w = haar(n, rng)
    v = haar(n, rng)
    a = w @ np.diag(sigmas) @ v.conj().T
    return embed(a, 1.0).pu, a


class TestThresholdProjector:
    def test_two_cluster_spectrum(self, rng):
        pu, a = pu_with_singular_values([0.9, 0.2], rng)
        u_phi, rep = threshold_projector(pu, 0.5, 0.2, 0.05)
        assert rep["above_identity_error"] <= 0.05
        assert rep["below_suppression"] <= 0.05

    def test_all_below(self, rng):
        pu, a = pu_with_singular_values([0.1, 0.2], rng)
        u_phi, rep = threshold_projector(pu, 0.6, 0.15, 0.05)
        # nothing above threshold: the above-block condition is vacuous
        assert rep["below_suppression"] <= 0.05

    def test_exact_projectors_match_svd(self, rng):
        pu, a = pu_with_singular_values([0.9, 0.5, 0.1], rng)
        right, left = threshold_projectors_exact(pu, (0.4, 1.0))
        w, s, vh = np.linalg.svd(a)
        keep = s >= 0.4
        want_r = np.zeros((pu.dim, pu.dim), complex)
        want_r[:3, :3] = vh.conj().T[:, keep] @ vh.conj().T[:, keep].conj().T
        assert operator_norm(right - want_r) < 1e-10


class TestSingularVectorTransform:
    def test_isometric_input(self, rng):
        # A with all singular values 1 on img(Pi): transform acts like U.
        # Near-saturated values square-root-amplify phase noise, so the
        # practical floor for the claim is ~1e-3.
        u = haar(4, rng)
        pu = ProjectedUnitary(np.kron(np.eye(2), u) @ np.eye(8),
                              Projector(8, indices=range(4)),
                              Projector(8, indices=range(4)))
        u_phi, rep = singular_vector_transform(pu, 0.5, 2e-3)
        assert rep["measured"] <= 2e-3

    def test_generic_instance(self, rng):
        pu, a = pu_with_singular_values([0.8, 0.4], rng)
        u_phi, rep = singular_vector_transform(pu, 0.3, 1e-3)
        assert rep["measured"] <= 1e-3

    def test_superposition_coherence(self, rng):
        pu, a = pu_with_singular_values([0.8, 0.4], rng)
        w, s, vh = np.linalg.svd(a)
        u_phi, rep = singular_vector_transform(pu, 0.3, 2e-3)
        v1 = np.zeros(pu.dim, complex); v1[:2] = vh.conj().T[:, 0]
        v2 = np.zeros(pu.dim, complex); v2[:2] = vh.conj().T[:, 1]
        sup = (v1 + 1j * v2) / math.sqrt(2)
        got = pu.pi_tilde.matrix() @ (u_phi @ sup)
        w1 = np.zeros(pu.dim, complex); w1[:2] = w[:, 0]
        w2 = np.zeros(pu.dim, complex); w2[:2] = w[:, 1]
        want = (w1 + 1j * w2) / math.sqrt(2)
        assert np.linalg.norm(got - want) <= 4e-3


class TestDiscriminate:
    def test_kernel_one_sided(self, rng):
        pu, a = pu_with_singular_values([0.9, 0.0], rng)
        w, s, vh = np.linalg.svd(a)
        kernel_vec = np.zeros(pu.dim, complex)
        kernel_vec[:2] = vh.conj().T[:, 1]
        verdict = discriminate(pu, 0.0, 0.8, 0.01, kernel_vec)
        assert verdict["decision"] == "below_a"
        assert verdict["one_sided"]
        assert verdict["error_probability"] <= 1e-12

    def test_two_sided_above(self, rng):
        pu, a = pu_with_singular_values([0.9, 0.1], rng)
        w, s, vh = np.linalg.svd(a)
        vec = np.zeros(pu.dim, complex)
        vec[:2] = vh.conj().T[:, 0]
        verdict = discriminate(pu, 0.3, 0.7, 0.01, vec)
        assert verdict["decision"] == "above_b"
        assert verdict["error_probability"] <= 0.01

    def test_complementary_switch(self, rng):
        # (a, b) = (0.9, 0.95): sqrt side gap is wider, complement used
        pu, a = pu_with_singular_values([0.98, 0.5], rng)
        w, s, vh = np.linalg.svd(a)
        vec = np.zeros(pu.dim, complex)
        vec[:2] = vh.conj().T[:, 0]
        verdict = discriminate(pu, 0.9, 0.95, 0.01, vec)
        assert verdict["used_complement"]
        assert verdict["decision"] == "above_b"

    def test_saturated_one_sided(self, rng):
        pu, a = pu_with_singular_values([1.0, 0.3], rng)
        w, s, vh = np.linalg.svd(a)
        vec = np.zeros(pu.dim, complex)
        vec[:2] = vh.conj().T[:, 0]
        verdict = discriminate(pu, 0.5, 1.0, 0.01, vec)
        assert verdict["one_sided"]
        assert verdict["decision"] == "above_b"
        assert verdict["error_probability"] <= 1e-10

    def test_promise_violation(self, rng):
        pu, a = pu_with_singular_values([0.5, 0.5], rng)
        vec = np.zeros(pu.dim, complex)
        vec[0] = 1.0
        with pytest.raises(PromiseViolated):
            discriminate(pu, 0.1, 0.9, 0.01, vec)


class TestFastOr:
    def test_single_projector_eigenstate(self, rng):
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v /= np.linalg.norm(v)
        proj = np.outer(v, v.conj())
        rho = np.outer(v, v.conj())
        eta = 0.01
        p, rep = fast_or([proj], rho, eta, 0.01, 0.01)
        assert p >= (1 - eta) ** 2 / 4 - 0.01

    def test_zero_projectors(self):
        dim = 4
        rho = np.eye(dim) / dim
        p, rep = fast_or([np.zeros((dim, dim))] * 2, rho, 0.5, 1e-12, 0.01)
        assert p <= 0.01 + 1e-9

    def test_case_i_bound_m3(self, rng):
        dim = 8
        vs = [haar(dim, rng)[:, :2] for _ in range(3)]
        projs = [v @ v.conj().T for v in vs]
        psi = vs[1][:, 0]
        rho = np.outer(psi, psi.conj())  # Tr[rho Pi_2] = 1
        eta = 0.05
        p, rep = fast_or(projs, rho, eta, 0.5, 0.01)
        assert p >= (1 - eta) ** 2 / 4 - 0.01
        assert rep["projected_mass_low"] >= rep["projected_mass_bound"] - 1e-9

    def test_case_ii_bound(self, rng):
        dim = 8
        m = 3
        nu = 0.02
        us = [haar(dim, rng) for _ in range(m)]
        projs = [u[:, :1] @ u[:, :1].conj().T for u in us]
        # rho orthogonal to every projector range: promise holds exactly
        basis = np.column_stack([u[:, 0] for u in us])
        q, _ = np.linalg.qr(basis)
        comp = np.eye(dim) - q @ q.conj().T
        w = np.linalg.eigh(comp)[1][:, -1]
        rho = np.outer(w, w.conj())
        avg = np.mean([np.real(np.trace(rho @ p)) for p in projs])
        assert avg <= nu
        p, rep = fast_or(projs, rho, 0.5, nu, 0.01)
        assert p <= 5 * m * nu + 0.01


class TestPseudoinverse:
    def test_unitary_input(self, rng):
        u = haar(3, rng)
        pu = embed(0.9 * u, 1.0).pu
        outcome, rep = pseudoinverse(pu, 0.5, 1e-4)
        assert rep["measured"] <= 1e-4

    def test_diagonal_example(self):
        a = np.diag([0.5, 0.25])
        pu = embed(a, 1.0).pu
        outcome, rep = pseudoinverse(pu, 0.25, 1e-4)
        # block ~ (delta/2) A^+ = diag(0.25, 0.5)
        blk = outcome.result[:2, :2]
        np.testing.assert_allclose(blk.real, np.diag([0.25, 0.5]), atol=2e-4)

    def test_spectrum_below_delta(self):
        a = np.diag([0.5, 0.05])
        pu = embed(a, 1.0).pu
        with pytest.raises(SpectrumBelowDelta):
            pseudoinverse(pu, 0.25, 1e-4)

    def test_threshold_mode(self):
        a = np.diag([0.7, 0.08])
        pu = embed(a, 1.0).pu
        outcome, rep = pseudoinverse(pu, 0.1, 1e-3, threshold_mode=0.4)
        assert rep["measured"] <= 1e-3

    def test_pcr_residual(self, rng):
        a = rng.standard_normal((4, 4))
        a = a / operator_norm(a) * 0.8
        u, s, vh = np.linalg.svd(a)
        s = np.array([0.8, 0.6, 0.5, 0.35])
        a = u @ np.diag(s) @ vh
        pu = embed(a, 1.0).pu
        b = np.zeros(pu.dim, complex)
        b[:4] = rng.standard_normal(4)
        b /= np.linalg.norm(b)
        # sigma cuts two directions, so the optimal residual is order one
        # and the gap is second order in the block error
        x_hat, rep = pcr_solve(pu, b, sigma=0.55, delta=0.04, eps=1e-5)
        assert rep["residual_gap"] <= 1e-6
