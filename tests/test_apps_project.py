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


def random_projector(n, k, rng):
    """A rank-k projector given by its matrix, on a random complex basis."""
    basis, _ = np.linalg.qr(rng.standard_normal((n, k))
                            + 1j * rng.standard_normal((n, k)))
    return Projector(n, matrix=basis @ basis.conj().T)


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
        """Both projectors match the block's SVD, on full-rank and
        rank-deficient blocks and on matrix projectors of unequal rank,
        zero singular values counted on the wider side."""
        full, _ = pu_with_singular_values([0.9, 0.5, 0.1], rng)
        deficient, _ = pu_with_singular_values([0.9, 0.6, 0.0, 0.0], rng)
        n = 6
        unequal = ProjectedUnitary(haar(n, rng), random_projector(n, 3, rng),
                                   random_projector(n, 2, rng))
        cases = [(full, (0.4, 1.0)), (deficient, (-0.5, 0.3)),
                 (deficient, (0.5, 2.0)), (unequal, (-0.5, 0.3)),
                 (unequal, (0.3, 2.0))]
        for pu, (lo, hi) in cases:
            bv, bw = pu.pi.basis(), pu.pi_tilde.basis()
            w, s, vh = np.linalg.svd(pu.block())
            s_right = np.zeros(vh.shape[0])
            s_right[: len(s)] = s
            s_left = np.zeros(w.shape[0])
            s_left[: len(s)] = s
            every = np.concatenate([s_right, s_left])
            assert np.abs(every[:, None] - np.array([lo, hi])).min() >= 1e-6
            vr = bv @ vh.conj().T[:, (s_right >= lo) & (s_right <= hi)]
            wl = bw @ w[:, (s_left >= lo) & (s_left <= hi)]
            right, left = threshold_projectors_exact(pu, (lo, hi))
            assert operator_norm(right - vr @ vr.conj().T) < 1e-10
            assert operator_norm(left - wl @ wl.conj().T) < 1e-10


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

    @pytest.mark.parametrize("n, zeros", [(2, 1), (3, 1), (5, 2), (8, 3)])
    def test_targets_match_numpy_pinv(self, monkeypatch, rng, n, zeros):
        # the targets come from `reference_svt`, not from np.linalg.pinv,
        # and match it on rank-deficient blocks: every singular value is 0,
        # far below the 1e-10 cut, or at least 0.05 from sigma + delta
        import svtkit.apps.solve as solve_module
        sigma, delta, eps = 0.4, 0.1, 1e-3
        plain = np.r_[rng.uniform(0.55, 0.95, n - zeros), np.zeros(zeros)]
        banded = np.r_[0.9, 0.45, 0.2, 0.7, 0.3, 0.6, 0.8][:n - zeros]
        pu_cut = pu_with_singular_values(np.r_[banded, np.zeros(zeros)],
                                         rng)[0]
        pu_plain = pu_with_singular_values(plain, rng)[0]

        def reference(pu, keep):
            w, s, vh = np.linalg.svd(pu.encoded())
            return (w * np.where(keep(s), s, 0.0)) @ vh

        want_plain = np.linalg.pinv(pu_plain.encoded(), rcond=1e-10)
        want_cut = np.linalg.pinv(
            reference(pu_cut, lambda s: s > sigma + delta), rcond=1e-10)
        want_pcr = reference(pu_cut, lambda s: s >= sigma)
        b = np.zeros(pu_cut.dim, complex)
        b[:n] = rng.standard_normal(n)
        calls = []
        run = solve_module.reference_svt

        def spy(*args):
            calls.append(run(*args))
            return calls[-1]

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.pinv called")

        monkeypatch.setattr(solve_module, "reference_svt", spy)
        monkeypatch.setattr(np.linalg, "pinv", refuse)
        _, rep = pseudoinverse(pu_plain, 0.5, eps)
        assert rep["measured"] <= eps
        np.testing.assert_allclose(calls[-1], want_plain, rtol=0, atol=1e-12)
        _, rep = pseudoinverse(pu_cut, delta, eps, threshold_mode=sigma)
        assert rep["measured"] <= eps
        np.testing.assert_allclose(calls[-1], want_cut, rtol=0, atol=1e-12)
        pcr_solve(pu_cut, b, sigma, delta, eps)
        np.testing.assert_allclose(calls[-2], want_cut, rtol=0, atol=1e-12)
        np.testing.assert_allclose(calls[-1], want_pcr, rtol=0, atol=1e-12)

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
