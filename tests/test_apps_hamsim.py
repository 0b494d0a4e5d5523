import math

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from svtkit import _chebops as cheb
from svtkit.apps import (fractional_query, gibbs_prep, hamiltonian_simulate,
                         hamsim, unitary_log)
from svtkit.approx import approx_exp
from svtkit.blockenc import BlockEncoding, embed, operator_norm
from svtkit.errors import NotHermitian, NumericalFailure, SpectrumTooWide
from svtkit.svt import _fn_of_hermitian


@pytest.fixture
def rng():
    """This module's generator, seeded anew for each test, so that no
    test's draws depend on which tests ran before it."""
    return np.random.default_rng(37)


def random_hermitian(n, norm, rng):
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (h + h.conj().T) / 2
    return h * (norm / operator_norm(h))


class TestHamiltonianSimulate:
    def test_zero_time(self, rng):
        h = random_hermitian(2, 0.5, rng)
        be = embed(h, 1.0)
        out, rep = hamiltonian_simulate(be, 0.0, 1e-6)
        np.testing.assert_allclose(out.extract(), np.eye(2), atol=1e-12)

    def test_pauli_z_half(self):
        h = np.diag([0.5, -0.5])
        be = embed(h, 1.0)
        out, rep = hamiltonian_simulate(be, 3.0, 1e-6)
        want = np.diag([np.exp(1.5j), np.exp(-1.5j)])
        assert operator_norm(out.extract() - want) <= 1e-6

    def test_random_h_multiple_times(self, rng):
        h = random_hermitian(4, 0.9, rng)
        be = embed(h, 1.0)
        for t in (1.0, 5.0):
            out, rep = hamiltonian_simulate(be, t, 1e-6)
            want = scipy.linalg.expm(1j * t * h)
            assert rep["measured"] <= 1e-6
            assert operator_norm(out.extract() - want) <= 1e-6

    def test_robust_mode_ledger(self, rng):
        h = random_hermitian(4, 0.8, rng)
        be = BlockEncoding(embed(h, 1.0).pu.u, alpha=1.0, ancillas=1,
                           eps=0.0, target=h)
        t, eps = 3.0, 1e-6
        out, rep = hamiltonian_simulate(be, t, eps, robust=True)
        assert rep["measured"] <= eps
        assert rep["uses"] <= 6 * abs(t) + 9 * math.log(12 / eps)

    def test_unmet_eps_refused(self, rng):
        # rounding in the circuit alone exceeds 1e-14
        h = random_hermitian(2, 0.5, rng)
        with pytest.raises(NumericalFailure):
            hamiltonian_simulate(embed(h, 1.0), 1.0, 1e-14)

    def test_not_hermitian(self, rng):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a *= 0.5 / operator_norm(a)
        be = embed(a, 1.0)
        with pytest.raises(NotHermitian):
            hamiltonian_simulate(be, 1.0, 1e-4)

    def test_robust_mode_refuses_a_non_hermitian_target(self, rng):
        h = random_hermitian(2, 0.5, rng)
        # within the claimed encoding error of the block, not Hermitian
        target = h + np.array([[0, 1e-6], [0, 0]])
        be = BlockEncoding(embed(h, 1.0).pu.u, alpha=1.0, ancillas=1,
                           eps=2e-6, target=target)
        with pytest.raises(NotHermitian, match="be.target"):
            hamiltonian_simulate(be, 1.0, 1e-4, robust=True)


class TestUnitaryLog:
    def test_identity(self):
        enc, rep = unitary_log(np.eye(2), 1e-5)
        assert operator_norm(enc.extract()) <= 1e-5

    def test_pauli_x_quarter(self):
        sx = np.array([[0, 1], [1, 0]], complex)
        u = scipy.linalg.expm(1j * sx / 4)
        enc, rep = unitary_log(u, 1e-5)
        assert rep["measured"] <= 1e-5
        h_rec = math.pi / 2 * enc.extract()
        assert operator_norm(h_rec - sx / 4) <= 1e-5

    def test_sine_stage(self, rng):
        h = random_hermitian(2, 0.45, rng)
        u = scipy.linalg.expm(1j * h)
        enc, rep = unitary_log(u, 1e-4)
        assert rep["sine_block_error"] <= 1e-10

    def test_spectrum_too_wide(self):
        u = np.diag([np.exp(2.0j), np.exp(-2.0j)])
        with pytest.raises(SpectrumTooWide):
            unitary_log(u, 1e-4)


class TestFractionalQuery:
    def test_t_one_small(self, rng):
        h = random_hermitian(2, 0.4, rng)
        u = scipy.linalg.expm(1j * h)
        enc, rep = fractional_query(u, 0.6, 1e-5)
        want = scipy.linalg.expm(0.6j * h)
        assert operator_norm(enc.extract() - want) <= 1e-5

    def test_half_power(self):
        sz = np.diag([1.0, -1.0])
        u = scipy.linalg.expm(1j * sz / 3)
        enc, rep = fractional_query(u, 0.5, 1e-5)
        want = scipy.linalg.expm(1j * sz / 6)
        assert operator_norm(enc.extract() - want) <= 1e-5

    def test_t_one_split(self, rng):
        h = random_hermitian(2, 0.45, rng)
        u = scipy.linalg.expm(1j * h)
        enc, rep = fractional_query(u, 1.0, 1e-5)
        assert operator_norm(enc.extract() - u) <= 1e-5

    def test_t_minus_one_in_one_shot(self, monkeypatch):
        from svtkit.apps import hamsim
        calls = []
        real = hamsim.fractional_query
        monkeypatch.setattr(hamsim, "fractional_query",
                            lambda *a: calls.append(a) or real(*a))
        gen = np.random.default_rng(41)
        h = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
        h = (h + h.conj().T) / 2
        u = scipy.linalg.expm(0.45j * h / operator_norm(h))
        enc, rep = hamsim.fractional_query(u, -1.0, 1e-5)
        assert len(calls) == 1
        assert rep["measured"] <= 1e-5
        assert operator_norm(enc.extract() - u.conj().T) <= 1e-5

    def test_t_zero(self, rng):
        h = random_hermitian(2, 0.3, rng)
        u = scipy.linalg.expm(1j * h)
        enc, rep = fractional_query(u, 0.0, 1e-5)
        assert operator_norm(enc.extract() - np.eye(2)) <= 1e-5


class TestGibbs:
    def test_beta_zero(self, rng):
        h = random_hermitian(2, 0.8, rng)
        be = embed(h, 1.0)
        state, rep = gibbs_prep(be, 0.0, 1e-4)
        np.testing.assert_allclose(rep["reduced_state"], np.eye(2) / 2,
                                   atol=1e-12)

    def test_beta_zero_report_has_the_normal_keys(self, rng):
        be = embed(random_hermitian(2, 0.8, rng), 1.0)
        _, zero = gibbs_prep(be, 0.0, 1e-4)
        _, near = gibbs_prep(be, 1e-3, 1e-4)
        assert zero.keys() == near.keys()
        # Z = tr exp(0) = n, which the beta > 0 path approaches
        assert zero["partition_function"] == 2.0
        assert near["partition_function"] == pytest.approx(2.0, rel=1e-2)
        assert zero["claimed"] == near["claimed"] == 1e-4

    def test_two_level_weights(self):
        h = np.diag([-1.0, 1.0])
        be = embed(h, 1.0)
        state, rep = gibbs_prep(be, 1.0, 1e-5)
        w = np.array([1.0, math.exp(-2.0)])
        w /= w.sum()
        np.testing.assert_allclose(np.diag(rep["reduced_state"]).real, w,
                                   atol=1e-4)
        assert rep["trace_distance"] <= 1e-4

    def test_random_instance(self, rng):
        h = random_hermitian(4, 0.9, rng)
        be = embed(h, 1.0)
        state, rep = gibbs_prep(be, 2.0, 1e-5)
        assert rep["trace_distance"] <= 1e-4

    def test_sqrt_mode_degree_scaling(self):
        # doubling beta should grow the degree by roughly sqrt(2)
        h = np.diag([0.0, 0.36, 0.64, 1.0])  # PSD with exact square roots
        sq = np.sqrt(h)
        be = embed(sq, 1.0)
        _, rep1 = gibbs_prep(be, 4.0, 1e-5, sqrt_mode=True)
        _, rep2 = gibbs_prep(be, 16.0, 1e-5, sqrt_mode=True)
        ratio = rep2["degree"] / rep1["degree"]
        assert ratio <= 3.0  # sqrt scaling, not linear
        gibbs = scipy.linalg.expm(-4.0 * h)
        gibbs /= np.trace(gibbs)
        diff = rep1["reduced_state"] - gibbs
        assert 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum() <= 1e-4
        assert rep1["trace_distance"] <= 1e-4
        assert rep1["partition_function"] == pytest.approx(
            np.trace(scipy.linalg.expm(-4.0 * h)).real, rel=1e-12)


def _compose_by_recurrence(qc, base):
    """sum_k qc_k T_k(u(x)) for u = sum_j base_j T_j(x), by the loop
    sqrt-mode Gibbs used before it substituted T_k(-T_2) = (-1)^k T_2k;
    that loop composed exp(-(beta/2)(1 - u)) with u = 1 - x^2."""
    t_prev = np.array([1.0])
    t_cur = base.copy()
    comp = qc[0] * t_prev
    if len(qc) > 1:
        comp = cheb.add(comp, qc[1] * t_cur)
    for k in range(2, len(qc)):
        t_next = cheb.add(2.0 * cheb.mul(base, t_cur), -t_prev)
        t_prev, t_cur = t_cur, t_next
        comp = cheb.add(comp, qc[k] * t_cur)
    return cheb.trim(comp, 1e-15)


@pytest.mark.parametrize("beta, degree", [(4.0, 14), (16.0, 22)])
def test_sqrt_mode_substitution_matches_the_recurrence(beta, degree,
                                                        monkeypatch):
    # the recurrence on E = approx_exp(beta/4) with u = -T_2(x) = 1 - 2x^2
    seen = []
    real = hamsim.eigenvalue_transform
    monkeypatch.setattr(hamsim, "eigenvalue_transform",
                        lambda be, f, **kw: seen.append(f) or real(be, f,
                                                                   **kw))
    h = np.diag([0.0, 0.36, 0.64, 1.0])
    eps = 1e-5
    _, rep = gibbs_prep(embed(np.sqrt(h), 1.0), beta, eps, sqrt_mode=True)
    assert rep["degree"] <= degree
    assert rep["trace_distance"] <= 1e-7  # 7.9e-8 and 5.6e-8 measured
    got = 2.0 * seen[0].cheb_coeffs.real
    qc = approx_exp(beta / 4.0, min(eps / 4.0, 0.4)).cheb.cheb_coeffs.real
    want = _compose_by_recurrence(qc, np.array([0.0, 0.0, -1.0]))
    assert len(got) == len(want)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("seed", range(20))
def test_hermitian_functions_match_scipy(seed):
    # the references hamsim takes from one eigendecomposition
    gen = np.random.default_rng(seed)
    n = int(gen.integers(2, 17))
    h = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    h = (h + h.conj().T) / 2
    h /= operator_norm(h)
    t, beta = gen.uniform(0.5, 5.0, 2)
    for fn, want in ((lambda w: np.exp(1j * t * w),
                      scipy.linalg.expm(1j * t * h)),
                     (np.sin, scipy.linalg.sinm(h)),
                     (lambda w: np.exp(-beta * (w + 1.0)),
                      scipy.linalg.expm(-beta * (h + np.eye(n))))):
        assert operator_norm(_fn_of_hermitian(h, fn) - want) <= 1e-13
