import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from svtkit import blockenc
from svtkit.apps import (MarkovChain, discriminate, fast_or, markov_detect,
                         pseudoinverse)
from svtkit.blockenc import (UNITARY_TOL, BlockEncoding,
                             ControlledNotByProjector, Projector,
                             StatePrepPair, embed, encode_density,
                             encode_gram, encode_povm, encode_sparse,
                             is_unitary, lcu, operator_norm, product,
                             _complete_to_unitary, _norm_at_most,
                             check_hermitian)
from svtkit.errors import (ModePreconditionViolated, NormExceeded,
                           NotAProjector, NotHermitian, SparsityViolated)

@pytest.fixture
def rng():
    """This module's generator, seeded anew for each test, so that no
    test's draws depend on which tests ran before it."""
    return np.random.default_rng(7)


def random_unitary(n, gen):
    return scipy.stats.unitary_group.rvs(n, random_state=gen)


def random_contraction(n, norm, gen):
    a = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    return a * (norm / operator_norm(a))


class TestEmbed:
    def test_identity(self):
        be = embed(np.eye(2), alpha=1.0)
        u = be.pu.u
        np.testing.assert_allclose(u[:2, :2], np.eye(2), atol=1e-12)
        np.testing.assert_allclose(u[2:, 2:], -np.eye(2), atol=1e-12)

    def test_extract_roundtrip(self, rng):
        a = random_contraction(4, 0.7, rng)
        be = embed(a, alpha=1.0)
        np.testing.assert_allclose(be.extract(), a, atol=1e-12)

    def test_scaling(self, rng):
        a = random_contraction(3, 0.5, rng)
        alpha = 2 * operator_norm(a)
        be = embed(a, alpha=alpha)
        np.testing.assert_allclose(be.pu.u[:3, :3], a / alpha, atol=1e-12)

    def test_norm_exceeded(self):
        with pytest.raises(NormExceeded):
            embed(2.0 * np.eye(2), alpha=1.0)

    def test_unitarity_of_dilation(self, rng):
        a = random_contraction(5, 0.9, rng)
        be = embed(a, alpha=1.0)
        u = be.pu.u
        assert operator_norm(u.conj().T @ u - np.eye(u.shape[0])) < 1e-12


class TestStructured:
    def test_density_maximally_entangled(self):
        # G|00> = (|00> + |11>)/sqrt(2): reduced state is I/2
        g = np.zeros((4, 4), complex)
        g[:, 0] = np.array([1, 0, 0, 1]) / math.sqrt(2)
        g[:, 1] = np.array([0, 1, 1, 0]) / math.sqrt(2)
        g[:, 2] = np.array([1, 0, 0, -1]) / math.sqrt(2)
        g[:, 3] = np.array([0, 1, -1, 0]) / math.sqrt(2)
        be = encode_density(g, anc_qubits=1, sys_qubits=1)
        np.testing.assert_allclose(be.extract(), np.eye(2) / 2, atol=1e-12)

    def test_povm_identity(self):
        # U = I on 1 + 1 qubits: flag always 0 -> M = I
        be = encode_povm(np.eye(4), anc_qubits=1, sys_qubits=1,
                         target_m=np.eye(2))
        np.testing.assert_allclose(be.extract(), np.eye(2), atol=1e-12)

    def test_povm_random_consistency(self, rng):
        u = random_unitary(8, rng)
        be = encode_povm(u, anc_qubits=1, sys_qubits=2)
        got = be.extract()
        # oracle: M = (<0_a| x I) U^dag (|0><0|_first x I) U (|0_a> x I)
        blk = u @ np.kron(np.array([[1], [0]]), np.eye(4))  # |0_a> x I
        proj = np.kron(np.diag([1.0, 0.0]), np.eye(4))
        want = blk.conj().T @ proj @ blk
        np.testing.assert_allclose(got, want, atol=1e-12)
        assert operator_norm(got - got.conj().T) < 1e-12  # Hermitian PSD

    def test_gram_hermitian_unit_diagonal(self, rng):
        u = random_unitary(8, rng)
        be = encode_gram(u, u, anc_qubits=1, sys_qubits=2)
        g = be.extract()
        np.testing.assert_allclose(g, g.conj().T, atol=1e-12)
        np.testing.assert_allclose(np.diag(g).real, np.ones(4), atol=1e-12)
        w = np.linalg.eigvalsh(g)
        assert w.min() > -1e-12


class TestSparse:
    def test_diagonal_exact(self):
        d = np.diag([0.3, -0.5, 0.7 + 0.1j, 0.2])
        be = encode_sparse(d, 1, 1)
        assert be.alpha == pytest.approx(1.0)
        np.testing.assert_allclose(be.extract(), d, atol=1e-10)

    def test_tridiagonal(self):
        a = np.zeros((4, 4), complex)
        for i in range(4):
            a[i, i] = 0.4
            if i > 0:
                a[i, i - 1] = -0.3
            if i < 3:
                a[i, i + 1] = 0.25
        be = encode_sparse(a, 3, 3)
        assert be.alpha == pytest.approx(3.0)
        np.testing.assert_allclose(be.extract(), a, atol=1e-10)

    def test_zero_matrix(self):
        be = encode_sparse(np.zeros((2, 2)), 1, 1)
        np.testing.assert_allclose(be.extract(), np.zeros((2, 2)), atol=1e-12)

    def test_sparsity_violated(self):
        with pytest.raises(SparsityViolated):
            encode_sparse(np.full((4, 4), 0.1), 2, 4)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 64),
       kind=st.sampled_from(["random", "v0_zero", "e0", "-e0", "i_ek"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_complete_to_unitary(n, kind, seed):
    gen = np.random.default_rng(seed)
    v = np.zeros(n, complex)
    if kind in ("random", "v0_zero"):
        v = gen.standard_normal(n) + 1j * gen.standard_normal(n)
        if kind == "v0_zero" and n > 1:
            v[0] = 0.0
        v /= np.linalg.norm(v)
    elif kind == "i_ek":
        v[int(gen.integers(n))] = 1j
    else:
        v[0] = 1.0 if kind == "e0" else -1.0
    q = _complete_to_unitary(v)
    assert operator_norm(q.conj().T @ q - np.eye(n)) <= 1e-14
    assert np.abs(q[:, 0] - v).max() <= 1e-15


class TestLcu:
    def test_cancellation(self, rng):
        a = random_contraction(4, 0.6, rng)
        e1 = embed(a, 1.0)
        e2 = embed(-a, 1.0)
        pair = StatePrepPair.for_coefficients([0.5, 0.5])
        be = lcu(pair, [e1, e2])
        assert operator_norm(be.extract()) < 1e-12

    def test_single_term(self, rng):
        a = random_contraction(4, 0.6, rng)
        e1 = embed(a, 1.0)
        pair = StatePrepPair.for_coefficients([1.0])
        be = lcu(pair, [e1])
        np.testing.assert_allclose(be.extract(), a, atol=1e-10)

    def test_weighted_combination(self, rng):
        a1 = random_contraction(4, 0.8, rng)
        a2 = random_contraction(4, 0.8, rng)
        pair = StatePrepPair.for_coefficients([0.3, 0.7])
        be = lcu(pair, [embed(a1, 1.0), embed(a2, 1.0)])
        np.testing.assert_allclose(be.extract(), 0.3 * a1 + 0.7 * a2,
                                   atol=1e-10)
        assert be.alpha == pytest.approx(1.0)

    def test_complex_coefficients(self, rng):
        a1 = random_contraction(2, 0.5, rng)
        a2 = random_contraction(2, 0.5, rng)
        y = np.array([0.4 * np.exp(0.3j), 0.6 * np.exp(-1.1j)])
        pair = StatePrepPair.for_coefficients(y)
        be = lcu(pair, [embed(a1, 1.0), embed(a2, 1.0)])
        np.testing.assert_allclose(be.extract(), y[0] * a1 + y[1] * a2,
                                   atol=1e-10)


class TestProduct:
    def test_disjoint(self, rng):
        a = random_contraction(4, 0.7, rng)
        b = random_contraction(4, 0.6, rng)
        be = product(embed(a, 1.0), embed(b, 1.0))
        np.testing.assert_allclose(be.extract(), a @ b, atol=1e-10)
        assert be.ancillas == 2

    def test_identity_factor(self, rng):
        a = random_contraction(4, 0.7, rng)
        be = product(embed(a, 1.0), embed(np.eye(4), 1.0))
        np.testing.assert_allclose(be.extract(), a, atol=1e-10)

    def test_disjoint_alpha_ledger(self, rng):
        a = random_contraction(4, 1.5, rng)
        b = random_contraction(4, 2.5, rng)
        be = product(embed(a, 2.0), embed(b, 3.0))
        assert be.alpha == pytest.approx(6.0)
        np.testing.assert_allclose(be.extract(), a @ b, atol=1e-9)

    def test_chain_error_ledger(self, rng):
        # K perturbed encodings of unitaries: measured error <= 4 K^2 eps
        k, eps = 4, 1e-3
        encs = []
        target = []
        for i in range(k):
            w = random_unitary(2, rng)
            pert = random_unitary(4, rng)
            u = np.block([[w * math.sqrt(1 - eps ** 2), np.zeros((2, 2))],
                          [np.zeros((2, 2)), np.eye(2)]])
            # make unitary: rotate the leaked amplitude into the ancilla block
            th = math.asin(eps)
            rot = np.eye(4, dtype=complex)
            rot[0, 0] = math.cos(th); rot[0, 2] = -math.sin(th)
            rot[2, 0] = math.sin(th); rot[2, 2] = math.cos(th)
            full = rot @ np.kron(np.eye(2), w)
            enc = BlockEncoding(full, alpha=1.0, ancillas=1, eps=2 * eps,
                                target=w)
            encs.append(enc)
            target.append(w)
        chained = product(None, None, mode="chain", chain=encs)
        want = np.eye(2, dtype=complex)
        for w in target:
            want = want @ w
        measured = operator_norm(chained.extract() - want)
        assert measured <= 4 * k * k * (2 * eps)

    def test_shared_mode_bound(self, rng):
        # (1, a, delta)- and (1, a, eps)-encodings of unitaries A and B on
        # shared ancillas give a (1, a, delta + eps + 2 sqrt(delta eps))-
        # encoding of A B
        a, b = random_unitary(3, rng), random_unitary(3, rng)
        delta, eps = 0.01, 0.04
        be1 = BlockEncoding(embed((1 - delta) * a).u, alpha=1.0, ancillas=1,
                            eps=delta, target=a, system_dim=3)
        be2 = BlockEncoding(embed((1 - eps) * b).u, alpha=1.0, ancillas=1,
                            eps=eps, target=b, system_dim=3)
        out = product(be1, be2, mode="shared_ancilla")
        bound = delta + eps + 2 * math.sqrt(delta * eps)
        assert (out.alpha, out.ancillas) == (1.0, 1)
        assert out.eps == pytest.approx(bound, abs=2e-12)
        np.testing.assert_array_equal(out.target, a @ b)
        assert 0.5 * bound < out.measured_error() <= bound

    def test_shared_mode_precondition(self, rng):
        a = random_contraction(4, 0.5, rng)
        with pytest.raises(ModePreconditionViolated):
            product(embed(a, 2.0), embed(a, 2.0), mode="shared_ancilla")


class TestCpiNot:
    def test_second_qubit_control_is_cnot(self):
        pi = Projector(2, indices=[1])  # |1><1|
        gate = ControlledNotByProjector(pi)
        want = np.zeros((4, 4))
        # flag qubit first: |f, c> -> |f ^ c, c>
        for f in range(2):
            for c in range(2):
                want[(f ^ c) * 2 + c, f * 2 + c] = 1
        np.testing.assert_allclose(gate.matrix, want, atol=1e-15)

    def test_zero_projector(self):
        gate = ControlledNotByProjector(Projector(3, indices=[]))
        np.testing.assert_allclose(gate.matrix, np.eye(6), atol=1e-15)

    def test_full_projector(self):
        gate = ControlledNotByProjector(Projector(2, indices=[0, 1]))
        x = np.array([[0, 1], [1, 0]])
        np.testing.assert_allclose(gate.matrix, np.kron(x, np.eye(2)),
                                   atol=1e-15)

    def test_involution(self, rng):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        pi = Projector(4, matrix=np.outer(v, v.conj()))
        rep = ControlledNotByProjector(pi).verify()
        assert max(rep.values()) < 1e-10


class TestProjector:
    def test_dense_canonicalization(self, rng):
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        p = Projector(4, matrix=np.outer(v, v))
        assert p.rank == 1
        np.testing.assert_allclose(p.matrix() @ v, v, atol=1e-12)

    def test_not_a_projector(self):
        with pytest.raises(NotAProjector):
            Projector(2, matrix=np.array([[0.5, 0], [0, 0.3]]))

    def test_embedding_faithfulness(self, rng):
        # top-left embedding commutes with + and @
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((2, 3))
        c = rng.standard_normal((3, 2))
        def emb(m, d=4):
            out = np.zeros((d, d))
            out[: m.shape[0], : m.shape[1]] = m
            return out
        np.testing.assert_allclose(emb(a) + emb(b), emb(a + b), atol=1e-15)
        np.testing.assert_allclose(emb(a) @ emb(c), emb(a @ c), atol=1e-13)


def _with_defect(defects, gen):
    """Q diag(sqrt(1 + e)): U^dag U - I = diag(e) up to rounding."""
    q = scipy.stats.unitary_group.rvs(len(defects), random_state=gen)
    return q * np.sqrt(1.0 + np.asarray(defects))


def _two_norm_verdict(u, tol):
    return operator_norm(u.conj().T @ u - np.eye(u.shape[1])) <= tol


def _verdict(test, m, tol):
    """``test(m, tol)``, or the LinAlgError it raised."""
    try:
        return test(m, tol)
    except np.linalg.LinAlgError:
        return np.linalg.LinAlgError


class TestNormAtMost:
    """`_norm_at_most` decides ||M||_2 <= tol as the exact 2-norm does."""

    def test_same_verdict_as_two_norm(self):
        gen = np.random.default_rng(13)
        exact = lambda m, tol: operator_norm(m) <= tol  # noqa: E731
        seen = set()
        for trial in range(400):
            shape = tuple(int(k) for k in gen.integers(1, 24, 2))
            m = gen.standard_normal(shape)
            if trial % 2:
                m = m + 1j * gen.standard_normal(shape)
            m *= 10.0 ** gen.uniform(-14, 0)
            two, fro = operator_norm(m), float(np.linalg.norm(m))
            # below the 2-norm, between the two norms, or above both, and
            # not within rounding of either (a vector has fro = two)
            low = two * (1 + 1e-9)
            tol = float(gen.choice([two * gen.uniform(0.5, 0.999),
                                    low + (fro - low) * gen.uniform(),
                                    fro * gen.uniform(1.001, 1.5)]))
            want = exact(m, tol)
            assert _norm_at_most(m, tol) is want
            seen.add((want, fro <= tol))
        # refused, accepted by the 2-norm alone, accepted by Frobenius
        assert seen == {(False, False), (True, False), (True, True)}

    @pytest.mark.parametrize("kind", [float, complex])
    def test_nan_entry_decided_as_the_two_norm(self, rng, kind):
        m = rng.standard_normal((5, 5)).astype(kind)
        m[2, 3] = np.nan
        exact = lambda m, tol: operator_norm(m) <= tol  # noqa: E731
        want = _verdict(exact, m, 1.0)
        assert want is not True
        assert _verdict(_norm_at_most, m, 1.0) is want

    def test_hermitian_check_decides_by_the_two_norm(self):
        # ||M - M^dag||_F = 2.4e-9 > 1e-9 >= ||M - M^dag||_2 = 0.6e-9
        m = np.eye(16)
        m[np.arange(0, 16, 2), np.arange(1, 16, 2)] = 0.3e-9
        m[np.arange(1, 16, 2), np.arange(0, 16, 2)] = -0.3e-9
        d = m - m.T
        assert np.linalg.norm(d) > 1e-9 >= operator_norm(d)
        check_hermitian(m, "m")
        m[0, 1] += 1e-9
        with pytest.raises(NotHermitian, match="^m is not Hermitian$"):
            check_hermitian(m, "m")


class TestIsUnitary:
    @pytest.mark.parametrize("tol", [UNITARY_TOL, 1e-11])
    def test_spread_defect_accepted(self, tol):
        # ||G||_F = 3.2 tol > tol >= ||G||_2 = 0.8 tol: the Frobenius norm
        # alone would refuse, the exact 2-norm accepts
        u = _with_defect(np.full(16, 0.8 * tol), np.random.default_rng(3))
        g = u.conj().T @ u - np.eye(16)
        assert np.linalg.norm(g) > tol >= operator_norm(g)
        assert is_unitary(u, tol) is True

    @pytest.mark.parametrize("tol", [UNITARY_TOL, 1e-11])
    def test_defect_just_above_tol_refused(self, tol):
        defects = np.zeros(16)
        defects[5] = 1.05 * tol
        u = _with_defect(defects, np.random.default_rng(4))
        assert is_unitary(u, tol) is False

    def test_same_verdict_as_two_norm(self):
        gen = np.random.default_rng(5)
        verdicts = set()
        for _ in range(200):
            dim = int(gen.integers(2, 40))
            tol = float(gen.choice([UNITARY_TOL, 1e-11]))
            e = gen.uniform(-1, 1, dim) * gen.uniform(0, 1, dim) ** 4
            e *= tol * gen.uniform(0.3, 2.0) / np.abs(e).max()
            u = _with_defect(e, gen)
            want = _two_norm_verdict(u, tol)
            assert is_unitary(u, tol) is want
            verdicts.add(want)
        assert verdicts == {True, False}


    def test_zero_imaginary_part_gram_in_float64(self):
        # a complex U without imaginary part, as `embed` stores it, has its
        # Gram formed in float64: the verdict of the complex Gram, and its
        # Frobenius defect to 1e-15
        gen = np.random.default_rng(6)
        verdicts = set()
        for _ in range(100):
            dim = int(gen.integers(2, 40))
            tol = float(gen.choice([UNITARY_TOL, 1e-11]))
            e = gen.uniform(-1, 1, dim) * gen.uniform(0, 1, dim) ** 4
            e *= tol * gen.uniform(0.3, 2.0) / np.abs(e).max()
            q = scipy.stats.ortho_group.rvs(dim, random_state=gen)
            u = (q * np.sqrt(1.0 + e)).astype(complex)
            want = _two_norm_verdict(u, tol)
            assert is_unitary(u, tol) is want
            assert is_unitary(u.real, tol) is want
            eye = np.eye(dim)
            g_complex = np.linalg.norm(u.conj().T @ u - eye)
            g_real = np.linalg.norm(u.real.T @ u.real - eye)
            assert abs(g_complex - g_real) <= 1e-15
            verdicts.add(want)
        assert verdicts == {True, False}


class TestEmbedPolish:
    """`embed` dilates a real matrix in float64 and polishes U with one
    Newton-Schulz step before wrapping it."""

    @pytest.mark.parametrize("n", [4, 32, 128])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_unitary_to_rounding(self, n, kind):
        gen = np.random.default_rng(n)
        a = gen.standard_normal((n, n))
        if kind == "complex":
            a = a + 1j * gen.standard_normal((n, n))
        a *= 0.95 / operator_norm(a)
        u = embed(a).u
        assert np.linalg.norm(u.conj().T @ u - np.eye(2 * n)) <= 2e-14
        if kind == "real":
            assert not u.imag.any()
        np.testing.assert_allclose(u[:n, :n], a, rtol=0, atol=1e-14)


class TestRealFlag:
    def test_projectors(self):
        gen = np.random.default_rng(12)
        q, _ = np.linalg.qr(gen.standard_normal((6, 2)))
        z, _ = np.linalg.qr(gen.standard_normal((6, 2))
                            + 1j * gen.standard_normal((6, 2)))
        assert Projector(6, indices=[1, 4]).real
        real_basis = Projector(6, matrix=q @ q.T)
        assert real_basis.real and not real_basis.basis().imag.any()
        assert real_basis.complement().real
        assert real_basis.tensor_left(2).real
        assert not Projector(6, matrix=z @ z.conj().T).real

    def test_encodings(self):
        gen = np.random.default_rng(13)
        a = gen.standard_normal((3, 3))
        a *= 0.9 / operator_norm(a)
        real_be = embed(a)
        assert real_be.pu.real and real_be.pu.dagger().real
        assert not embed(a + 0.1j * np.eye(3)).pu.real
        assert not BlockEncoding(random_unitary(4, gen), 1.0, 1).pu.real


class TestLedgerSoundness:
    @pytest.mark.parametrize("trial", range(20))
    def test_product_measured_below_claimed(self, trial, rng):
        n = 4
        a = random_contraction(n, 0.8, rng)
        b = random_contraction(n, 0.9, rng)
        be = product(embed(a, 1.0), embed(b, 1.0))
        assert be.measured_error() <= be.eps + 1e-9

    @pytest.mark.parametrize("trial", range(20))
    def test_lcu_measured_below_claimed(self, trial, rng):
        n = 4
        a1 = random_contraction(n, 0.9, rng)
        a2 = random_contraction(n, 0.9, rng)
        y = rng.random(2) + 0.1
        pair = StatePrepPair.for_coefficients(y)
        be = lcu(pair, [embed(a1, 1.0), embed(a2, 1.0)])
        assert be.measured_error() <= be.eps + 1e-9


class TestLedgerSoundnessDense:
    def test_two_hundred_randomized_products(self):
        # ledger soundness across composition modes, 200 instances each
        local = np.random.default_rng(99)
        for _ in range(200):
            n = int(local.integers(2, 5))
            a = local.standard_normal((n, n)) + 1j * local.standard_normal((n, n))
            b = local.standard_normal((n, n)) + 1j * local.standard_normal((n, n))
            a *= local.uniform(0.2, 0.95) / operator_norm(a)
            b *= local.uniform(0.2, 0.95) / operator_norm(b)
            be = product(embed(a, 1.0), embed(b, 1.0))
            assert be.measured_error() <= be.eps + 1e-9

    def test_two_hundred_randomized_lcu(self):
        local = np.random.default_rng(98)
        for _ in range(200):
            n = int(local.integers(2, 5))
            a1 = local.standard_normal((n, n)); a1 *= 0.9 / operator_norm(a1)
            a2 = local.standard_normal((n, n)); a2 *= 0.9 / operator_norm(a2)
            y = local.random(2) + 0.05
            pair = StatePrepPair.for_coefficients(y)
            be = lcu(pair, [embed(a1, 1.0), embed(a2, 1.0)])
            assert be.measured_error() <= be.eps + 1e-9


class TestClaimedEpsCheck:
    """The claimed eps is checked on ||target - block||_F first; the
    exact 2-norm (an SVD) only when that is over eps + 1e-9."""

    @staticmethod
    def encode(target, eps=0.1):
        # U = I, so the block is I_16 and the difference target - I_16
        return BlockEncoding(np.eye(32), alpha=1.0, ancillas=1, eps=eps,
                             target=target)

    @pytest.fixture
    def norms(self, monkeypatch):
        seen = []
        norm = blockenc.operator_norm

        def counting(m):
            seen.append(m)
            return norm(m)

        monkeypatch.setattr(blockenc, "operator_norm", counting)
        return seen

    def test_spread_difference_accepted(self, norms):
        # ||D||_F = 0.36 > 0.1 >= ||D||_2 = 0.09: the 2-norm accepts
        be = self.encode(1.09 * np.eye(16))
        assert len(norms) == 1
        assert be.measured_error() == pytest.approx(0.09, abs=1e-15)

    def test_two_norm_above_claim_refused(self):
        target = np.eye(16)
        target[3, 3] += 0.2
        with pytest.raises(NormExceeded,
                           match="claimed eps 1.00e-01 but measured 2.00e-01"):
            self.encode(target)

    def test_small_difference_takes_no_svd(self, norms, rng):
        be = embed(random_contraction(64, 0.95, rng))
        assert norms == []
        assert be.measured_error() < 1e-14


class TestCertificateReuse:
    """An encoding on an already certified U, with other projectors or as
    its adjoint, forms no new Gram of U."""

    @pytest.fixture
    def grams(self, monkeypatch):
        seen = []
        check = blockenc.is_unitary

        def counting(u, *args, **kwargs):
            seen.append(np.asarray(u))
            return check(u, *args, **kwargs)

        monkeypatch.setattr(blockenc, "is_unitary", counting)
        return seen

    @staticmethod
    def count(seen, u):
        return sum(m.shape == u.shape and np.array_equal(m, u) for m in seen)

    def test_dagger_and_with_projectors(self, grams, rng):
        pu = embed(random_contraction(3, 0.8, rng)).pu
        assert len(grams) == 1
        dag = pu.dagger()
        comp = pu.with_projectors(pu.pi, pu.pi_tilde.complement())
        assert len(grams) == 1
        np.testing.assert_array_equal(dag.u, pu.u.conj().T)
        assert dag.pi is pu.pi_tilde and dag.pi_tilde is pu.pi
        assert comp.u is pu.u and comp.pi is pu.pi
        np.testing.assert_array_equal(comp.pi_tilde.indices, [3, 4, 5])

    def test_markov_detect(self, grams):
        p = np.zeros((4, 4))
        for i in range(4):
            p[i, i], p[i, (i + 1) % 4], p[i, (i - 1) % 4] = 0.5, 0.25, 0.25
        chain = MarkovChain(p, marked=[0])
        dm = chain.discriminant_marked()
        u = embed((dm + dm.T) / 2, 1.0).u
        grams.clear()
        markov_detect(chain, 4.0)
        assert self.count(grams, u) == 1  # embed's own check

    def test_fast_or(self, grams):
        gen = np.random.default_rng(5)
        vs = [np.linalg.qr(gen.standard_normal((4, 2)))[0] for _ in range(2)]
        projs = [v @ v.T for v in vs]
        u = embed(np.mean([np.eye(4) - q for q in projs], axis=0), 1.0).u
        grams.clear()
        fast_or(projs, np.eye(4) / 4, 0.05, 0.5, 0.01)
        assert self.count(grams, u) == 1  # embed's own check

    def test_discriminate_on_the_complement(self, grams):
        pu = embed(np.diag([0.98, 0.5]), 1.0).pu
        grams.clear()
        verdict = discriminate(pu, 0.9, 0.95, 0.01, np.eye(4)[0])
        assert verdict["used_complement"]
        assert self.count(grams, pu.u) == 0

    def test_pseudoinverse_runs_on_the_adjoint(self, grams):
        pu = embed(np.diag([0.5, 0.25]), 1.0).pu
        grams.clear()
        pseudoinverse(pu, 0.25, 1e-4)
        assert self.count(grams, pu.u.conj().T) == 0
