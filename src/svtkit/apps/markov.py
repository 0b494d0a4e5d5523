"""Markov chain machinery: discriminant matrices, hitting times, and the
walk-based detection/finding speedups."""
from __future__ import annotations

import math

import numpy as np

from ..approx import LIB_MAX_DEGREE, approx_sign, approx_window
from ..blockenc import Projector, ProjectedUnitary, embed, operator_norm
from ..errors import (EmptyMarkedSet, GapTooSmall, NotReversible)
from ..qsp import phases_for_target
from ..svt import alternating_sequence, branch_lcu


class MarkovChain:
    """Row-stochastic matrix with stationary distribution, discriminant,
    and marked-set bookkeeping."""

    def __init__(self, p, marked=()):
        p = np.asarray(p, float)
        n = p.shape[0]
        if p.shape != (n, n):
            raise ValueError("transition matrix must be square")
        if np.abs(p.sum(axis=1) - 1).max() > 1e-12:
            raise ValueError("rows must sum to 1")
        if p.min() < -1e-15:
            raise ValueError("negative transition probability")
        self.p = p
        self.n = n
        self.marked = frozenset(int(x) for x in marked)
        if any(x < 0 or x >= n for x in self.marked):
            raise ValueError("marked index out of range")
        # stationary distribution: left eigenvector for eigenvalue 1
        w, v = np.linalg.eig(p.T)
        i = int(np.argmin(np.abs(w - 1.0)))
        pi = np.real(v[:, i])
        pi = np.abs(pi) / np.abs(pi).sum()
        resid = operator_norm((pi @ p - pi).reshape(1, -1))
        if resid > 1e-10:
            raise ValueError(f"stationary residual {resid:.2e}")
        self.pi_stat = pi
        flow = pi[:, None] * p
        self.reversible = bool(np.abs(flow - flow.T).max() <= 1e-10)
        root = np.sqrt(pi)
        self.discriminant = root[:, None] * p / root[None, :]
        self.p_m = float(sum(pi[x] for x in self.marked))

    def discriminant_marked(self) -> np.ndarray:
        d = self.discriminant.copy()
        for x in self.marked:
            d[x, :] = 0.0
            d[:, x] = 0.0
        return d

    def sqrt_pi(self) -> np.ndarray:
        return np.sqrt(self.pi_stat)

    def singular_gap(self) -> float:
        s = np.linalg.svd(self.discriminant, compute_uv=False)
        s = np.sort(s)[::-1]
        return float(s[0] - s[1]) if len(s) > 1 else 1.0


def markov_hitting(chain: MarkovChain):
    """Hitting time from the stationary distribution via the
    discriminant eigendecomposition, plus the absolute-value variant and
    its factor-2 bound."""
    if not chain.reversible:
        raise NotReversible("hitting-time formula needs a reversible chain")
    if not chain.marked:
        raise EmptyMarkedSet("need a nonempty marked set")
    dm = chain.discriminant_marked()
    lam, vecs = np.linalg.eigh((dm + dm.T) / 2)
    root = chain.sqrt_pi()
    overlaps = np.abs(vecs.T @ root) ** 2
    if np.any(lam > 1 - 1e-12):
        raise NotReversible("marked discriminant keeps a unit eigenvalue")
    ht = float(np.sum(overlaps / (1.0 - lam)) - chain.p_m)
    abs_sum = float(np.sum(overlaps / (1.0 - np.abs(lam))))
    report = {
        "hitting_time": ht,
        "abs_variant": abs_sum,
        "abs_bound": 2.0 * (ht + chain.p_m),
        "eigenvalues": lam,
        "overlaps": overlaps,
    }
    return ht, report


def _embedded_state(vec, dim):
    out = np.zeros(dim, complex)
    out[: len(vec)] = vec
    return out


def markov_detect(chain: MarkovChain, k_bound: float,
                  max_degree: int = LIB_MAX_DEGREE):
    """One-sided test separating HT <= K from M = empty.

    Works on the complementary block of an exact dilation of D_M, where
    the stationary state has singular value exactly 0 when nothing is
    marked; degree O(sqrt(K+1)).  A sign polynomial above ``max_degree``
    raises DegreeOverflow.
    """
    if not chain.reversible:
        raise NotReversible("detection assumes a reversible chain")
    dm = chain.discriminant_marked()
    be = embed((dm + dm.T) / 2, 1.0)
    dim = be.dim
    pu = be.pu.with_projectors(be.pu.pi, be.pu.pi_tilde.complement())
    lam_thr = 1.0 - 1.0 / (12.0 * (k_bound + 1.0))
    b_comp = math.sqrt(max(1.0 - lam_thr ** 2, 1e-300))
    sign = approx_sign(0.9 * b_comp, 0.02, max_degree)
    refl, _ = phases_for_target(sign.cheb, tol=0.01)
    u_phi, ledger = alternating_sequence(pu, refl)
    state = _embedded_state(chain.sqrt_pi(), dim)
    out = pu.pi_tilde.matrix() @ (u_phi @ state)
    p_marked = float(np.linalg.norm(out) ** 2)
    report = {
        "marked_probability": p_marked,
        "decision": "marked" if p_marked >= 0.5 else "empty",
        "degree": len(refl.phis),
        "ledger": ledger,
        "threshold": lam_thr,
    }
    return report


def markov_find(chain: MarkovChain, delta: float, eps: float):
    """Prepare (approximately) the marked-restricted stationary state and
    return the exact sampling distribution over states.

    Stage one shrinks every non-top singular value of D(P) with the
    windowing polynomial (degree O(sqrt(1/delta) log(1/eps))), leaving a
    block close to |pi><pi|; stage two rotates |pi> onto |pi_M> with an
    odd sign transformation seeded by the p_M >= eps promise.
    """
    if not chain.reversible:
        raise NotReversible("finding assumes a reversible chain")
    if not chain.marked:
        raise EmptyMarkedSet("need marked elements to find")
    gap = chain.singular_gap()
    if gap < delta - 1e-12:
        raise GapTooSmall(f"singular gap {gap:.4g} below promised {delta:.4g}")
    if chain.p_m < eps - 1e-12:
        raise GapTooSmall(f"marked mass {chain.p_m:.4g} below promised {eps:.4g}")
    n = chain.n
    d_mat = (chain.discriminant + chain.discriminant.T) / 2
    be = embed(d_mat, 1.0)
    dim = be.dim
    # windowing stage: P(1) = 1, |P| <= eps_w below 1 - delta
    eps_w = min(eps / 4.0, 0.05)
    n_win = max(2, int(math.ceil(math.acosh(1.0 / eps_w)
                                 / math.acosh(1.0 / (1.0 - 0.9 * delta)))))
    win = approx_window(n_win, eps_w)
    refl_w, _ = phases_for_target(win.cheb, tol=eps_w / 2.0)
    # the Hadamard-wrapped +-Phi pair: its |0>-ancilla block is the
    # windowed discriminant
    v1, _ = branch_lcu(be.pu, [(1, refl_w)])
    # second stage encoding: left = marked coordinates & |0> ancilla,
    # right = the |0> (x) |pi> direction
    zero_pi = np.zeros(2 * dim, complex)
    zero_pi[:dim] = _embedded_state(chain.sqrt_pi(), dim)
    right = Projector(2 * dim, matrix=np.outer(zero_pi, zero_pi.conj()))
    left = Projector(2 * dim, indices=sorted(chain.marked))
    pu2 = ProjectedUnitary._certified(v1, right, left)
    amp = operator_norm(pu2.encoded())
    sign = approx_sign(max(0.5 * math.sqrt(eps), 0.5 * amp), 0.02)
    refl2, _ = phases_for_target(sign.cheb, tol=0.01)
    u2, _ = alternating_sequence(pu2, refl2)
    final = u2 @ zero_pi
    # marginal distribution over chain states (H on the ancilla leaves it
    # unchanged)
    probs = np.zeros(n)
    for x in range(n):
        probs[x] = abs(final[x]) ** 2 + abs(final[dim + x]) ** 2
    probs_renorm = probs / probs.sum()
    marked_mass = float(sum(probs[x] for x in chain.marked) / probs.sum())
    costs = {
        "S": 1,
        "U": len(refl_w.phis) * len(refl2.phis),
        "C": len(refl2.phis),
    }
    report = {
        "distribution": probs_renorm,
        "marked_mass": marked_mass,
        "window_degree": n_win,
        "rotation_degree": len(refl2.phis),
        "costs": costs,
        "stage_one_amplitude": amp,
    }
    return probs_renorm, report
