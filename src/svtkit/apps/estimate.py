"""Singular value estimation through controlled Chebyshev walks.

The controlled walk sum_t |t><t| (x) T_{2t}^(SV)(A) prepares the cosine
signature cos(2 t theta_j) of each right singular vector; a singular
vector transformation fixes the state-dependent normalization N_j
coherently, and a Fourier transform reads theta out.
"""
from __future__ import annotations

import math

import numpy as np

from ..approx import approx_sign
from ..blockenc import Projector, ProjectedUnitary
from ..qsp import chebyshev_phases, phases_for_target
from ..svt import alternating_sequence


def _controlled_walk(pu: ProjectedUnitary, n_bits: int) -> np.ndarray:
    """sum_t |t><t| (x) U_{Phi(2t)} with the Chebyshev phase sequences."""
    dim = pu.dim
    n = 2 ** n_bits
    out = np.zeros((n * dim, n * dim), complex)
    for t in range(n):
        if t == 0:
            block = np.eye(dim, dtype=complex)
        else:
            block, _ = alternating_sequence(pu, chebyshev_phases(2 * t))
        out[t * dim:(t + 1) * dim, t * dim:(t + 1) * dim] = block
    return out


def singular_value_estimate(pu: ProjectedUnitary, state, n_bits: int,
                            eps: float):
    """Estimate cos(theta) for the singular values carried by ``state``.

    Returns the exact outcome distribution over the folded n-bit grid
    estimates sigma_hat = cos(pi m / 2^n).
    """
    state = np.asarray(state, complex)
    state = state / np.linalg.norm(state)
    dim = pu.dim
    n = 2 ** n_bits
    walk = _controlled_walk(pu, n_bits)
    had = np.ones((n, n), complex)
    for i in range(n):
        for j in range(n):
            had[i, j] = (-1) ** bin(i & j).count("1")
    had /= math.sqrt(n)
    w1 = walk @ np.kron(had, np.eye(dim))
    zero_time = np.zeros(n)
    zero_time[0] = 1.0
    right = Projector(n * dim, matrix=np.kron(
        np.outer(zero_time, zero_time), pu.pi.matrix()))
    left = pu.pi.tensor_left(n)
    pu_sve = ProjectedUnitary(w1, right, left)
    # normalization constants are bounded below by ~ sqrt(1/2)
    eps_poly = min(eps / 4.0, 0.1)
    sign = approx_sign(0.35, eps_poly)
    refl, _ = phases_for_target(sign.cheb, tol=eps / 10.0)
    u_tilde, ledger = alternating_sequence(pu_sve, refl)
    init = np.kron(zero_time, state)
    vec = u_tilde @ init
    # Fourier transform on the time register
    ft = np.exp(2j * math.pi * np.outer(np.arange(n), np.arange(n)) / n)
    ft /= math.sqrt(n)
    vec = np.kron(ft, np.eye(dim)).conj().T @ vec
    probs = np.zeros(n)
    for m in range(n):
        probs[m] = float(np.linalg.norm(vec[m * dim:(m + 1) * dim]) ** 2)
    probs = probs / probs.sum()
    # fold m and 2^n - m onto theta = pi m / 2^n
    estimates = {}
    for m in range(n):
        folded = min(m, n - m)
        theta = math.pi * folded / n
        key = round(math.cos(theta), 12)
        estimates[key] = estimates.get(key, 0.0) + probs[m]
    report = {
        "raw_distribution": probs,
        "estimates": estimates,
        "degree": 2 * (n - 1),
        "normalization_degree": len(refl.phis),
        "ledger": ledger,
    }
    return estimates, report
