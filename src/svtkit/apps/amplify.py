"""Amplitude amplification family: fixed-point, oblivious, and uniform
singular value amplification."""
from __future__ import annotations

import math

import numpy as np

from .. import _chebops as cheb
from ..approx import _to_peak, approx_rect, approx_sign
from ..blockenc import Projector, ProjectedUnitary, compress, operator_norm
from ..errors import (NotAnIsometryWithinTolerance, OverlapBelowThreshold,
                      SpectrumOutOfRange)
from ..poly import ChebSeries
from ..qsp import chebyshev_phases, phases_for_target
from ..svt import alternating_sequence, svt_apply


def fixed_point_amplify(u, pi: Projector, psi0, delta: float, eps: float):
    """Map |psi0> to the normalized target Pi U |psi0> / a, given a > delta.

    Builds the odd sign-polynomial sequence on the rank-one encoding
    Pi U |psi0><psi0| and returns the circuit together with the measured
    deviation ||psi_G - U~ psi0||.
    """
    u = np.asarray(u, complex)
    psi0 = np.asarray(psi0, complex)
    psi0 = psi0 / np.linalg.norm(psi0)
    target_vec = pi.matrix() @ (u @ psi0)
    a = float(np.linalg.norm(target_vec))
    if a <= delta:
        raise OverlapBelowThreshold(f"overlap {a:.4g} <= delta {delta:.4g}")
    psi_g = target_vec / a
    if a >= 1 - 1e-12:
        # U itself, one use and no phases
        ledger = {"u_uses": 1, "cpi_not": 0, "cpi_tilde_not": 0,
                  "single_qubit_phases": 0}
        report = {"overlap": a, "deviation": 0.0, "success_probability": 1.0,
                  "degree": 1, "claimed_deviation": eps, "ledger": ledger}
        return u, report
    proj0 = Projector(u.shape[0], matrix=np.outer(psi0, psi0.conj()))
    pu = ProjectedUnitary(u, proj0, pi)
    eps_sign = eps * eps / 4.0
    sign = approx_sign(delta, eps_sign)
    refl, _ = phases_for_target(sign.cheb, tol=eps * eps / 2.0)
    u_tilde, ledger = alternating_sequence(pu, refl)
    out_vec = u_tilde @ psi0
    deviation = float(np.linalg.norm(psi_g - out_vec))
    success = float(abs(psi_g.conj() @ out_vec) ** 2)
    report = {"overlap": a, "deviation": deviation,
              "success_probability": success, "degree": len(refl.phis),
              "claimed_deviation": eps, "ledger": ledger}
    return u_tilde, report


def oblivious_amplify(pu: ProjectedUnitary, n: int, isometry_eps: float = 0.0):
    """Recover the isometry W from Pi~ U Pi ~= sin(pi/2n) W using the
    degree-n Chebyshev sequence; robust deviation bounded by 2 n eps."""
    if n < 1 or n % 2 == 0:
        raise ValueError("need odd n >= 1")
    block = pu.block()
    w_small, s, vh = np.linalg.svd(block)
    target_amp = math.sin(math.pi / (2 * n))
    dev = float(np.abs(s - target_amp).max()) if len(s) else 0.0
    if dev > isometry_eps + 1e-12:
        raise NotAnIsometryWithinTolerance(
            f"singular values deviate from sin(pi/2n) by {dev:.3e}")
    w_iso = w_small @ vh  # polar isometry, compressed bases
    w_full = pu.pi_tilde.basis() @ w_iso @ pu.pi.basis().conj().T
    if n == 1:
        u_tilde = pu.u
        ledger = {"u_uses": 1, "cpi_not": 0, "cpi_tilde_not": 0,
                  "single_qubit_phases": 0}
    else:
        seq = chebyshev_phases(n)
        u_phi, ledger = alternating_sequence(pu, seq)
        sign = math.cos((n - 1) * math.pi / 2.0)
        u_tilde = sign * u_phi
    got = pu.pi_tilde.matrix() @ u_tilde @ pu.pi.matrix()
    measured = operator_norm(got - w_full)
    report = {"measured": measured, "claimed": 2.0 * n * isometry_eps,
              "ledger": ledger}
    return u_tilde, report


def amplify_singular_values(pu: ProjectedUnitary, gamma: float, delta: float,
                            eps: float):
    """Multiply every singular value by gamma with relative error eps,
    assuming they all sit below (1 - delta) / gamma.  The target gamma x
    rect(x) goes through `_to_peak` at 1 - eps'/4, eps' rect's error; for
    eps <= 0.9 it is below that already, as rect <= eps' past 1/gamma."""
    if gamma <= 1:
        raise ValueError("need gamma > 1")
    _, sigma, vh = np.linalg.svd(pu.block())
    limit = (1.0 - delta) / gamma
    if np.any(sigma > limit + 1e-12):
        raise SpectrumOutOfRange(
            f"singular value {sigma.max():.4g} above (1-delta)/gamma "
            f"= {limit:.4g}")
    t = (1.0 - delta / 2.0) / gamma
    rect = approx_rect(t, delta / (2.0 * gamma), min(eps / gamma, 0.4))
    p_re = _to_peak(gamma * cheb.mulx(rect.cheb.cheb_coeffs.real),
                    1.0 - rect.claimed_error / 4.0)
    outcome = svt_apply(pu, ChebSeries(p_re, "odd"), kind="real_poly",
                        delta=max(eps, 1e-8))
    block_out = compress(pu.pi_tilde, outcome.result, pu.pi)
    _, so, vho = np.linalg.svd(block_out)
    rel = []
    for sig in sigma:
        if sig > 1e-9:
            target = gamma * sig
            j = int(np.argmin(np.abs(so - target)))
            rel.append(abs(so[j] / target - 1.0))
    report = {
        "relative_errors": rel,
        "max_relative_error": max(rel) if rel else 0.0,
        "claimed": eps,
        "degree": len(outcome.phases.phis),
        "subspace_angle": _subspace_angle(sigma, vh, so, vho),
        "full_magnification_error": operator_norm(gamma * pu.block()
                                                  - block_out),
    }
    return outcome, report


def _subspace_angle(sigma, vh, so, vho) -> float:
    """Largest principal angle between old and new right singular spaces
    of the significantly-transformed directions, from the SVDs of the
    old block (sigma, V^dag) and the new one (so, Vo^dag)."""
    keep_old = sigma > 1e-6
    keep_new = so > 1e-6
    if not keep_old.any() or not keep_new.any():
        return 0.0
    vo = vh.conj().T[:, : len(sigma)][:, keep_old]
    vn = vho.conj().T[:, : len(so)][:, keep_new]
    if vo.shape[1] != vn.shape[1]:
        return float("nan")
    overlaps = np.linalg.svd(vo.conj().T @ vn, compute_uv=False)
    overlaps = np.clip(overlaps, -1, 1)
    return float(np.arccos(overlaps.min()))
