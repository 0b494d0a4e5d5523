"""Threshold projectors, singular vector transformation, discrimination
and the fast OR primitive."""
from __future__ import annotations

import math

import numpy as np

from .. import _chebops as cheb_ops
from ..approx import approx_rect, approx_sign
from ..blockenc import ProjectedUnitary, embed, operator_norm
from ..errors import PromiseViolated
from ..qsp import phases_for_target
from ..svt import (_fn_of_hermitian, alternating_sequence, branch_lcu,
                   reference_svt)


def threshold_projectors_exact(pu: ProjectedUnitary, interval):
    """Exact right/left singular value threshold projectors Pi_S, Pi~_S
    for S = [lo, hi]: `reference_svt` of S's indicator on the block, and
    on its adjoint for the left one.  A singular vector of img(Pi) or
    img(Pi~) past the block's shorter side counts at singular value 0."""
    lo, hi = interval

    def inside(s):
        return (s >= lo) & (s <= hi)

    return (reference_svt(pu.u, inside, "even", pu.pi, pu.pi_tilde),
            reference_svt(pu.u.conj().T, inside, "even", pu.pi_tilde, pu.pi))


def threshold_projector(pu: ProjectedUnitary, t: float, delta: float,
                        eps: float):
    """Even rectangle transformation acting as identity above t + delta
    and annihilating below t - delta, verified against the exact
    threshold projectors."""
    if not (delta > 0 and 0 < t - delta and t + delta < 1):
        raise ValueError("need 0 < t - delta and t + delta < 1")
    eps_poly = min(eps * eps / 2.0, 0.4)
    rect = approx_rect(t, delta, eps_poly)
    # the theorem's transformation is the high-pass complement: identity
    # above the threshold, suppression below.  Phase noise enters the
    # operator conditions first-order, so eps/10 suffices there.
    high = cheb_ops.add(np.array([1.0]), -rect.cheb.cheb_coeffs.real)
    refl, _ = phases_for_target(high, tol=eps / 10.0)
    wrapped, ledger = branch_lcu(pu, [(1, refl)])
    dim = pu.dim
    # the wrapped circuit's top blocks are (U_Phi +- U_-Phi) / 2
    avg = wrapped[:dim, :dim]
    u_phi = avg + wrapped[:dim, dim:]
    above = reference_svt(pu.u, lambda s: s >= t + delta, "even", pu.pi,
                          pu.pi_tilde)
    below = reference_svt(pu.u, lambda s: s <= t - delta, "even", pu.pi,
                          pu.pi_tilde)
    cond1 = operator_norm(above @ u_phi @ above - above)
    # the |+> averaged version for the complementary condition
    cond2 = operator_norm(below @ avg @ below)
    report = {"above_identity_error": cond1, "below_suppression": cond2,
              "claimed": eps, "degree": len(refl.phis), "ledger": ledger}
    return u_phi, report


def singular_vector_transform(pu: ProjectedUnitary, delta: float, eps: float):
    """Map right singular vectors with singular value >= delta to the
    corresponding left singular vectors: the odd sign transformation."""
    eps_poly = min(eps * eps / 2.0, 0.4)
    sign = approx_sign(delta, eps_poly)
    refl, _ = phases_for_target(sign.cheb, tol=eps / 10.0)
    u_phi, ledger = alternating_sequence(pu, refl)
    wv = reference_svt(pu.u, np.ones_like, "odd", pu.pi, pu.pi_tilde)
    right, left = threshold_projectors_exact(pu, (delta, 2.0))
    measured = operator_norm(left @ u_phi @ right - left @ wv @ right)
    report = {"measured": measured, "claimed": eps,
              "degree": len(refl.phis), "ledger": ledger}
    return u_phi, report


def discriminate(pu: ProjectedUnitary, a: float, b: float, eps: float,
                 input_state):
    """Decide singular value <= a versus >= b with error at most eps,
    switching to the complementary encoding when that side's gap
    sqrt(1-a^2) - sqrt(1-b^2) is wider; one-sided at a = 0 or b = 1.
    """
    if not (0 <= a < b <= 1):
        raise ValueError("need 0 <= a < b <= 1")
    state = np.asarray(input_state, complex)
    state = state / np.linalg.norm(state)
    # input-state mass on right singular vectors with sigma in [0, a] or
    # [b, 1]
    bands = reference_svt(pu.u, lambda s: (s <= a + 1e-12) | (s >= b - 1e-12),
                          "even", pu.pi, pu.pi_tilde)
    mass = float(np.vdot(state, bands @ state).real)
    if mass < 1.0 - 1e-9:
        raise PromiseViolated(
            f"input has mass {1.0 - mass:.3e} outside the promised bands")
    comp_gap = math.sqrt(1 - a * a) - math.sqrt(1 - b * b)
    use_complement = comp_gap > (b - a)
    if use_complement:
        pu_run = pu.with_projectors(pu.pi, pu.pi_tilde.complement())
        a_run, b_run = math.sqrt(1 - b * b), math.sqrt(1 - a * a)
        flip = True
    else:
        pu_run = pu
        a_run, b_run = a, b
        flip = False
    one_sided = (a_run == 0.0) or math.isclose(a_run, 0.0, abs_tol=1e-15)

    if one_sided:
        # odd sign transformation preserves zero singular values exactly
        eps_poly = min(eps / 2.0, 0.4)
        sign = approx_sign(b_run, eps_poly)
        refl, _ = phases_for_target(sign.cheb, tol=eps / 10.0)
        u_phi, ledger = alternating_sequence(pu_run, refl)
        out = pu_run.pi_tilde.matrix() @ (u_phi @ state)
        p_accept = float(np.linalg.norm(out) ** 2)
        degree = len(refl.phis)
    else:
        t = (a_run + b_run) / 2.0
        dl = (b_run - a_run) / 2.0
        eps_poly = min(eps / 2.0, 0.4)
        rect = approx_rect(t, dl, eps_poly)
        refl, _ = phases_for_target(rect.cheb, tol=eps / 10.0)
        wrapped, _ = branch_lcu(pu_run, [(1, refl)])
        avg = wrapped[:pu_run.dim, :pu_run.dim]
        proj = pu_run.pi.matrix()
        out = proj @ (avg @ state)
        # rectangle plateau sits BELOW t: accepting means small sigma
        p_below = float(np.linalg.norm(out) ** 2)
        p_accept = 1.0 - p_below
        degree = len(refl.phis)

    # p_accept estimates Pr[conclude sigma >= b_run]
    concluded_above_run = p_accept >= 0.5
    if flip:
        decision = "below_a" if concluded_above_run else "above_b"
    else:
        decision = "above_b" if concluded_above_run else "below_a"
    err = 1.0 - p_accept if concluded_above_run else p_accept
    return {
        "decision": decision,
        "error_probability": err,
        "one_sided": one_sided,
        "degree_used": degree,
        "used_complement": use_complement,
        "accept_probability": p_accept,
    }


def fast_or(projectors, rho, eta: float, nu: float, eps: float):
    """Accept with probability >= (1-eta)^2/4 - eps when some Tr[rho Pi_i]
    >= 1 - eta, and with probability <= 5 m nu + eps when the average
    acceptance is below nu.  Probabilities are exact density-matrix
    computations on the A = mean(I - Pi_i) encoding.

    The discrimination runs on the complementary block (I - Pi~) U Pi,
    where the thresholds 1 - lambda and 1 - 4 lambda / 5 open up to a
    sqrt(lambda)-wide gap; that is what buys the sqrt(m) degree.
    """
    if not (0 < eta <= 0.5 and 0 <= nu <= 0.5 and 0 < eps <= 0.5):
        raise ValueError("need eta, nu, eps in (0, 1/2]")
    projs = [np.asarray(p, complex) for p in projectors]
    m = len(projs)
    dim = projs[0].shape[0]
    a_op = np.mean([np.eye(dim) - p for p in projs], axis=0)
    be = embed(a_op, 1.0)
    lam = (1.0 - eta) / (2.0 * m)
    a_thr = 1.0 - lam
    b_thr = 1.0 - 0.8 * lam
    # complementary thresholds
    a_c = math.sqrt(max(1.0 - b_thr ** 2, 0.0))
    b_c = math.sqrt(max(1.0 - a_thr ** 2, 0.0))
    pu_c = be.pu.with_projectors(be.pu.pi, be.pu.pi_tilde.complement())
    t = (a_c + b_c) / 2.0
    dl = (b_c - a_c) / 2.0
    eps_poly = min(eps / 2.0, 0.4)
    rect = approx_rect(t, dl, eps_poly)
    high = cheb_ops.add(np.array([1.0]), -rect.cheb.cheb_coeffs.real)
    refl, _ = phases_for_target(high, tol=eps / 10.0)
    wrapped, ledger = branch_lcu(pu_c, [(1, refl)])
    # accept = the |+>-averaged high-pass block keeps the state: for an
    # eigenvector with A-eigenvalue s the probability is P(sqrt(1-s^2))^2,
    # which is ~1 exactly when s <= 1 - lambda
    block = wrapped[:dim, :dim]
    rho = np.asarray(rho, complex)
    p_accept = float(np.real(np.trace(block @ rho @ block.conj().T)))
    # numerical check of the threshold-projector mass inequality
    mass_low = float(np.real(np.trace(
        _fn_of_hermitian(a_op, lambda w: w <= a_thr) @ rho)))
    report = {
        "acceptance": p_accept,
        "case_i_bound": (1 - eta) ** 2 / 4.0 - eps,
        "case_ii_bound": 5.0 * m * nu + eps,
        "projected_mass_low": mass_low,
        "projected_mass_bound": (1 - eta) ** 2 / 4.0,
        "degree": len(refl.phis),
        "ledger": ledger,
    }
    return p_accept, report
