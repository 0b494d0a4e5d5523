"""Hamiltonian simulation, unitary logarithm, fractional queries and
Gibbs state preparation."""
from __future__ import annotations

import math

import numpy as np

from ..approx import (LIB_MAX_DEGREE, _memo, _one_sign_series, _to_peak,
                      approx_arcsin, approx_exp, approx_trig, solve_r)
from ..blockenc import (BlockEncoding, Projector, ProjectedUnitary,
                        _norm_at_most, check_hermitian, operator_norm)
from ..errors import NumericalFailure, SpectrumTooWide
from ..poly import ChebSeries
from ..qsp import chebyshev_phases, phases_for_target
from ..svt import (_fn_of_hermitian, alternating_sequence, branch_lcu,
                   eigenvalue_transform, svt_apply)


def _four_branch_circuit(pu: ProjectedUnitary, cos_coeffs, sin_coeffs):
    """sum_{c,b} |cb><cb| (x) i^c U_{(-1)^b Phi^(c)} wrapped in Hadamards:
    the |00> block realizes (cos^(SV) + i sin^(SV)) / 2."""
    refls = []
    for coeffs in (cos_coeffs, sin_coeffs):
        arr = np.asarray(coeffs, float)
        scale = float(np.abs(arr).max())
        refl, _ = phases_for_target(arr, tol=max(1e-9, 1e-7 * scale))
        refls.append(refl)
    circuit, ledger = branch_lcu(pu, [(1, refls[0]), (1j, refls[1])])
    return circuit, ledger["u_uses"]


def _amplify_half(wrap, sys_dim):
    """Triple-length Chebyshev amplification turning an exact encoding of
    W/2, a `branch_lcu` wrap and so unitary by its certificate, into an
    encoding of W (T_3(1/2) = -1)."""
    proj = Projector(len(wrap), indices=range(sys_dim))
    pu = ProjectedUnitary._certified(wrap, proj, proj)
    seq = chebyshev_phases(3)
    u_phi, _ = alternating_sequence(pu, seq)
    return -u_phi


def _meets(measured: float, eps: float, what: str) -> float:
    """``measured`` when it is within the requested ``eps``; a request
    the construction cannot meet is refused."""
    if measured > eps:
        raise NumericalFailure(f"{what}: measured error {measured:.3e} "
                               f"exceeds requested eps {eps:.3e}")
    return measured


def hamiltonian_simulate(be: BlockEncoding, t: float, eps: float,
                         robust: bool = False,
                         max_degree: int = LIB_MAX_DEGREE):
    """(1, a+2, eps)-encoding of e^{itH} from a block-encoding of H.

    `approx_trig`'s polynomials at precision eps/6 (eps/12 in robust
    mode), as they are, produce e^{itH}/2 through the two-qubit parity
    wrapper; a length-3 Chebyshev amplification removes the factor 2.
    Robust mode tolerates input encoding error up to eps/|2t| and budgets
    for it via the |t|-Lipschitz bound on the exponential.  A polynomial above
    ``max_degree`` raises DegreeOverflow.
    """
    h_block = be.extract() / be.alpha
    check_hermitian(h_block, "encoded operator")
    if robust:
        if be.target is None:
            raise ValueError("robust mode verifies against be.target")
        h_true = np.asarray(be.target, complex) / be.alpha
        check_hermitian(h_true, "be.target")
        if be.eps > eps / abs(2 * t) + 1e-12:
            raise ValueError("input encoding error above eps/|2t|")
    else:
        h_true = h_block
    tau = t * be.alpha
    if tau == 0:
        dim = be.dim
        out = BlockEncoding(np.eye(dim, dtype=complex), alpha=1.0,
                            ancillas=be.ancillas,
                            eps=0.0, target=np.eye(be.system_dim),
                            system_dim=be.system_dim)
        return out, {"uses": 0, "claimed_uses": 0, "measured": 0.0,
                     "claimed": eps, "degree_cos": 0, "degree_sin": 0}
    eps_poly = eps / 12.0 if robust else eps / 6.0
    cos_r, sin_r = approx_trig(tau, eps_poly, max_degree)
    half_circ, layer_uses = _four_branch_circuit(
        be.pu, cos_r.cheb.cheb_coeffs.real, sin_r.cheb.cheb_coeffs.real)
    amplified = _amplify_half(half_circ, be.system_dim)
    want = _fn_of_hermitian(h_true, lambda w: np.exp(1j * tau * w))
    got = amplified[: be.system_dim, : be.system_dim]
    measured = _meets(operator_norm(got - want), eps, "hamiltonian_simulate")
    uses = 3 * layer_uses
    claimed_uses = (6 * be.alpha * abs(t) + 9 * math.log(12.0 / eps)
                    if robust else
                    3 * solve_r(math.e * abs(tau) / 2.0, eps / 6.0))
    out = BlockEncoding(amplified, alpha=1.0, ancillas=be.ancillas + 2,
                        eps=eps, target=want, system_dim=be.system_dim)
    report = {"uses": uses, "claimed_uses": claimed_uses,
              "measured": measured, "claimed": eps,
              "degree_cos": cos_r.degree, "degree_sin": sin_r.degree}
    return out, report


def _principal_log_over_i(u: np.ndarray) -> np.ndarray:
    """H with u = e^{iH}, eigenphases on the principal branch, made
    Hermitian; SpectrumTooWide unless ||H|| <= 1/2."""
    w, v = np.linalg.eig(u)
    angles = np.angle(w)
    h = v @ np.diag(angles) @ np.linalg.inv(v)
    h = (h + h.conj().T) / 2
    if not _norm_at_most(h, 0.5 + 1e-9):
        raise SpectrumTooWide("need ||H|| <= 1/2 on the principal branch")
    return h


def _sine_encoding(u: np.ndarray):
    """Projected unitary whose top-left block is sin(H) for u = e^{iH}:
    -i cU^dag (ZX (x) I) cU sandwiched by Hadamards on the control, so
    the original |+>-block lands on coordinates."""
    n = u.shape[0]
    cu = np.zeros((2 * n, 2 * n), complex)
    cu[:n, :n] = np.eye(n)
    cu[n:, n:] = u
    zx = np.array([[0, 1], [-1, 0]], complex)
    v = -1j * (cu.conj().T @ np.kron(zx, np.eye(n)) @ cu)
    h1 = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    v = np.kron(h1, np.eye(n)) @ v @ np.kron(h1, np.eye(n))
    proj = Projector(2 * n, indices=range(n))
    return ProjectedUnitary(v, proj, proj)


def unitary_log(u, eps: float):
    """Encoding whose extracted block is (2/pi) H for u = e^{iH} with
    ||H|| <= 1/2, via the sine extraction and the arcsin polynomial."""
    u = np.asarray(u, complex)
    h_true = _principal_log_over_i(u)
    pu = _sine_encoding(u)
    n = u.shape[0]
    sin_block = pu.u[:n, :n]
    arc = approx_arcsin(0.5, min(eps * 2.0 / math.pi, 0.4))
    outcome = svt_apply(pu, arc.cheb, kind="real_poly", delta=max(eps, 1e-7))
    block = outcome.result[:n, :n]
    h_rec = math.pi / 2.0 * block
    measured = _meets(operator_norm(h_rec - h_true), eps, "unitary_log")
    report = {
        "measured": measured, "claimed": eps,
        "subnormalization": 2.0 / math.pi,
        "degree": len(outcome.phases.phis),
        "sine_block_error": operator_norm(
            sin_block - _fn_of_hermitian(h_true, np.sin)),
    }
    # on the certificate of svt_apply's wrap: no Gram of it is formed
    enc = BlockEncoding(outcome.encoding, alpha=1.0, ancillas=2, eps=eps,
                        target=2.0 / math.pi * h_true, system_dim=n)
    return enc, report


def fractional_query(u, t: float, eps: float):
    """eps-approximation of u^t = e^{itH} for t in [-1, 1], ||H|| <= 1/2.

    The sine encoding carries sin(H), whose spectrum lies in [-1/2, 1/2];
    the polynomial pair of `_fracq_poly` maps it to cos(tH) and sin(tH),
    and the two-branch circuit plus its Chebyshev amplification give
    e^{itH} in one shot for every such t.
    """
    u = np.asarray(u, complex)
    if not -1.0 <= t <= 1.0:
        raise ValueError("need t in [-1, 1]")
    h_true = _principal_log_over_i(u)
    pu = _sine_encoding(u)
    cos_c, sin_c = _fracq_poly(t, eps)
    half_circ, layer_uses = _four_branch_circuit(pu, cos_c, sin_c)
    amplified = _amplify_half(half_circ, u.shape[0])
    want = _fn_of_hermitian(h_true, lambda w: np.exp(1j * t * w))
    got = amplified[: u.shape[0], : u.shape[0]]
    measured = _meets(operator_norm(got - want), eps, "fractional_query")
    enc = BlockEncoding(amplified, alpha=1.0, ancillas=3, eps=eps,
                        target=want, system_dim=u.shape[0])
    report = {"measured": measured, "claimed": eps,
              "degree": 3 * layer_uses}
    return enc, report


@_memo
def _fracq_poly(t: float, eps: float):
    """(cos, sin) coefficient pair of e^{i t arcsin(x)} for
    `fractional_query`, each within its budget 3 eps/8 on |x| <= 1/2 and
    scaled by `_to_peak` to peak at most 1 - 3 eps/32.

    `_one_sign_series` truncates cos(t arcsin x) =
    2F1(-t/2, t/2; 1/2; x^2) and sin(t arcsin x) =
    t x 2F1((1+t)/2, (1-t)/2; 3/2; x^2) within eps/8 at y_max = 1/4.  For
    |t| <= 1 every ratio is at most 1 in magnitude, as the tail bound
    needs, and after the first cosine term a series' terms have one sign,
    so its partial sums stay in [-1, 1]: the scale moves each by at most
    the cut's eps/16 plus 3 eps/32, to within 9 eps/32 in all.
    """
    h = t / 2.0
    cos_c = _one_sign_series(
        1.0, lambda k: (k - h) * (k + h) / ((k + 0.5) * (k + 1)),
        np.square, 0, 0.25, eps / 8.0, LIB_MAX_DEGREE)
    sin_c = _one_sign_series(
        t, lambda k: (k + 0.5 + h) * (k + 0.5 - h) / ((k + 1.5) * (k + 1)),
        np.square, 1, 0.25, eps / 8.0, LIB_MAX_DEGREE)
    top = 1.0 - 3.0 * eps / 32.0
    return _to_peak(cos_c, top), _to_peak(sin_c, top)


def gibbs_prep(be: BlockEncoding, beta: float, eps: float,
               sqrt_mode: bool = False):
    """Subnormalized Gibbs state by applying exp(-(beta/2)(H+I)) (or
    exp(-(beta/2) H) via the square-root trick) to half of a maximally
    entangled pair; returns the exact normalized state plus the
    subnormalization/amplification ledger.  The polynomial is
    `approx_exp`'s series E with x -> -x, or in sqrt mode E at beta/4 with
    T_k -> (-1)^k T_2k, which is E(-T_2(x)) = exp(-(beta/2) x^2)."""
    h = be.extract() / be.alpha
    check_hermitian(h, "encoded operator")
    n = be.system_dim
    if beta == 0:
        rho = np.eye(n) / n
        state = np.eye(n).reshape(-1) / math.sqrt(n)
        # exp(0) = I: Z = tr I = n, and the maximally mixed state is exact
        return state, {"reduced_state": rho, "trace_distance": 0.0,
                       "claimed": eps, "degree": 0, "subnormalization": 1.0,
                       "rounds": 1, "partition_function": float(n)}
    # be encodes sqrt(H) in sqrt mode; T_k(-u) = (-1)^k T_k(u), T_k(T_2) = T_2k
    step = 2 if sqrt_mode else 1
    q = approx_exp(beta / (2.0 * step), min(eps / 4.0, 0.4))
    f_coeffs = np.zeros(step * q.degree + 1)
    f_coeffs[::step] = (q.cheb.cheb_coeffs.real
                        * (-1.0) ** np.arange(q.degree + 1))
    out = eigenvalue_transform(be, ChebSeries(f_coeffs / 2.0),
                               delta=max(eps / 4, 1e-8))
    f_half = out.result  # f(H)/2
    omega = np.eye(n).reshape(n * n) / math.sqrt(n)
    applied = np.kron(f_half, np.eye(n)) @ omega
    norm2 = float(np.real(applied.conj() @ applied))
    state = applied / math.sqrt(norm2)
    psi = state.reshape(n, n)
    reduced = psi @ psi.conj().T
    # the reduced state is f(h)^2 / Z = e^{-beta E} / Z with energies
    # E = h^2 in sqrt mode (h encodes sqrt(H)) and E = h + 1 otherwise
    boltzmann = _fn_of_hermitian(
        h, lambda w: np.exp(-beta * (w * w if sqrt_mode else w + 1.0)))
    z = float(np.trace(boltzmann).real)
    gibbs = boltzmann / z
    tdist = 0.5 * float(np.abs(np.linalg.eigvalsh(reduced - gibbs)).sum())
    rounds = int(math.ceil(math.sqrt(n / max(z, 1e-300))))
    report = {
        "reduced_state": reduced,
        "trace_distance": tdist,
        "claimed": eps,
        "degree": step * q.degree,
        "subnormalization": norm2,
        "rounds": rounds,
        "partition_function": z,
    }
    return state, report
