"""Singular value transformation of projected unitary encodings.

`reference_svt` is the SVD-based brute-force oracle everything else is
checked against.  `alternating_sequence` builds the phased product U_Phi
exactly as a dense matrix together with its use-count ledger, as n
phase rotations about Pi~ (or Pi) and about U Pi U^dag (or U^dag Pi~ U),
the two-reflection form of the n uses of U; `branch_lcu` runs the +-Phi
pairs of the real polynomial construction on an ancilla and wraps them
in Hadamards, and `svt_apply` drives the three flavors (complex
polynomial, real polynomial with the |+> ancilla doubling, Hermitian
eigenvalue transformation with the two-qubit parity wrapper), checking
each on the compressed block.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from . import _chebops as cheb
from .blockenc import (UNITARY_TOL, BlockEncoding, Projector,
                       ProjectedUnitary, _polish, check_hermitian, compress,
                       is_unitary, operator_norm, sandwich)
from .errors import (ConventionMismatch, Inadmissible, NormExceeded,
                     NumericalFailure, ParityMismatch)
from .poly import ChebSeries, ParityPoly, _as_cheb_array
from .qsp import (PhaseSequence, SignalPair, _degree_cut, complete_complex,
                  phases_for_target, phases_from_pq, to_reflection)

SATURATION_TOL = 1e-10  # sigma >= 1 - tol counts as the saturated block
RANK_TOL = 1e-11
# `alternating_sequence` runs the overlap recurrence from this dimension
# on, when V_rest^dag V_rest > tau^2 I; its docstring has the measurements
OVERLAP_MIN_DIM = 64
OVERLAP_TAU = 0.2


def reference_svt(a, f, parity: str, pi: Projector = None,
                  pi_tilde: Projector = None) -> np.ndarray:
    """Brute-force singular value transformation oracle, from one
    `np.linalg.svd` A = W Sigma V^dag.

    odd:  sum f(s_i) |psi~_i><psi_i|;
    even: sum over a right-basis of img(Pi), f(s_i) |psi_i><psi_i| with
    zero singular values mapped through f(0).

    ``a`` is the compressed block itself, or, with both projectors, the
    full-space matrix they compress.  ``f`` is a callable: a ParityPoly or
    ChebSeries, evaluated by its call (`poly.evaluate`), or any function.
    """
    if parity not in ("even", "odd"):
        raise ParityMismatch("parity must be even or odd")
    if (isinstance(f, (ParityPoly, ChebSeries)) and f.parity != parity
            and f.degree > 0):
        raise ParityMismatch(f"f has parity {f.parity}, asked {parity}")
    a = np.atleast_2d(np.asarray(a, complex))
    if pi is not None:
        bw, bv = pi_tilde.basis(), pi.basis()
        a = compress(pi_tilde, a, pi)
    w, s, vh = np.linalg.svd(a)
    dmin = len(s)
    if parity == "odd":
        core = (w[:, :dmin] * np.asarray(f(s), complex)) @ vh[:dmin]
    else:
        # every right singular vector of img(Pi), zero ones through f(0)
        sig = np.zeros(vh.shape[0])
        sig[:dmin] = s
        core = (vh.conj().T * np.asarray(f(sig), complex)) @ vh
    if pi is None:
        return core
    return (bw if parity == "odd" else bv) @ core @ bv.conj().T


# ----------------------------------------------------------------------
# invariant subspace decomposition


@dataclasses.dataclass
class InvariantDecomposition:
    saturated: list        # (psi, psi~) 1-d blocks with sigma = 1
    blocks: list           # (sigma, psi, psi_perp, psi~, psi~_perp)
    right_kernel: list     # (psi, U psi)
    left_kernel: list      # (U^dag psi~, psi~)

    def _gram_defect(self, side: int) -> float:
        """||M^dag M - I||_2 for the columns M of every subspace's right
        (side 0) or left (side 1) vectors; 0 when there are none."""
        vecs = [pair[side] for pair in self.saturated]
        for blk in self.blocks:
            vecs.extend(blk[1 + 2 * side:3 + 2 * side])
        vecs += [pair[side] for pair in self.right_kernel + self.left_kernel]
        if not vecs:
            return 0.0
        m = np.column_stack(vecs)
        return operator_norm(m.conj().T @ m - np.eye(m.shape[1]))

    def gram_defect(self) -> float:
        return self._gram_defect(0)

    def gram_defect_tilde(self) -> float:
        return self._gram_defect(1)

    def two_by_two_defect(self, u: np.ndarray) -> float:
        worst = 0.0
        for sig, psi, psi_perp, psit, psit_perp in self.blocks:
            got = np.array([
                [psit.conj() @ (u @ psi), psit.conj() @ (u @ psi_perp)],
                [psit_perp.conj() @ (u @ psi), psit_perp.conj() @ (u @ psi_perp)],
            ])
            root = math.sqrt(max(0.0, 1 - sig ** 2))
            want = np.array([[sig, root], [root, -sig]])
            worst = max(worst, float(np.abs(got - want).max()))
        return worst


def invariant_decomposition(pu: ProjectedUnitary) -> InvariantDecomposition:
    """The one- and two-dimensional invariant subspaces of a projected
    unitary: saturated directions, rotation blocks spanned by
    (psi_i, psi_i^perp), and the two kernel families."""
    w, sigma, vh = np.linalg.svd(pu.block())
    v = vh.conj().T
    rank = int(np.sum(sigma > RANK_TOL))
    bw = pu.pi_tilde.basis()
    bv = pu.pi.basis()
    u = pu.u
    pi_m = pu.pi.matrix()
    pit_m = pu.pi_tilde.matrix()
    d = bv.shape[1]
    dt = bw.shape[1]
    saturated, blocks, right_kernel, left_kernel = [], [], [], []
    for i, sig in enumerate(sigma):
        psi = bv @ v[:, i]
        psit = bw @ w[:, i]
        if sig >= 1.0 - SATURATION_TOL:
            saturated.append((psi, psit))
        elif sig > RANK_TOL:
            root = math.sqrt(1.0 - sig ** 2)
            psi_perp = (np.eye(pu.dim) - pi_m) @ (u.conj().T @ psit) / root
            psit_perp = (np.eye(pu.dim) - pit_m) @ (u @ psi) / root
            blocks.append((sig, psi, psi_perp, psit, psit_perp))
    for i in range(rank, d):
        psi = bv @ v[:, i]
        right_kernel.append((psi, u @ psi))
    for i in range(rank, dt):
        psit = bw @ w[:, i]
        left_kernel.append((u.conj().T @ psit, psit))
    return InvariantDecomposition(saturated, blocks, right_kernel, left_kernel)


# ----------------------------------------------------------------------
# the alternating phase modulation sequence


def _rows(indices: np.ndarray):
    """The rows of a sorted index set: a slice when they are contiguous."""
    if len(indices) and indices[-1] - indices[0] == len(indices) - 1:
        return slice(int(indices[0]), int(indices[-1]) + 1)
    return indices


def _phase_layer(x: np.ndarray, layer, phi: float, small: np.ndarray,
                 big: np.ndarray) -> None:
    """x <- (I + c P) x in place, c = e^{2i phi} - 1, so that
    e^{i phi (2P - I)} x = e^{-i phi} (I + c P) x.

    ``layer`` is the row selection of an index projector, whose rows are
    scaled by e^{2i phi}, or a pair (V, V^dag), P = V V^dag, which
    costs the rank-r update x += V (c V^dag x): two matmuls written into
    ``small`` (at least r x dim) and ``big`` (dim x dim).  A float64 V
    multiplies the float64 view of x, whose rows interleave real and
    imaginary parts: one dgemm each, with no copy and no real/imaginary
    split.  c is formed as -2 sin^2 phi + i sin 2phi, so layers with
    phases phi and -phi are exact complex conjugates.
    """
    s = math.sin(phi)
    c = complex(-2.0 * s * s, math.sin(2.0 * phi))
    if not isinstance(layer, tuple):
        x[layer] *= 1.0 + c
        return
    v, vh = layer
    w = small[:v.shape[1]]
    if v.dtype == np.float64:
        np.matmul(vh, x.view(np.float64), out=w.view(np.float64))
        w *= c
        np.matmul(v, w.view(np.float64), out=big.view(np.float64))
    else:
        np.matmul(vh, x, out=w)
        w *= c
        np.matmul(v, w, out=big)
    x += big


def _overlap_layers(x0: np.ndarray, rows, v: np.ndarray, phis):
    """The layers of `alternating_sequence` on U_Phi = (prod R_j) x0 when
    the fixed projector is the index set ``rows`` (T), by a recurrence on
    its overlap with the moved projector V V^dag; None when V's rows
    outside T fail the tau test.

    With x = (prod so far) x0, X = x[T] and Z = V^dag x, a fixed layer is
    Z += c V_T^dag X, X *= 1 + c and a moved one S += c Z, X += c V_T Z,
    Z *= 1 + c (V^dag V = I), while the other rows stay x0 + V_rest S.
    A real V multiplies float64 views, as in `_phase_layer`.
    """
    dim, rank = v.shape
    outside = np.ones(dim, bool)
    outside[rows] = False
    top, low = _rows(rows), _rows(np.flatnonzero(outside))
    v_low = v[low]
    gram = v_low.conj().T @ v_low
    gram[np.diag_indices(rank)] -= OVERLAP_TAU ** 2
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return None
    v_top = np.ascontiguousarray(v[top])
    v_top_h = np.ascontiguousarray(v_top.conj().T)
    x = np.array(x0[top], dtype=complex)
    z = np.array(v.conj().T @ x0, dtype=complex)
    s = np.zeros_like(z)
    w = np.empty_like(z)
    y = np.empty_like(x)
    real = v.dtype == np.float64
    xv, wv, yv, sv = (a.view(np.float64) if real else a
                      for a in (x, w, y, s))
    for j in range(len(phis) - 1, -1, -1):
        sn = math.sin(phis[j])
        c = complex(-2.0 * sn * sn, math.sin(2.0 * phis[j]))
        if j % 2:
            np.multiply(z, c, out=w)
            s += w
            np.matmul(v_top, wv, out=yv)
            x += y
            z *= 1.0 + c
        else:
            np.matmul(v_top_h, xv, out=wv)
            w *= c
            z += w
            x *= 1.0 + c
    out = np.empty((dim, dim), complex)
    out[top] = x
    tail = v_low @ sv
    out[low] = x0[low] + (tail.view(complex) if real else tail)
    return out


def alternating_sequence(pu: ProjectedUnitary, phi: PhaseSequence):
    """U_Phi per the alternating phase modulation definition (reflection
    convention), plus the gate ledger: n uses of U/U^dag, n of each
    projector-controlled NOT, n single-qubit phases.

    Odd n: e^{i phi_1 (2Pi~-I)} U e^{i phi_2 (2Pi-I)} U^dag ... U; even n:
    e^{i phi_1 (2Pi-I)} U^dag e^{i phi_2 (2Pi~-I)} U ... U.

    The gates are as written; only the matmuls are re-associated.
    Since U e^{i phi (2Pi-I)} U^dag = e^{i phi (2 U Pi U^dag - I)}, U_Phi
    is R_1 R_2 ... R_n (times U for odd n): phase rotations about a fixed
    projector (Pi~ for odd n, Pi for even n) at odd j and about a moved one
    (U Pi U^dag, resp. U^dag Pi~ U) at even j.  The moved basis is
    `_polish` of U B, B a basis of Pi (U's columns for an index set), resp.
    of U^dag B~; per call at dim 8/64/128/256 (dim/2 real columns, one BLAS
    thread) a QR took 15/42/213/1537 us, polish 5/21/49/310 us.  Starting
    from U (odd n) or I (even n), the layers are applied from the left, R_n
    first.  The factors e^{-i phi_j} go in once at the end.  For a real
    encoding (`pu.real`) both bases are real and each matmul is a float64
    dgemm on the view of a complex array; only the phases are complex.
    Flops below are real ones, for a real encoding.

    The loop (`_phase_layer`) scales the fixed projector's rows for an
    index projector and runs a rank-r update otherwise, so a U, U^dag
    pair of layers costs 8 r dim^2 against 8 dim^3 for two products
    with U.  When the fixed projector is an index set T of rows, from
    dim >= OVERLAP_MIN_DIM on, `_overlap_layers` runs the same layers on
    X = x[T], Z = V^dag x and S instead: one |T| x r matmul per layer,
    8 r |T| dim a pair, plus 2 r dim^2 before and 4 r (dim - |T|) dim
    after the layers.  That halves the work for `embed`'s r = |T| =
    dim/2.  At one BLAS thread, interleaved, recurrence against loop:
    0.89-0.99x at dims 4-48 (its extra elementwise passes lose), 1.09x
    at dim 64 with 101 layers (0.93x with 21), dim 128 with 101 layers
    8.5 -> 5.9 ms, dim 256 with 51 layers 32.7 -> 22.3 ms.

    Z repeats what X and the other rows hold (Z = V_T^dag X +
    V_rest^dag x[rest]).  Each layer's rounding breaks that identity by
    about u, the exact layers keep the break, and every moved layer feeds
    it back into X.  Those feedbacks add up in phase when the two
    projectors share a direction, so the defect ||U_Phi^dag U_Phi - I||
    can grow like d^2 u; otherwise the rotation between them makes them
    cancel, with a gain of about 1 / sigma_min(V_rest).  So the recurrence
    runs only when one Cholesky of V_rest^dag V_rest - tau^2 I succeeds,
    tau = OVERLAP_TAU: for `embed`, when the block's largest singular
    value is below sqrt(1 - tau^2) = 0.98.  At dim 64, 8 draws a cell,
    every singular value at sigma_max: up to sigma_max = 0.979 the
    recurrence's defect is at most the loop's in every draw with
    d = 101-511 (with d <= 51 up to 2.6 times it, at most 9.3e-14), and
    in every draw with d = 21-301 for Gaussian blocks scaled to
    sigma_max; at 0.99 it is up to 1.8 times the loop's (d = 101); at
    0.9999 it reaches 1.45e-12 and at 1, 1.29e-12, past UNITARY_TOL.
    Elsewhere the loop runs, and its result is unchanged.
    """
    if phi.convention != "reflection":
        raise ConventionMismatch("alternating_sequence wants reflection phases")
    n = len(phi.phis)
    u = np.ascontiguousarray(pu.u.real) if pu.real else pu.u
    fixed, moved, by = ((pu.pi_tilde, pu.pi, u) if n % 2
                        else (pu.pi, pu.pi_tilde, u.conj().T))
    if fixed.indices is not None:
        first = _rows(fixed.indices)
    else:
        v = np.ascontiguousarray(fixed.basis().real if fixed.real
                                 else fixed.basis())
        first = v, v.conj().T
    if moved.indices is not None:
        b = by[:, _rows(moved.indices)]
    else:
        b = by @ np.ascontiguousarray(moved.basis().real if pu.real
                                      else moved.basis())
    v = _polish(b)
    second = v, v.conj().T
    x0 = u if n % 2 else np.eye(pu.dim)
    x = None
    if fixed.indices is not None and pu.dim >= OVERLAP_MIN_DIM:
        x = _overlap_layers(x0, fixed.indices, v, phi.phis)
    if x is None:
        x = np.array(x0, dtype=complex)
        small = np.empty((max(fixed.rank, moved.rank), pu.dim), complex)
        big = np.empty_like(x)
        for j in range(n - 1, -1, -1):
            _phase_layer(x, second if j % 2 else first, phi.phis[j], small,
                         big)
    total = math.fsum(phi.phis)
    x *= complex(math.cos(total), -math.sin(total))
    ledger = {"u_uses": n, "cpi_not": n, "cpi_tilde_not": n,
              "single_qubit_phases": n}
    return x, ledger


def _hadamard_wrap(branches) -> np.ndarray:
    """(H^{(x)m} (x) I) diag(U_0, ..., U_{k-1}) (H^{(x)m} (x) I), k = 2^m,
    by block arithmetic: block (a, b) is
    (1/k) sum_c (-1)^{popcount(c & (a ^ b))} U_c, so k = 2 gives
    1/2 [[U_0 + U_1, U_0 - U_1], [U_0 - U_1, U_0 + U_1]]."""
    k = len(branches)
    dim = branches[0].shape[0]
    mixes = [sum((-1) ** bin(c & s).count("1") * u
                 for c, u in enumerate(branches)) / k for s in range(k)]
    out = np.empty((k * dim, k * dim), complex)
    for a in range(k):
        for b in range(k):
            out[a * dim:(a + 1) * dim, b * dim:(b + 1) * dim] = mixes[a ^ b]
    return out


def _wrap_rounding(k: int, dim: int) -> float:
    """`branch_lcu`'s e = gamma_{k-1} k sqrt((1 + UNITARY_TOL) dim)."""
    ku = (k - 1) * np.finfo(float).eps / 2
    return ku / (1 - ku) * k * math.sqrt((1.0 + UNITARY_TOL) * dim)


def branch_lcu(pu: ProjectedUnitary, terms):
    """The +-Phi branch construction: for each term (w, Phi) the branches
    w U_Phi and w U_{-Phi} on a shared ancilla register, wrapped in
    Hadamards.  With k terms, the |0..0> block is
    (1/2k) sum_j w_j (U_{Phi_j} + U_{-Phi_j}), the w-weighted real parts
    of the polynomials over k.

    ``terms`` is [(weight, refl), ...] with |weight| = 1 and len(terms) a
    power of two.  refl is a reflection PhaseSequence; None, standing for
    the pair (I, -I), whose average vanishes; or a real constant c with
    |c| <= 1, standing for the exact pair (e^{i theta} I, e^{-i theta} I)
    with cos theta = c, which uses U zero times.  Returns the wrapped
    circuit and the ledger of the longest phase sequence (None if there
    is none).

    The wrap meets UNITARY_TOL by proof, so callers build on it with
    `ProjectedUnitary._certified`.  In exact arithmetic the wrap of the
    k = 2 len(terms) weighted branches b_c is W = H diag(b_c) H with H
    orthogonal, so its defect is the largest branch defect delta.
    `_hadamard_wrap` forms k block sums of the k terms +-b_c, each filling
    k blocks, and divides them by k exactly; by the recursive-summation
    bound (Higham, Accuracy and Stability of Numerical Algorithms, sec.
    4.2), on real and imaginary parts joined by Minkowski's inequality,
    its rounding E has ||E||_2 <= ||E||_F <= gamma_{k-1} sum_c ||b_c||_F
    <= e (`_wrap_rounding`), as ||b_c||_F^2 <= (1 + delta) dim.  With
    ||W||_2 <= sqrt(1 + delta), the computed wrap's defect is at most
    delta + 2 sqrt(1 + delta) e + e^2.  So each branch is held to
    UNITARY_TOL - 2 sqrt(1 + UNITARY_TOL) e - e^2 (2e-14 below UNITARY_TOL
    for k = 4, 1e-13 for k = 8, at dim 64), and one above it raises
    NormExceeded: a phased branch by its Gram, a scalar one s I by
    ||s|^2 - 1|.  When `pu.real`, U_{-Phi} = conj(U_Phi) exactly, so one
    sequence runs per term; for a real or imaginary w, w conj(U_Phi) is
    +-conj(w U_Phi) bit for bit, so only w U_Phi is checked.
    """
    k = len(terms)
    if k == 0 or k & (k - 1):
        raise ValueError(f"need a power-of-two number of terms, got {k}")
    e = _wrap_rounding(2 * k, pu.dim)
    tol = UNITARY_TOL - 2.0 * math.sqrt(1.0 + UNITARY_TOL) * e - e * e
    eye = np.eye(pu.dim, dtype=complex)
    branches = []
    ledger, longest = None, -1
    for weight, refl in terms:
        if abs(abs(weight) - 1.0) > 1e-12:
            raise ValueError(f"branch weight {weight} is not unimodular")
        if isinstance(refl, PhaseSequence):
            up, led = alternating_sequence(pu, refl)
            if pu.real:
                pair = (weight * up, weight * up.conj())
                checked = pair[:1] if (weight * weight).imag == 0 else pair
            else:
                um, _ = alternating_sequence(pu, refl.negated())
                pair = checked = (weight * up, weight * um)
            if not all(is_unitary(branch, tol) for branch in checked):
                raise NormExceeded(f"phased branch not unitary to {tol:.2e}")
            if len(refl.phis) > longest:
                ledger, longest = led, len(refl.phis)
        else:
            if refl is None:
                scalars = (weight, -weight)
            elif abs(refl) <= 1.0:
                z = complex(refl, math.sqrt(1.0 - refl * refl))
                scalars = (weight * z, weight * z.conjugate())
            else:
                raise ValueError(
                    f"constant term {refl} exceeds 1 in magnitude")
            if max(abs(abs(s) ** 2 - 1.0) for s in scalars) > tol:
                raise NormExceeded(f"scalar branch not unitary to {tol:.2e}")
            pair = [s * eye for s in scalars]
        branches += pair
    return _hadamard_wrap(branches), ledger


@dataclasses.dataclass
class SvtOutcome:
    """Everything a caller needs to verify one transformation run."""

    result: np.ndarray           # full-space transformed block
    u_phi: np.ndarray            # the realized circuit unitary (possibly doubled)
    encoding: ProjectedUnitary   # projectors selecting `result` inside u_phi
    ledger: dict
    phases: PhaseSequence
    measured_error: float = float("nan")


def svt_apply(pu: ProjectedUnitary, target, kind: str = "real_poly",
              delta: float = 1e-8) -> SvtOutcome:
    """Apply polynomial singular value transformation to an encoding.

    kind = "complex_poly": target is a SignalPair (or an admissible
        complex polynomial); the block Pi~ U_Phi Pi (odd) or Pi U_Phi Pi
        (even) realizes P^(SV), and an oracle error above ``delta`` raises
        NumericalFailure.
    kind = "real_poly": target is a real bounded polynomial with definite
        parity (an imaginary part is refused); the doubled +-Phi circuit
        with a |+> ancilla realizes P_Re^(SV).  `phases_for_target` gates
        the target (Inadmissible, or NotSubunit when |P| > 1 somewhere on
        [-1, 1]).

    Any other kind raises ValueError; the Hermitian eigenvalue
    transformation is `eigenvalue_transform`.
    """
    if kind == "complex_poly":
        if isinstance(target, SignalPair):
            pair = target
        else:
            pair = complete_complex(target)
        refl = to_reflection(phases_from_pq(pair))
        n = len(refl.phis)
        u_phi, ledger = alternating_sequence(pu, refl)
        enc = ProjectedUnitary(u_phi, pu.pi,
                               pu.pi_tilde if n % 2 == 1 else pu.pi)
        oracle = reference_svt(pu.block(), ChebSeries(pair.p_cheb),
                               "odd" if n % 2 else "even")
        err = operator_norm(enc.block() - oracle)
        if err > delta:
            raise NumericalFailure(f"svt result misses oracle by {err:.2e} "
                                   f"(requested {delta:.0e})")
        return SvtOutcome(enc.encoded(), u_phi, enc, ledger, refl, err)
    if kind != "real_poly":
        raise ValueError(f"unknown kind {kind!r}")

    c = _as_cheb_array(target)
    refl, phase_rep = phases_for_target(c, tol=delta / 2.0)
    n = len(refl.phis)
    # |0><0| (x) U_Phi + |1><1| (x) U_{-Phi}: the physical circuit when the
    # projector phases run through the shared ancilla of the C-Pi-NOT
    # construction; Hadamards on that ancilla put the average of the two
    # branches, the real part of the polynomial, at ancilla |0>
    wrapped, ledger = branch_lcu(pu, [(1, refl)])
    proj_in = pu.pi
    proj_out = pu.pi_tilde if n % 2 == 1 else pu.pi
    dim = pu.dim
    # (<+| x Pi') diag(U_Phi, U_-Phi) (|+> x Pi) = Pi' (U_Phi + U_-Phi) / 2 Pi
    result = sandwich(proj_out, wrapped[:dim, :dim], proj_in)
    enc = ProjectedUnitary._certified(wrapped, _lift_projector(proj_in, dim),
                                      _lift_projector(proj_out, dim))
    oracle = reference_svt(pu.block(), ChebSeries(c.real),
                           "odd" if n % 2 else "even")
    err = operator_norm(compress(proj_out, wrapped[:dim, :dim], proj_in)
                        - oracle)
    if err > delta + phase_rep["reconstruction_error"] + 1e-11:
        raise NumericalFailure(
            f"svt result misses oracle by {err:.2e} (requested {delta:.0e})")
    return SvtOutcome(result, wrapped, enc, ledger, refl, err)


def _lift_projector(p: Projector, dim: int) -> Projector:
    """|0><0| (x) P on the ancilla-doubled space."""
    if p.indices is not None:
        return Projector(2 * dim, indices=p.indices)
    m = np.zeros((2 * dim, 2 * dim), complex)
    m[:dim, :dim] = p.matrix()
    return Projector(2 * dim, matrix=m)


def eigenvalue_transform(be: BlockEncoding, target, delta: float = 1e-8,
                         complex_target: bool = False) -> SvtOutcome:
    """Polynomial eigenvalue transformation of arbitrary parity.

    Input: block-encoding of a Hermitian A (`check_hermitian`: a block
    that is not raises NotHermitian) and a real polynomial P bounded
    by 1/2 on [-1, 1], its max |P| taken by `_chebops.peak`; a larger P is
    refused (Inadmissible).  One `branch_lcu` call combines the +-Phi pairs of
    the even and odd parts of 2P, (1, even) and (1, odd), and wraps two
    ancilla qubits in Hadamards, returning a
    (1, a+2, 4 d sqrt(eps/alpha) + delta)-encoding of P(A / alpha).  A
    part that is a nonzero constant goes in as `branch_lcu`'s constant
    term, with no phases and no use of U.

    With ``complex_target`` an arbitrary complex polynomial bounded by
    1/4 is accepted: the same call adds the terms (i, even) and (i, odd)
    of 2 Im P, four parity terms on three ancilla qubits, and the result
    is a (2, a+3, 4 d sqrt(eps/alpha) + delta)-encoding whose d adds the
    longest real-part and the longest imaginary-part sequence.  The
    outcome's encoding selects the wrap's |0..0> block on `branch_lcu`'s
    certificate; its ledger holds the claimed eps.
    """
    a_mat = be.extract() / be.alpha
    check_hermitian(a_mat, "encoded operator")
    c = _as_cheb_array(target)
    if not complex_target:
        c = c.real
    parts = [c.real, c.imag] if complex_target else [c]
    bound = 0.5 / len(parts)
    if cheb.peak(c) > bound + 1e-12:
        raise Inadmissible(f"eigenvalue transform needs |P| <= {bound:g}")
    terms, u_uses = [], 0
    for weight, part in zip((1, 1j), parts):
        longest = 0
        # P(x) + P(-x) and P(x) - P(-x)
        for cc in (cheb.enforce_parity(2 * part, "even"),
                   cheb.enforce_parity(2 * part, "odd")):
            refl = None  # a vanishing parity component: the +-identity pair
            if np.abs(cc).max() >= 1e-14:
                cut = _degree_cut(cc, delta / 2.0)
                if len(cut) == 1 and cut[0]:
                    refl = float(cut[0])  # a constant: no phases, no U
                else:
                    refl, _ = phases_for_target(cc, tol=delta / 2.0)
                    longest = max(longest, len(refl.phis))
            terms.append((weight, refl))
        u_uses += longest
    wrapped, _ = branch_lcu(be.pu, terms)
    d_sys = be.system_dim
    # the |0..0> block is P(A) / len(parts)
    result = len(parts) * wrapped[:d_sys, :d_sys]
    oracle = _fn_of_hermitian(a_mat, lambda w: npcheb.chebval(w, c))
    err = operator_norm(result - oracle)
    claimed = 4 * u_uses * math.sqrt(be.eps / be.alpha) + delta
    proj = Projector(len(wrapped), indices=range(d_sys))
    enc = ProjectedUnitary._certified(wrapped, proj, proj)
    ledger = {"u_uses": u_uses, "claimed_eps": claimed}
    return SvtOutcome(result, wrapped, enc, ledger, None, err)


def _fn_of_hermitian(a: np.ndarray, fn) -> np.ndarray:
    """fn(A) for Hermitian A by one eigendecomposition; ``fn`` maps the
    array of eigenvalues to the array of their images."""
    w, v = np.linalg.eigh(a)
    return (v * fn(w)) @ v.conj().T


# ----------------------------------------------------------------------
# robustness bounds


def robustness_bound(a, a_tilde, kind: str, omega=None, degree: int = None) -> float:
    """Perturbation bounds for singular value transformation.

    modulus: 4 [ln(2/||A-A~|| + 1) + 1]^2 * omega(||A-A~||);
    poly_sqrt: 4 n sqrt(||A-A~||);
    poly_linear: n sqrt(2 / (1 - ||(A+A~)/2||^2)) ||A-A~||, requiring
        ||A-A~|| + ||(A+A~)/2||^2 <= 1.
    """
    a = np.atleast_2d(np.asarray(a, complex))
    a_tilde = np.atleast_2d(np.asarray(a_tilde, complex))
    dist = operator_norm(a - a_tilde)
    if kind == "modulus":
        if omega is None:
            raise ValueError("modulus bound needs the continuity modulus")
        if dist == 0:
            return 0.0
        return float(4 * (math.log(2.0 / dist + 1.0) + 1.0) ** 2 * omega(dist))
    if degree is None:
        raise ValueError("polynomial bounds need the degree")
    if kind == "poly_sqrt":
        return float(4 * degree * math.sqrt(dist))
    if kind == "poly_linear":
        mid = operator_norm((a + a_tilde) / 2.0)
        if dist + mid ** 2 > 1.0 + 1e-12:
            raise Inadmissible(
                "poly_linear bound needs ||A-A~|| + ||(A+A~)/2||^2 <= 1")
        return float(degree * math.sqrt(2.0 / (1.0 - mid ** 2)) * dist)
    raise ValueError(f"unknown kind {kind!r}")
