"""Block-encodings and projected unitary encodings as dense matrices.

All constructors return immutable value objects carrying both the claimed
(alpha, a, eps) ledger entry and enough structure to measure the actual
encoding error on demand, so ledger-versus-reality checks are first class.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import (DimensionMismatch, ModePreconditionViolated,
                     NormExceeded, NotAProjector, NotHermitian,
                     ShapeMismatch, SparsityViolated)

UNITARY_TOL = 1e-12
PROJECTOR_TOL = 1e-12


def operator_norm(m) -> float:
    m = np.atleast_2d(m)
    return float(np.linalg.norm(m, 2))


def _norm_at_most(m, tol) -> bool:
    """||m||_2 <= tol, the one test of every 2-norm that is only compared.

    Since ||m||_2 <= ||m||_F, a Frobenius norm within tol accepts at once;
    only otherwise is the exact 2-norm (an SVD) taken, so every decision
    is that of the 2-norm test, up to rounding when tol ties ||m||_2.  A
    NaN norm is refused.  A 2-norm that is reported is measured by
    `operator_norm`.
    """
    return float(np.linalg.norm(m)) <= tol or operator_norm(m) <= tol


def check_hermitian(m, what: str) -> None:
    """Raise NotHermitian unless ||m - m^dag||_2 <= 1e-9."""
    if not _norm_at_most(m - m.conj().T, 1e-9):
        raise NotHermitian(f"{what} is not Hermitian")


def is_unitary(u, tol=UNITARY_TOL) -> bool:
    """||U^dag U - I||_2 <= tol, decided by `_norm_at_most` on
    G = U^dag U - I, formed once.  A complex U with an all-zero imaginary
    part, such as `embed`'s, has its Gram formed in float64.
    """
    u = np.asarray(u)
    if np.iscomplexobj(u) and not u.imag.any():
        u = np.ascontiguousarray(u.real)
    return _norm_at_most(u.conj().T @ u - np.eye(u.shape[1]), tol)


def matrix_to_json(m) -> dict:
    m = np.atleast_2d(np.asarray(m, complex))
    return {"dim": [int(m.shape[0]), int(m.shape[1])],
            "data": [[float(z.real), float(z.imag)] for z in m.ravel()]}


def matrix_from_json(obj) -> np.ndarray:
    r, c = obj["dim"]
    flat = np.array([complex(re, im) for re, im in obj["data"]])
    return flat.reshape(r, c)


class Projector:
    """Orthogonal projector, stored as a coordinate index set when
    possible and densified on demand.  ``real`` holds when the projector
    is exactly real: always for an index set, and for a matrix when its
    stored basis has no imaginary part."""

    def __init__(self, dim: int, indices=None, matrix=None):
        self.dim = int(dim)
        if (indices is None) == (matrix is None):
            raise ValueError("give exactly one of indices / matrix")
        if indices is not None:
            idx = np.array(sorted(set(int(i) for i in np.atleast_1d(indices))),
                           dtype=int)
            if len(idx) and (idx[0] < 0 or idx[-1] >= dim):
                raise ValueError("index out of range")
            self.indices = idx
            self._dense = None
            self.real = True
        else:
            m = np.asarray(matrix, complex)
            if m.shape != (self.dim, self.dim):
                raise DimensionMismatch("projector shape mismatch")
            if not _norm_at_most(m - m.conj().T, PROJECTOR_TOL * 10):
                raise NotAProjector("not Hermitian")
            if not _norm_at_most(m @ m - m, 1e-8):
                raise NotAProjector("not idempotent")
            # canonicalize: snap eigenvalues to {0, 1}; a real matrix is
            # diagonalized in float64, so its basis is real on any LAPACK
            w, v = np.linalg.eigh(m if m.imag.any() else m.real)
            snapped = np.where(w > 0.5, 1.0, 0.0)
            if np.abs(w - snapped).max() > 1e-8:
                raise NotAProjector("eigenvalues not within 1e-8 of {0,1}")
            keep = v[:, snapped > 0.5].astype(complex)
            self.indices = None
            self._dense = keep @ keep.conj().T
            self._basis = keep
            self.real = not keep.imag.any()

    @property
    def rank(self) -> int:
        if self.indices is not None:
            return len(self.indices)
        return self._basis.shape[1]

    def matrix(self) -> np.ndarray:
        if self._dense is not None:
            return self._dense
        m = np.zeros((self.dim, self.dim), complex)
        m[self.indices, self.indices] = 1.0
        return m

    def basis(self) -> np.ndarray:
        """Orthonormal columns spanning the image."""
        if self.indices is not None:
            b = np.zeros((self.dim, len(self.indices)), complex)
            b[self.indices, np.arange(len(self.indices))] = 1.0
            return b
        return self._basis

    def complement(self) -> "Projector":
        if self.indices is not None:
            other = sorted(set(range(self.dim)) - set(self.indices.tolist()))
            return Projector(self.dim, indices=other)
        return Projector(self.dim, matrix=np.eye(self.dim) - self._dense)

    def tensor_left(self, dim_left: int) -> "Projector":
        """I_{dim_left} (x) Pi as a projector on the enlarged space."""
        if self.indices is not None:
            idx = [b * self.dim + i for b in range(dim_left)
                   for i in self.indices]
            return Projector(dim_left * self.dim, indices=idx)
        return Projector(dim_left * self.dim,
                         matrix=np.kron(np.eye(dim_left), self._dense))


def sandwich(left: Projector, m, right: Projector) -> np.ndarray:
    """left @ m @ right; two index projectors select rows and columns of m
    instead of multiplying."""
    if left.indices is None or right.indices is None:
        return left.matrix() @ m @ right.matrix()
    out = np.zeros_like(m)
    rows, cols = np.ix_(left.indices, right.indices)
    out[rows, cols] = m[rows, cols]
    return out


def compress(left: Projector, m, right: Projector) -> np.ndarray:
    """B~^dag m B for orthonormal bases B~ of img(left) and B of
    img(right); two index projectors select entries of m instead of
    multiplying."""
    if left.indices is None or right.indices is None:
        return left.basis().conj().T @ m @ right.basis()
    return m[np.ix_(left.indices, right.indices)]


class ProjectedUnitary:
    """U together with (Pi, Pi_tilde) selecting the block A = Pi~ U Pi.

    ``real`` holds when U has no imaginary part and both projectors are
    real; then every phased sequence satisfies U_{-Phi} = conj(U_Phi)
    exactly."""

    def __init__(self, u, pi: Projector, pi_tilde: Projector):
        u = np.asarray(u, complex)
        if u.shape[0] != u.shape[1]:
            raise DimensionMismatch("U must be square")
        if not is_unitary(u):
            raise NormExceeded("U is not unitary to 1e-12")
        self._hold(u, pi, pi_tilde)

    @classmethod
    def _certified(cls, u, pi: Projector,
                   pi_tilde: Projector) -> "ProjectedUnitary":
        """A ProjectedUnitary built without forming U^dag U: the caller
        has shown that the square U meets UNITARY_TOL."""
        self = cls.__new__(cls)
        self._hold(np.asarray(u, complex), pi, pi_tilde)
        return self

    def _hold(self, u, pi: Projector, pi_tilde: Projector) -> None:
        if pi.dim != u.shape[0] or pi_tilde.dim != u.shape[0]:
            raise DimensionMismatch("projector dimension mismatch")
        u.setflags(write=False)
        self.u = u
        self.pi = pi
        self.pi_tilde = pi_tilde
        self.dim = u.shape[0]
        self.real = not u.imag.any() and pi.real and pi_tilde.real

    def encoded(self) -> np.ndarray:
        """The full-space matrix A = Pi~ U Pi."""
        return sandwich(self.pi_tilde, self.u, self.pi)

    def block(self) -> np.ndarray:
        """A compressed to bases of img(Pi~) x img(Pi)."""
        return compress(self.pi_tilde, self.u, self.pi)

    def with_projectors(self, pi: Projector,
                        pi_tilde: Projector) -> "ProjectedUnitary":
        """This U with other projectors, on U's certificate: U's defect
        does not depend on the projectors, so no Gram is formed."""
        return self._certified(self.u, pi, pi_tilde)

    def dagger(self) -> "ProjectedUnitary":
        """U^dag with the projectors swapped, on U's certificate: for a
        square U, ||U^dag U - I||_2 = ||U U^dag - I||_2."""
        return self._certified(self.u.conj().T, self.pi_tilde, self.pi)


class BlockEncoding:
    """(alpha, a, eps)-block-encoding: Pi = Pi~ = |0><0|^a (x) I.

    ``u`` is a matrix, whose unitarity `is_unitary` checks, or a
    ProjectedUnitary, whose certificate is kept (`with_projectors`), so
    no Gram of its U is formed.  A target is held to the claimed eps
    (plus 1e-9) by `_norm_at_most`.
    """

    def __init__(self, u, alpha: float, ancillas: int, eps: float = 0.0,
                 target=None, system_dim=None):
        certified = u if isinstance(u, ProjectedUnitary) else None
        u = certified.u if certified else np.asarray(u, complex)
        dim = u.shape[0]
        if system_dim is None:
            system_dim = dim // (2 ** ancillas)
        if system_dim * 2 ** ancillas != dim:
            raise DimensionMismatch(
                f"dim {dim} != 2^{ancillas} * {system_dim}")
        self.system_dim = int(system_dim)
        self.alpha = float(alpha)
        self.ancillas = int(ancillas)
        self.eps = float(eps)
        proj = Projector(dim, indices=range(self.system_dim))
        self.pu = (certified.with_projectors(proj, proj) if certified
                   else ProjectedUnitary(u, proj, proj))
        self.target = None if target is None else np.asarray(target, complex)
        if self.target is not None:
            diff = self.target - self.extract()
            if not _norm_at_most(diff, self.eps + 1e-9):
                raise NormExceeded(f"claimed eps {self.eps:.2e} but "
                                   f"measured {operator_norm(diff):.2e}")

    @property
    def u(self):
        return self.pu.u

    @property
    def dim(self):
        return self.pu.dim

    def extract(self) -> np.ndarray:
        """alpha * (<0| (x) I) U (|0> (x) I): the scaled top-left block."""
        d = self.system_dim
        return self.alpha * self.pu.u[:d, :d]

    def measured_error(self) -> float:
        if self.target is None:
            raise ValueError("no target attached")
        return operator_norm(self.target - self.extract())

    def to_json(self) -> dict:
        out = matrix_to_json(self.pu.u)
        out.update({"alpha": self.alpha, "ancillas": self.ancillas,
                    "eps_claimed": self.eps})
        return out


class StatePrepPair:
    """(P_L, P_R) whose first columns encode a coefficient vector through
    beta * conj(c_j) d_j."""

    def __init__(self, p_left, p_right, beta: float, target_coeffs=None,
                 eps1: float = 0.0):
        p_left = np.asarray(p_left, complex)
        p_right = np.asarray(p_right, complex)
        if p_left.shape != p_right.shape or p_left.shape[0] != p_left.shape[1]:
            raise DimensionMismatch("state preparation unitaries must match")
        if not (is_unitary(p_left) and is_unitary(p_right)):
            raise NormExceeded("state preparation matrices must be unitary")
        self.p_left = p_left
        self.p_right = p_right
        self.beta = float(beta)
        self.eps1 = float(eps1)
        if target_coeffs is not None:
            y = np.asarray(target_coeffs, complex)
            c = p_left[:, 0]
            d = p_right[:, 0]
            vals = self.beta * np.conj(c) * d
            diff = float(np.abs(vals[: len(y)] - y).sum()
                         + np.abs(vals[len(y):]).sum())
            if diff > self.eps1 + 1e-9:
                raise NormExceeded(
                    f"coefficient error {diff:.2e} above claimed {self.eps1:.2e}")

    @staticmethod
    def for_coefficients(y, beta=None) -> "StatePrepPair":
        """Exact pair for a coefficient list: P_L, P_R built by completing
        sqrt(|y|/beta)-weighted columns to unitaries."""
        y = np.asarray(y, complex)
        if beta is None:
            beta = float(np.abs(y).sum())
        if beta <= 0:
            raise ValueError("need positive one-norm")
        b = max(1, math.ceil(math.log2(max(len(y), 2))))
        n = 2 ** b
        c = np.zeros(n, complex)
        d = np.zeros(n, complex)
        mags = np.sqrt(np.abs(y) / beta)
        phases = np.exp(1j * np.angle(y))
        c[: len(y)] = mags
        d[: len(y)] = mags * phases
        slack = 1.0 - np.abs(y).sum() / beta
        if slack > 1e-15 and len(y) < n:
            c[len(y)] = math.sqrt(slack)
            d[len(y)] = -math.sqrt(slack)  # conj(c) d contributes -slack -> 0 target
        elif slack > 1e-12:
            raise ShapeMismatch("no room to absorb slack weight")
        pl = _complete_to_unitary(c)
        pr = _complete_to_unitary(d)
        return StatePrepPair(pl, pr, beta,
                             target_coeffs=y, eps1=1e-12)


def _complete_to_unitary(first_column) -> np.ndarray:
    """A unitary whose first column is the unit vector v: the Householder
    reflection exchanging -w e_0 and v, w = v_0/|v_0| (1 if v_0 = 0), with
    its first column multiplied by -w.  The reflection vector v + w e_0
    has norm at least 1, so the result is unitary to rounding."""
    v = np.asarray(first_column, complex)
    if abs(np.linalg.norm(v) - 1) > 1e-9:
        raise NormExceeded("first column must be a unit vector")
    w = v[0] / abs(v[0]) if v[0] != 0 else 1.0
    h = v.copy()
    h[0] += w
    q = (np.eye(len(v), dtype=complex)
         - np.outer(h, h.conj()) * (2.0 / np.vdot(h, h).real))
    q[:, 0] *= -w
    return q


class ControlledNotByProjector:
    """X (x) Pi + I (x) (I - Pi): flips a leading flag qubit on img(Pi)."""

    def __init__(self, pi: Projector):
        p = pi.matrix()
        x = np.array([[0, 1], [1, 0]], complex)
        comp = np.eye(pi.dim) - p
        self.pi = pi
        self.matrix = np.kron(x, p) + np.kron(np.eye(2), comp)

    def verify(self) -> dict:
        m = self.matrix
        uni = operator_norm(m.conj().T @ m - np.eye(m.shape[0]))
        herm = operator_norm(m - m.conj().T)
        invol = operator_norm(m @ m - np.eye(m.shape[0]))
        return {"unitary": uni, "hermitian": herm, "involution": invol}


# ----------------------------------------------------------------------
# constructors


def _polish(m: np.ndarray) -> np.ndarray:
    """One Newton-Schulz step (Higham, Functions of Matrices, sec. 8.3): for
    m^dag m = I + E, ||E||_2 <= UNITARY_TOL, leaves (3/4)||E||^2 + rounding."""
    return m @ (3.0 * np.eye(m.shape[1]) - m.conj().T @ m) / 2.0


def embed(a_matrix, alpha: float = 1.0) -> BlockEncoding:
    """Exact (alpha, 1, 0)-encoding by unitary dilation.

    Rectangular input first goes into the top-left corner of a square
    matrix; the dilation doubles the dimension once.  A matrix without
    an imaginary part is dilated in float64, so U is exactly real.  The
    dilation meets UNITARY_TOL, so one `_polish` step makes it unitary at
    rounding level (||U^dag U - I||_F about 1e-14 at n = 128), which
    keeps long phased circuits built on it unitary to 1e-12.
    """
    a = np.atleast_2d(np.asarray(a_matrix, complex))
    if not a.imag.any():
        a = a.real
    d = max(a.shape)
    square = np.zeros((d, d), a.dtype)
    square[: a.shape[0], : a.shape[1]] = a
    u, sv, vh = np.linalg.svd(square)
    if sv[0] > alpha * (1 + 1e-12):
        raise NormExceeded(f"||A|| = {sv[0]:.6g} exceeds alpha = {alpha:.6g}")
    s = square / alpha
    root = np.sqrt(1.0 - np.clip(sv / alpha, 0.0, 1.0) ** 2)
    top_right = (u * root) @ u.conj().T
    bottom_left = (vh.conj().T * root) @ vh
    dil = _polish(np.block([[s, top_right], [bottom_left, -s.conj().T]]))
    return BlockEncoding(dil, alpha=alpha, ancillas=1, eps=0.0,
                         target=square, system_dim=d)


def _swap_matrix(d: int) -> np.ndarray:
    s = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            s[i * d + j, j * d + i] = 1.0
    return s


def encode_density(g, anc_qubits: int, sys_qubits: int) -> BlockEncoding:
    """(1, a+s, 0)-encoding of rho = Tr_a |rho><rho| from the purification
    unitary G via (G^dag (x) I_s)(I_a (x) SWAP_s)(G (x) I_s)."""
    g = np.asarray(g, complex)
    da, ds = 2 ** anc_qubits, 2 ** sys_qubits
    if g.shape != (da * ds, da * ds):
        raise DimensionMismatch("G must act on a + s qubits")
    if not is_unitary(g):
        raise NormExceeded("G must be unitary")
    swap = _swap_matrix(ds)
    mid = np.kron(np.eye(da), swap)
    u = np.kron(g.conj().T, np.eye(ds)) @ mid @ np.kron(g, np.eye(ds))
    # attached target: the reduced density operator
    psi = g[:, 0]
    rho = psi.reshape(da, ds)
    rho = np.einsum("ai,aj->ij", rho, rho.conj())
    return BlockEncoding(u, alpha=1.0, ancillas=anc_qubits + sys_qubits,
                         eps=1e-12, target=rho, system_dim=ds)


def encode_povm(u_impl, anc_qubits: int, sys_qubits: int,
                target_m=None, eps: float = 0.0) -> BlockEncoding:
    """(1, 1+a, eps)-encoding of the POVM element measured by flagging the
    first qubit of U: (I_1 (x) U^dag)(CNOT (x) I)(I_1 (x) U)."""
    u_impl = np.asarray(u_impl, complex)
    da, ds = 2 ** anc_qubits, 2 ** sys_qubits
    if u_impl.shape != (da * ds, da * ds):
        raise DimensionMismatch("U must act on a + s qubits")
    if not is_unitary(u_impl):
        raise NormExceeded("U must be unitary")
    full = da * ds
    # CNOT: control = first qubit of U's register, target = new flag qubit
    cnot = np.zeros((2 * full, 2 * full))
    half = full // 2
    for flag in (0, 1):
        for r in range(full):
            ctrl = 1 if r >= half else 0  # first qubit of U register
            nf = flag ^ ctrl
            cnot[nf * full + r, flag * full + r] = 1.0
    iu = np.kron(np.eye(2), u_impl)
    u = iu.conj().T @ cnot @ iu
    measured = None
    if target_m is not None:
        measured = np.asarray(target_m, complex)
    return BlockEncoding(u, alpha=1.0, ancillas=1 + anc_qubits, eps=eps,
                         target=measured, system_dim=ds)


def encode_gram(u_left, u_right, anc_qubits: int,
                sys_qubits: int) -> BlockEncoding:
    """(1, a, 0)-encoding of the Gram matrix A_ij = <psi_i | phi_j> of the
    states prepared by U_L, U_R."""
    u_left = np.asarray(u_left, complex)
    u_right = np.asarray(u_right, complex)
    da, ds = 2 ** anc_qubits, 2 ** sys_qubits
    if u_left.shape != (da * ds, da * ds) or u_right.shape != u_left.shape:
        raise DimensionMismatch("U_L, U_R must act on a + s qubits")
    u = u_left.conj().T @ u_right
    gram = u[:ds, :ds].copy()
    return BlockEncoding(u, alpha=1.0, ancillas=anc_qubits, eps=1e-12,
                         target=gram, system_dim=ds)


def _completion_permutation(partial: dict, size: int) -> np.ndarray:
    """Permutation matrix extending a partial injective map."""
    used_out = set(partial.values())
    free_out = [o for o in range(size) if o not in used_out]
    perm = np.zeros((size, size))
    it = iter(free_out)
    for i in range(size):
        o = partial.get(i)
        if o is None:
            o = next(it)
        perm[o, i] = 1.0
    return perm


def encode_sparse(a_matrix, s_r: int, s_c: int) -> BlockEncoding:
    """(sqrt(s_r s_c), w+3, ~0)-encoding of an s_r/s_c-sparse matrix with
    entries bounded by 1, from explicitly constructed state-preparation
    unitaries V_L = O_r (I (x) D_{s_r}) SWAP and V_R = O_c (D_{s_c} (x) I).
    """
    a = np.atleast_2d(np.asarray(a_matrix, complex))
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch("sparse encoding wants a square matrix")
    w = max(1, math.ceil(math.log2(n)))
    if 2 ** w != n:
        raise DimensionMismatch("dimension must be a power of two")
    if np.abs(a).max() > 1 + 1e-12:
        raise SparsityViolated("entries must have |a_ij| <= 1")
    rows_nnz = [np.nonzero(np.abs(a[i]) > 0)[0] for i in range(n)]
    cols_nnz = [np.nonzero(np.abs(a[:, j]) > 0)[0] for j in range(n)]
    if max((len(r) for r in rows_nnz), default=0) > s_r:
        raise SparsityViolated("row sparsity exceeded")
    if max((len(c) for c in cols_nnz), default=0) > s_c:
        raise SparsityViolated("column sparsity exceeded")

    big = 2 ** (w + 1)
    # D_s on a (w+1)-qubit register: |0> -> sum_{k=1..s} |k>/sqrt(s)
    def diffusion(s):
        col = np.zeros(big)
        col[1: s + 1] = 1.0 / math.sqrt(s)
        return _complete_to_unitary(col)

    # O_r: |i>|k> -> |i>|r_ik>  (k = 1..s_r), padded with k + 2^w
    o_r = np.zeros((big * big, big * big))
    for i in range(big):
        partial = {}
        if i < n:
            for k in range(1, s_r + 1):
                if k - 1 < len(rows_nnz[i]):
                    partial[k] = int(rows_nnz[i][k - 1])
                else:
                    partial[k] = k + n if k + n < big else k
        perm = _completion_permutation(partial, big)
        o_r[i * big:(i + 1) * big, i * big:(i + 1) * big] = perm
    # O_c: |l>|j> -> |c_lj>|j>
    o_c = np.zeros((big * big, big * big))
    for j in range(big):
        partial = {}
        if j < n:
            for ell in range(1, s_c + 1):
                if ell - 1 < len(cols_nnz[j]):
                    partial[ell] = int(cols_nnz[j][ell - 1])
                else:
                    partial[ell] = ell + n if ell + n < big else ell
        # acts on the FIRST register with the second fixed to j
        perm = _completion_permutation(partial, big)
        for src in range(big):
            dst = np.nonzero(perm[:, src])[0][0]
            o_c[dst * big + j, src * big + j] = 1.0
    swap = _swap_matrix(big)
    v_l = o_r @ np.kron(np.eye(big), diffusion(s_r)) @ swap
    v_r = o_c @ np.kron(diffusion(s_c), np.eye(big))
    # flag-qubit rotation encoding the entries
    rot = np.zeros((2 * big * big, 2 * big * big), complex)
    for i in range(big):
        for j in range(big):
            aij = a[i, j] if (i < n and j < n) else 0.0
            comp = math.sqrt(max(0.0, 1.0 - abs(aij) ** 2))
            idx = i * big + j
            rot[idx, idx] = aij
            rot[big * big + idx, idx] = comp
            rot[idx, big * big + idx] = comp
            rot[big * big + idx, big * big + idx] = -np.conj(aij)
    u_l = np.kron(np.eye(2), v_l)
    u_r = rot @ np.kron(np.eye(2), v_r)
    u = u_l.conj().T @ u_r
    # ancilla layout: flag + (w+1) + leading qubit of the second register
    # = w + 3 ancilla qubits above the w-qubit system; reorder so the
    # system qubits are the trailing factor
    full = 2 * big * big
    perm = np.zeros((full, full))
    for flag in range(2):
        for r1 in range(big):
            for r2 in range(big):
                src = (flag * big + r1) * big + r2
                lead, sysi = divmod(r2, n) if big // n == 2 else (r2 // n, r2 % n)
                dst = ((flag * big + r1) * (big // n) + lead) * n + sysi
                perm[dst, src] = 1.0
    u_re = perm @ u @ perm.T
    alpha = math.sqrt(s_r * s_c)
    return BlockEncoding(u_re, alpha=alpha, ancillas=w + 3, eps=1e-10,
                         target=a, system_dim=n)


# ----------------------------------------------------------------------
# combination


def lcu(pair: StatePrepPair, encodings) -> BlockEncoding:
    """(alpha beta, a+b, alpha eps1 + alpha beta eps2)-encoding of
    sum_j y_j A_j via the select-oracle sandwich."""
    encodings = list(encodings)
    if not encodings:
        raise ShapeMismatch("need at least one encoding")
    alpha = encodings[0].alpha
    a = encodings[0].ancillas
    sys_dim = encodings[0].system_dim
    for e in encodings:
        if e.alpha != alpha or e.ancillas != a or e.system_dim != sys_dim:
            raise ShapeMismatch("encodings must share (alpha, a) and shape")
    nb = pair.p_left.shape[0]
    if nb < len(encodings):
        raise ShapeMismatch("state preparation pair too small")
    inner = encodings[0].dim
    w = np.zeros((nb * inner, nb * inner), complex)
    for j in range(nb):
        blockj = encodings[j].pu.u if j < len(encodings) else np.eye(inner)
        w[j * inner:(j + 1) * inner, j * inner:(j + 1) * inner] = blockj
    big = np.kron(pair.p_left.conj().T, np.eye(inner)) @ w \
        @ np.kron(pair.p_right, np.eye(inner))
    b_qubits = int(round(math.log2(nb)))
    eps2 = max(e.eps for e in encodings)
    eps_tot = alpha * pair.eps1 + alpha * pair.beta * eps2
    # target, if every input carries one
    target = None
    if all(e.target is not None for e in encodings):
        c = pair.p_left[:, 0]
        d = pair.p_right[:, 0]
        ys = (pair.beta * np.conj(c) * d)[: len(encodings)]
        target = sum(y * e.target for y, e in zip(ys, encodings))
    return BlockEncoding(big, alpha=alpha * pair.beta,
                         ancillas=a + b_qubits, eps=eps_tot + 1e-9,
                         target=target, system_dim=sys_dim)


def _embed_on(u, total_anc_qubits, own_anc_qubits, own_first: bool,
              sys_dim: int):
    """Lift an encoding unitary to a larger ancilla space.

    own_first: whether the operator's own ancillas are the leading block
    of the combined ancilla register.
    """
    other = total_anc_qubits - own_anc_qubits
    if other == 0:
        return u
    d_other = 2 ** other
    if own_first:
        # [own][other][sys]: kron(u', I) after splitting u = [own][sys]
        da = 2 ** own_anc_qubits
        u4 = u.reshape(da, sys_dim, da, sys_dim)
        out = np.einsum("asbt,cd->acsbdt", u4, np.eye(d_other)).reshape(
            da * d_other * sys_dim, da * d_other * sys_dim)
        return out
    # [other][own][sys]
    return np.kron(np.eye(d_other), u)


def product(be1: BlockEncoding, be2: BlockEncoding, mode: str = "disjoint_ancilla",
            chain=None) -> BlockEncoding:
    """Product of encodings.

    disjoint_ancilla: (alpha beta, a+b, alpha eps + beta delta) of A B.
    shared_ancilla: requires alpha = beta = 1 and unitary targets;
        (1, a, delta + eps + 2 sqrt(delta eps)).
    chain: list of K unit-alpha encodings of unitaries,
        (1, a, 4 K^2 eps).
    """
    if mode == "chain":
        encs = list(chain)
        a = encs[0].ancillas
        for e in encs:
            if e.alpha != 1.0 or e.ancillas != a:
                raise ModePreconditionViolated("chain needs alpha=1, equal a")
        u = np.eye(encs[0].dim, dtype=complex)
        for e in encs:
            u = u @ e.pu.u
        eps = max(e.eps for e in encs)
        k = len(encs)
        target = None
        if all(e.target is not None for e in encs):
            target = np.eye(encs[0].system_dim, dtype=complex)
            for e in encs:
                target = target @ e.target
        return BlockEncoding(u, alpha=1.0, ancillas=a,
                             eps=4.0 * k * k * eps + 1e-12, target=target,
                             system_dim=encs[0].system_dim)
    if be1.system_dim != be2.system_dim:
        raise DimensionMismatch("system dimensions differ")
    if mode == "shared_ancilla":
        if be1.alpha != 1.0 or be2.alpha != 1.0 or be1.ancillas != be2.ancillas:
            raise ModePreconditionViolated(
                "shared ancillas need alpha = beta = 1 and equal a")
        u = be1.pu.u @ be2.pu.u
        eps = be1.eps + be2.eps + 2 * math.sqrt(be1.eps * be2.eps)
        target = None
        if be1.target is not None and be2.target is not None:
            target = be1.target @ be2.target
        return BlockEncoding(u, alpha=1.0, ancillas=be1.ancillas,
                             eps=eps + 1e-12, target=target,
                             system_dim=be1.system_dim)
    if mode != "disjoint_ancilla":
        raise ValueError(f"unknown mode {mode!r}")
    a, b = be1.ancillas, be2.ancillas
    total = a + b
    sys_dim = be1.system_dim
    u1 = _embed_on(be1.pu.u, total, a, own_first=True, sys_dim=sys_dim)
    u2 = _embed_on(be2.pu.u, total, b, own_first=False, sys_dim=sys_dim)
    u = u1 @ u2
    eps = be1.alpha * be2.eps + be2.alpha * be1.eps
    target = None
    if be1.target is not None and be2.target is not None:
        target = be1.target @ be2.target
    return BlockEncoding(u, alpha=be1.alpha * be2.alpha, ancillas=total,
                         eps=eps + 1e-9, target=target, system_dim=sys_dim)
