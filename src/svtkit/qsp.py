"""Quantum signal processing over 2x2 matrices.

Two routes turn a target into phases, both in double precision:

- real targets of definite parity (`phases_for_target`, `complete`) go
  through one pipeline, `_real_phases`: the gate, a degree cut, the
  symmetric-phase solver (Newton iteration on symmetric sandwich phases
  so that Re<0|U_Phi(x)|0> matches the target at Chebyshev nodes) and a
  certificate of the realized circuit.  It yields phases and that
  certificate, and no (P, Q) pair: `phases_for_target` returns them, and
  `complete` reads the unitary-valued pair (P, Q),
  |P|^2 + (1-x^2)|Q|^2 = 1, off the top row of the certified circuit;
- complex targets go through `complete_complex`, which finds Q by root
  pairing, and `phases_from_pq`, which peels the phases off one layer
  at a time in the Chebyshev basis, keeping the recursion conditioned
  near |x| = 1.

The sandwich-convention sequence is converted to the reflection
convention that the higher-dimensional transformation code consumes.
"""
from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from . import _chebops as cheb
from .approx import _memo
from .errors import (ConventionMismatch, Inadmissible, NotSubunit,
                     NumericalFailure)
from .poly import _as_cheb_array


def _normalize_angle(phi):
    out = math.remainder(phi, 2 * math.pi)
    if out <= -math.pi:
        out += 2 * math.pi
    return out


@dataclasses.dataclass(frozen=True)
class PhaseSequence:
    """Ordered phase angles plus the convention they belong to.

    ``wx_sandwich`` holds k+1 angles for a degree-k product of W(x)
    rotations; ``reflection`` holds d angles for a product of R(x)
    reflections.
    """

    phis: np.ndarray
    convention: str  # wx_sandwich | reflection

    def __post_init__(self):
        if self.convention not in ("wx_sandwich", "reflection"):
            raise ValueError(f"unknown convention {self.convention!r}")
        arr = np.array([_normalize_angle(p) for p in np.atleast_1d(self.phis)],
                       float)
        arr.setflags(write=False)
        object.__setattr__(self, "phis", arr)

    @property
    def degree(self) -> int:
        return len(self.phis) - 1 if self.convention == "wx_sandwich" else len(self.phis)

    def __len__(self):
        return len(self.phis)

    def negated(self) -> "PhaseSequence":
        return PhaseSequence(-self.phis, self.convention)

    def to_json(self) -> dict:
        return {"convention": self.convention,
                "phis": [float(p) for p in self.phis]}

    @staticmethod
    def from_json(obj) -> "PhaseSequence":
        return PhaseSequence(np.array(obj["phis"], float), obj["convention"])


class SignalPair:
    """A (P, Q) pair satisfying Theorem-3-style conditions (i)-(iii).

    Stored in the Chebyshev basis.
    """

    def __init__(self, p_cheb, q_cheb, validate=True, tol=1e-10):
        self.p_cheb = cheb.trim(np.asarray(p_cheb, complex), 1e-13)
        self.q_cheb = cheb.trim(np.asarray(q_cheb, complex), 1e-13)
        self.k = cheb.degree(self.p_cheb, 1e-11)
        if np.abs(self.q_cheb).max() > 1e-12:
            self.k = max(self.k, cheb.degree(self.q_cheb, 1e-11) + 1)
        if validate:
            self.validate(tol)

    def p_value(self, x):
        return npcheb.chebval(x, self.p_cheb)

    def q_value(self, x):
        return npcheb.chebval(x, self.q_cheb)

    def unitarity_defect(self) -> float:
        """max | |P|^2 + (1-x^2)|Q|^2 - 1 | over [-1, 1], bounded by the
        1-norm of that polynomial's Chebyshev coefficients (|T_k| <= 1),
        formed as P P* + (1-x^2) Q Q* - 1 with P* the conjugated series.
        Left out is the rounding of the products, up to about
        n u (||P||_1^2 + 2 ||Q||_1^2) for n coefficients and u = 2^-53, as
        a grid leaves out its own; near rounding level the two differ
        either way.
        """
        p, q = self.p_cheb, self.q_cheb
        defect = cheb.add(cheb.mul(p, np.conj(p)),
                          cheb.mul_one_minus_x2(cheb.mul(q, np.conj(q))))
        defect[0] -= 1.0
        return float(np.abs(defect).sum())

    def validate(self, tol=1e-10):
        k = self.k
        p_par = cheb.parity_of(self.p_cheb, 1e-11)
        q_par = cheb.parity_of(self.q_cheb, 1e-11)
        want_p = "even" if k % 2 == 0 else "odd"
        want_q = "even" if (k - 1) % 2 == 0 else "odd"
        if p_par not in (want_p,) and np.abs(self.p_cheb).max() > 1e-11:
            raise NumericalFailure(f"P parity {p_par} != {want_p}")
        if q_par not in (want_q,) and np.abs(self.q_cheb).max() > 1e-11:
            raise NumericalFailure(f"Q parity {q_par} != {want_q}")
        defect = self.unitarity_defect()
        if defect > tol:
            raise NumericalFailure(
                f"|P|^2 + (1-x^2)|Q|^2 deviates from 1 by {defect:.2e}")
        return self


# ----------------------------------------------------------------------
# elementary 2x2 blocks


def qsp_eval(phi: PhaseSequence, x):
    """Evaluate the phased product at x (scalar or 1-d array).

    wx_sandwich: e^{i phi_0 Z} prod_j W(x) e^{i phi_j Z};
    reflection:  prod_j e^{i phi_j Z} R(x).
    Returns a (2, 2) matrix for scalar x, else (n, 2, 2).
    """
    xs = np.atleast_1d(np.asarray(x, float))
    out = np.zeros((len(xs), 2, 2), complex)
    if phi.convention == "wx_sandwich":
        ws = 1j * np.sqrt(np.clip(1.0 - xs ** 2, 0.0, None))
        e0 = np.exp(1j * phi.phis[0])
        for row, (a, b) in enumerate([(e0, 0j), (0j, np.conj(e0))]):
            a, b = np.full(len(xs), a), np.full(len(xs), b)
            # each row by W(x) then diag(e^{i ang}, e^{-i ang})
            for ang in phi.phis[1:]:
                ep = cmath.exp(1j * ang)
                a, b = (a * xs + b * ws) * ep, (a * ws + b * xs) / ep
            out[:, row, 0], out[:, row, 1] = a, b
    else:
        for row in (0, 1):
            out[:, row, 0], out[:, row, 1] = _reflection_row(phi.phis, xs, row)
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return out[0]
    return out


def _reflection_row(phis, xs, row=0):
    """Row ``row`` of prod_j e^{i phi_j Z} R(x) at the points xs, carried
    alone through M <- M e^{i phi Z} R(x): the rows never mix, so these
    are `qsp_eval`'s reflection values, operation for operation."""
    a = np.full(len(xs), 1.0 - row, complex)
    b = np.full(len(xs), float(row), complex)
    s = np.sqrt(np.clip(1.0 - xs ** 2, 0.0, None))
    for ang in phis:
        ep = cmath.exp(1j * ang)
        a = a * ep; b = b / ep
        a, b = a * xs + b * s, a * s - b * xs
    return a, b


def chebyshev_phases(d: int) -> PhaseSequence:
    """Closed-form reflection phases realizing T_d(x) in the top-left:
    phi_1 = (1-d) pi/2 and pi/2 elsewhere."""
    if d < 1:
        raise ValueError("need d >= 1")
    phis = np.full(d, math.pi / 2)
    phis[0] = (1 - d) * math.pi / 2
    return PhaseSequence(phis, "reflection")


def to_reflection(phi: PhaseSequence) -> PhaseSequence:
    """Convert a sandwich sequence of arity d to the d reflection angles:
    phi_1 = phi'_0 + phi'_d + (d-1) pi/2, phi_j = phi'_{j-1} - pi/2."""
    if phi.convention != "wx_sandwich":
        raise ConventionMismatch("input must be wx_sandwich")
    d = len(phi.phis) - 1
    if d < 1:
        raise ValueError("degree-0 sequences have no reflection form")
    old = phi.phis
    out = old[:d] - math.pi / 2
    out[0] = old[0] + old[d] + (d - 1) * math.pi / 2
    return PhaseSequence(out, "reflection")


# ----------------------------------------------------------------------
# admissibility


def check_admissible(p) -> dict:
    """Report of the achievability conditions of a complex P.

    Checks parity, |P| <= 1 inside, |P| >= 1 outside and the
    imaginary-axis condition for even degree.  The inside margin is
    1 - max |P| over [-1, 1], taken by `_chebops.peak`, so a peak between
    grid points is not missed; the outside and imaginary-axis conditions
    are sampled on 1000 grid points per ray.  Each holds with a margin of
    at least -1e-9.  Violations appear as negative margins, not
    exceptions.  The gate of a real phase target is `_completion_gap`.
    """
    n_ray, tol = 1000, 1e-9
    c = _as_cheb_array(p)
    k = cheb.degree(c, 1e-11)
    par = cheb.parity_of(c, 1e-11)
    want = "even" if k % 2 == 0 else "odd"
    report = {"degree": k, "parity": par,
              "parity_ok": par == want or float(np.abs(c).max()) < 1e-13}
    inside = 1.0 - cheb.peak(c)
    report["inside_margin"] = inside
    report["inside_ok"] = inside >= -tol
    # evaluated in the Chebyshev basis: the monomial form loses ~1e-8 near
    # |x| = 1 by degree 25, which turns admissible targets away
    ts = np.linspace(1.0, 3.0, n_ray)
    out_vals = npcheb.chebval(np.concatenate([ts, -ts]), c)
    outside = float(np.abs(out_vals).min()) - 1.0
    report["outside_margin"] = outside
    report["outside_ok"] = outside >= -tol
    if k % 2 == 0:
        ys = np.linspace(0.0, 3.0, n_ray)
        pi_vals = npcheb.chebval(1j * ys, c)
        pistar = npcheb.chebval(1j * ys, np.conj(c))
        prod = (pi_vals * pistar).real
        report["imag_axis_margin"] = float(prod.min()) - 1.0
        report["imag_axis_ok"] = report["imag_axis_margin"] >= -tol
    else:
        report["imag_axis_margin"] = 0.0
        report["imag_axis_ok"] = True
    report["admissible"] = all(report[key] for key in
                               ("parity_ok", "inside_ok", "outside_ok",
                                "imag_axis_ok"))
    return report


# ----------------------------------------------------------------------
# completion


def _completion_gap(c) -> float:
    """The one gate of a real phase target: refuse Chebyshev coefficients
    c with an imaginary part above `_chebops.drop_threshold`
    (Inadmissible), a real part p without definite parity (Inadmissible),
    and a p whose peak M = max |p| over [-1, 1] (`_chebops.peak`) has
    M^2 - 1 > 1e-12 (NotSubunit); return M."""
    imag = float(np.abs(np.imag(c)).max())
    if imag > cheb.drop_threshold(c):
        raise Inadmissible(f"target has an imaginary part of {imag:.2e}; "
                           "a real phase target must be real")
    p = np.real(c)
    if np.abs(p).max() > 1e-13 and cheb.parity_of(p) == "none":
        raise Inadmissible("target p must have definite parity")
    top = cheb.peak(p)
    if top * top - 1.0 > 1e-12:
        raise NotSubunit(f"p^2 exceeds 1 by {top * top - 1.0:.2e}")
    return top


def complete(p_re, tol: float = 1e-10) -> SignalPair:
    """Complete a real target p to a unitary-valued SignalPair with Re P = p.

    `phases_for_target`'s pipeline `_real_phases`, with its errors, run to
    the Newton goal NEWTON_GOAL whatever ``tol``.  The pair is read off the
    top row (a, b) of the certified circuit at the d + 1 Chebyshev nodes:
    P interpolates a and Q interpolates b / (i sqrt(1 - x^2)), which is
    the sandwich circuit's Q up to the gauge e^{i beta Z} U e^{-i beta Z}
    that keeps P.  It is validated once, at min(tol, 1e-10).  The zero
    target completes to the one-layer pair P = ix, Q = 1.
    """
    refl, _ = _real_phases(_as_cheb_array(p_re), tol, NEWTON_GOAL)
    d = refl.degree
    xs = cheb.cheb_nodes(d + 1)
    a, b = _reflection_row(refl.phis, xs)
    p = cheb.fit(a, d)
    q = cheb.fit(b / (1j * np.sqrt(1.0 - xs ** 2)), d)
    p[1 - d % 2::2] = q[d % 2::2] = 0.0  # by parity, rounding alone
    return SignalPair(p, q, tol=min(tol, 1e-10))


def complete_complex(p, tol: float = 1e-9) -> SignalPair:
    """Find Q for an admissible complex P with 1 - P P* = (1-x^2) Q Q*.

    Follows the root pairing of the achievability theorem.  A = 1 - P P*
    is even, so it is a Chebyshev series in z = T_2(x) = 2x^2 - 1 (its even
    coefficients); each z-root stands for a mirror pair +-s with
    s^2 = (z + 1)/2, and a factor (x^2 - s^2) = (T_2 - z)/2 of Q.  The
    z-roots are the eigenvalues of the colleague matrix (`chebroots`), which
    already come to working accuracy.  Their structure:

    - z = 1 (x = +-1) is the simple zero of the prefactor (1 - x^2);
    - z = -1 (x = 0) is a simple zero when Q is odd, giving Q its factor x;
    - every other real z-root is a double root.  Real z in (-1, 1) and
      z > 1 are real x (A >= 0 inside [-1, 1], A <= 0 outside) and z < -1
      is imaginary x (Q Q*(iy) = +-|Q(iy)|^2 by parity).  The eigenvalues
      leave the two copies scattered by about sqrt(eps), so the sorted
      copies are paired, each pair is replaced by its mean refined with
      Newton steps on dA/dz (where the root is simple), and Q and Q* each
      take the one real factor (T_2 - z)/2;
    - the remaining z-roots are genuinely complex: a conjugate pair z, z*
      is the quadruple +-s, +-s* in x.  Q takes the member with Im z > 0
      and Q* the other.

    Q is sampled as the product of its factors at Chebyshev nodes,
    interpolated, and scaled so that (1 - x^2) Q Q* matches A in least
    squares; there is no polish.  The pair is `SignalPair`'s, validated at
    ``max(tol, 1e-8)``: a unitarity defect above that raises
    NumericalFailure.  The completion runs in double precision.
    """
    c = _as_cheb_array(p)
    c = cheb.trim(c, 1e-13)
    k = cheb.degree(c, 1e-11)
    rep = check_admissible(c)
    if not rep["admissible"]:
        raise Inadmissible(f"complex target fails achievability: {rep}")
    # A = 1 - P P*
    pstar = np.conj(c)
    A = cheb.add(np.array([1.0 + 0j]), -cheb.mul(c, pstar))
    A = cheb.trim(A.real.astype(float), 0.0)
    if cheb.degree(A, 1e-13) == 0:
        return SignalPair(c, np.zeros(1, complex), tol=max(tol, 1e-9))
    # A(x) = sum_j A_2j T_j(z), z = T_2(x); A has degree 2k, so exactly k
    # z-roots (a tail of P below the degree cut would add spurious huge ones)
    Az = A[::2][: k + 1]
    dAz = npcheb.chebder(Az)
    d2Az = npcheb.chebder(dAz)
    zs = npcheb.chebroots(Az)

    def drop_simple(zs, at, where):
        i = int(np.argmin(np.abs(zs - at)))
        if abs(zs[i] - at) > 1e-6:
            raise NumericalFailure(f"missing the forced zero at {where}")
        return np.delete(zs, i)

    zs = drop_simple(zs, 1.0, "x = +-1")
    q_odd = (k - 1) % 2
    if q_odd:
        zs = drop_simple(zs, -1.0, "x = 0")
    # scattered double-root copies sit ~1e-8..1e-6 off the axis; a genuine
    # conjugate pair this close merges into one real factor at O(Im^2) cost
    on_axis = np.abs(zs.imag) < 1e-5 * (1 + np.abs(zs))
    doubles = np.sort(zs[on_axis].real)
    upper = zs[~on_axis & (zs.imag > 0)]
    if len(doubles) % 2 or 2 * len(upper) != np.count_nonzero(~on_axis):
        raise NumericalFailure(
            f"unpaired root among {len(doubles)} real and "
            f"{np.count_nonzero(~on_axis)} complex roots of 1 - P P*")
    q_roots = list(upper)
    for z0, z1 in zip(doubles[::2], doubles[1::2]):
        z = 0.5 * (z0 + z1)
        for _ in range(4):
            with np.errstate(all="ignore"):
                step = npcheb.chebval(z, dAz) / npcheb.chebval(z, d2Az)
            if not abs(step) < 1e-4 * (1 + abs(z)):
                break
            z -= step
        q_roots.append(z)
    # Q = x^q_odd prod (T_2 - z)/2, taken by value at Chebyshev nodes:
    # multiplying the factors out coefficient-wise cancels badly past
    # degree ~30, while the product of values is forward stable
    q_deg = q_odd + 2 * len(q_roots)
    xs = cheb.cheb_nodes(q_deg + 1)
    factors = 0.5 * ((2 * xs * xs - 1)[:, None] - np.array(q_roots, complex))
    q = cheb.fit(xs ** q_odd * np.prod(factors, axis=1), q_deg)
    q = cheb.enforce_parity(q, "odd" if q_odd else "even")
    # scale so that (1 - x^2) Q Q* matches A in least squares
    qq = cheb.mul_one_minus_x2(cheb.mul(q, np.conj(q))).real
    n = max(len(A), len(qq))
    Af = np.zeros(n); Af[: len(A)] = A
    Qf = np.zeros(n); Qf[: len(qq)] = qq
    denom = float(Qf @ Qf)
    if denom <= 0:
        raise NumericalFailure("degenerate complex completion")
    K2 = float(Af @ Qf) / denom
    if K2 < 0:
        raise NumericalFailure("negative scale in complex completion")
    q = math.sqrt(K2) * q
    return SignalPair(c, q, tol=max(tol, 1e-8))


# ----------------------------------------------------------------------
# layer stripping


def phases_from_pq(pair: SignalPair) -> PhaseSequence:
    """Extract sandwich phases by peeling one layer per step.

    Works on Chebyshev coefficients in double precision; per step the
    monomial leading coefficients of p_l and q_{l-1} must agree in
    magnitude to a relative 2e-3 on every layer with |p_l| above 1e-4 of
    the largest coefficient, otherwise the completion was inconsistent and
    the operation aborts.
    """
    p = pair.p_cheb.astype(complex)
    q = pair.q_cheb.astype(complex)
    k = pair.k
    phis = np.zeros(k + 1)
    scale0 = float(max(np.abs(p).max(), 1e-300))
    # coefficient noise grows with strip depth; layers below the floor
    # only move the realized polynomial at the noise level, so any phase
    # serves there
    noise = max(1e-7, 3e-10 * k) * scale0
    for m in range(k, 0, -1):
        pl = complex(p[m]) if m < len(p) else 0.0
        ql = complex(q[m - 1]) if m - 1 < len(q) else 0.0
        if abs(pl) <= noise and abs(ql) <= noise:
            phi = 0.0
        else:
            if abs(ql) <= noise * 1e-2:
                raise NumericalFailure(
                    f"leading Q coefficient vanished at layer {m} while "
                    f"|p_l| = {abs(pl):.2e}; completion inconsistent")
            # chebyshev leading -> monomial leading ratio
            ratio = (2 * pl / ql) if m >= 2 else (pl / ql)
            mag = abs(ratio)
            # the recursion amplifies the completion residual layer by
            # layer, so mid-strip mismatch on small layers is diagnostic,
            # not fatal; the reconstruction certificate downstream is the
            # real arbiter.  A large mismatch on a significant layer means
            # the completion itself is inconsistent.
            if abs(mag - 1) > 2e-3 and abs(pl) > 1e-4 * scale0:
                raise NumericalFailure(
                    f"leading coefficients differ in magnitude by "
                    f"{abs(mag-1):.2e} at layer {m}; completion inconsistent")
            phi = 0.5 * cmath.phase(ratio)
        phis[m] = phi
        em, ep = cmath.exp(-1j * phi), cmath.exp(1j * phi)
        newp = cheb.add(em * cheb.mulx(p), ep * cheb.mul_one_minus_x2(q))
        newq = cheb.add(ep * cheb.mulx(q), -em * p)
        dropped = float(np.abs(newp[m:]).max(initial=0.0))
        if dropped > 1e-5 * scale0:
            raise NumericalFailure(
                f"degree failed to drop at layer {m} (residual {dropped:.2e})")
        p = newp[:m]
        q = newq[: max(m - 1, 1)]
    phis[0] = cmath.phase(complex(p[0]))
    return PhaseSequence(phis, "wx_sandwich")


# ----------------------------------------------------------------------
# symmetric phase finding


NEWTON_MAX_ITER = 50
# node residual that ends the iteration whatever the tolerance; rounding
# leaves about 1e-14 at degree 500
NEWTON_GOAL = 1e-13
# below this node residual a step that does not lower it may have met
# rounding: the iteration stops at the third such step
NEWTON_FLOOR = 1e-10


# Rows up to which `_su2_prefixes` takes the log-depth scan
_SCAN_ROWS = 64


def _su2_mul(a1, b1, a2, b2):
    """First row of the product of two SU(2) matrices given by theirs."""
    return a1 * a2 - b1 * np.conj(b2), a1 * b2 + b1 * np.conj(a2)


def _su2_prefixes(la, lb):
    """Running products of the SU(2) rows (la[j], lb[j]) along axis 0.

    Up to _SCAN_ROWS rows the scan is Hillis and Steele's, in place: at
    level s = 1, 2, 4, ... every row j >= s takes the product of row
    j - s and itself, so log2(m) products over all rows end with row j
    the product of rows 0..j.  That costs m log2(m) row products, against
    m for the blocked scan below, but only log2(m) Python-level passes.
    More rows work in blocks of k ~ sqrt(m/3): the block products and the
    products within blocks are formed for all blocks at once, so the
    Python loops run about 2k + m/k times instead of m.

    Microseconds a call at width m, log-depth against blocked (best of
    5 x 50 calls, one BLAS thread, 2-core VM): m = 4: 9 / 23, 14: 20 / 53,
    30: 44 / 78, 47: 92 / 136, 64: 149 / 174, 72: 200 / 212; 93: 882 /
    395, 186: 4,832 / 1,539, 256: 10,201 / 2,365.  The crossover lies
    between 72 and 80 rows; _SCAN_ROWS is the power of two below it.
    """
    m, width = la.shape
    if m <= _SCAN_ROWS:
        pa, pb = np.array(la, complex), np.array(lb, complex)
        s = 1
        while s < m:
            pa[s:], pb[s:] = _su2_mul(pa[:-s], pb[:-s], pa[s:], pb[s:])
            s *= 2
        return pa, pb
    k = max(1, math.isqrt(m // 3))
    nb = -(-m // k)
    pad = nb * k - m  # identity rows
    la = np.concatenate([la, np.ones((pad, width))]).reshape(nb, k, width)
    lb = np.concatenate([lb, np.zeros((pad, width))]).reshape(nb, k, width)
    ta, tb = la[:, 0], lb[:, 0]
    for i in range(1, k):
        ta, tb = _su2_mul(ta, tb, la[:, i], lb[:, i])
    ra = np.ones((nb, width), complex)  # product of the blocks before
    rb = np.zeros((nb, width), complex)
    for j in range(1, nb):
        ra[j], rb[j] = _su2_mul(ra[j - 1], rb[j - 1], ta[j - 1], tb[j - 1])
    pa = np.empty((nb, k, width), complex)
    pb = np.empty((nb, k, width), complex)
    for i in range(k):
        ra, rb = _su2_mul(ra, rb, la[:, i], lb[:, i])
        pa[:, i], pb[:, i] = ra, rb
    return pa.reshape(-1, width)[:m], pb.reshape(-1, width)[:m]


def _half_product(psi: np.ndarray, d: int, xs: np.ndarray, ws: np.ndarray):
    """U_00 and U_01 of the symmetric sandwich product U at the points xs,
    and the Jacobian of Re U_00 in the free phases psi.

    phi_j = psi_{min(j, d-j)}; ws = i sqrt(1 - xs^2).  Only the n = len(psi)
    = floor(d/2) + 1 free layers are multiplied out: with D_j =
    e^{i phi_j Z}, P_k = D_0 W D_1 ... W D_k for k = 0..m, m = n - 1.
    W and every D_j are symmetric, so reversing a product transposes it,
    and the second half of the sequence is a transposed first half:

    - odd d = 2m + 1:  U = P_m W P_m^T;
    - even d = 2m:     U = P_m (P_{m-1} W)^T.

    Both are U = P_m B^T with B = P_{d-1-m} W.  Every factor lies in SU(2)
    and is kept as its first row (a, b) of [[a, b], [-b*, a*]], so
    U_00 = a_m b'_a + b_m b'_b and U_01 = b_m conj(b'_a) - a_m conj(b'_b)
    for B's first row (b'_a, b'_b).

    Turning phi_k by t inserts e^{itZ} after layer k, so
    dU/dphi_k = i P_k Z P_k^dagger U, whose (0, 0) entry is
    i[(|a_k|^2 - |b_k|^2) U_00 + 2 a_k b_k conj(U_01)] with (a_k, b_k) the
    first row of P_k and U_10 = -conj(U_01).  Reversing the phases
    transposes U, so at a symmetric point the tied phase phi_{d-k} moves
    U_00 by the same amount: column k of the Jacobian is -2 Im of that
    bracket, and the middle column of an even d, where k = d - k, is half
    of it.
    """
    n = len(psi)
    e = np.exp(1j * psi)[:, None]
    # first rows of D_0 and of W D_j;  pa, pb: P_0 ... P_m
    la, lb = xs * e, ws / e
    la[0], lb[0] = e[0], 0.0
    pa, pb = _su2_prefixes(la, lb)
    ba, bb = _su2_mul(pa[d - n], pb[d - n], xs, ws)
    u00 = pa[-1] * ba + pb[-1] * bb
    u01 = pb[-1] * np.conj(ba) - pa[-1] * np.conj(bb)
    # Im of the bracket: |a_k|^2 - |b_k|^2 is real, so its term is that
    # times Im U_00, summed in place with no complex temporary
    jac = pa.real ** 2 + pa.imag ** 2 - pb.real ** 2 - pb.imag ** 2
    jac *= u00.imag
    jac += (2.0 * pa * pb * np.conj(u01)).imag
    jac = np.multiply(jac, -2.0, out=jac).T
    if d % 2 == 0:
        jac[:, -1] /= 2.0
    return u00, u01, jac


def _symmetric_phases(c: np.ndarray, goal: float):
    """Symmetric sandwich phases phi_j = phi_{d-j} with
    Re<0|U_Phi(x)|0> = sum_j c_j T_j(x), for a real target of definite
    parity d = len(c) - 1 (Dong, Meng, Whaley and Lin, arXiv:2002.11649).

    Newton iteration on the n = floor(d/2) + 1 free phases from
    (pi/4, 0, ..., 0, pi/4), matching the target at the n positive
    Chebyshev nodes of T_2n; `_half_product` gives U and the Jacobian
    from the products of the free layers alone.

    Stops when the node residual reaches ``goal``, at the third step that
    does not lower a least residual below NEWTON_FLOOR, or after
    NEWTON_MAX_ITER steps, and returns the iterate of least residual as
    (wx_sandwich PhaseSequence, node residual).  The phases are not
    certified: the caller does that.
    """
    d = len(c) - 1
    n = d // 2 + 1
    xs = np.cos(np.pi * (np.arange(n) + 0.5) / (2 * n))
    ws = 1j * np.sqrt(1.0 - xs ** 2)  # W(x) = (x, i sqrt(1-x^2))
    want = cheb.values(c, xs)
    psi = np.zeros(n)
    psi[0] = math.pi / 4
    best = None  # (node residual, phases)
    stalls = 0
    for _ in range(NEWTON_MAX_ITER):
        u00, _, jac = _half_product(psi, d, xs, ws)
        r = u00.real - want
        resid = float(np.abs(r).max())
        if not math.isfinite(resid):
            break
        if best is not None and resid >= best[0] and best[0] <= NEWTON_FLOOR:
            stalls += 1
            if stalls == 3:
                break
        if best is None or resid < best[0]:
            best = (resid, psi)
        if resid <= goal:
            break
        try:
            psi = psi - np.linalg.solve(jac, r)
        except np.linalg.LinAlgError:
            break
    if best is None:
        raise NumericalFailure(
            f"symmetric phase Newton diverged at the start (degree {d})")
    resid, psi = best
    phis = np.concatenate([psi, psi[: d + 1 - n][::-1]])
    return PhaseSequence(phis, "wx_sandwich"), resid


# ----------------------------------------------------------------------
# end-to-end pipeline


def _coefficient_bound(f: np.ndarray, c: np.ndarray) -> float:
    """A bound on max |sum_k (f_k - c_k) T_k(x)| over [-1, 1], where f
    holds the d + 1 coefficients of a realized polynomial R taken by
    `_chebops.fit` from values at the nodes, and c is the target.

    As |T_k| <= 1 on [-1, 1], sum_k |f_k - c_k| bounds the distance of
    the series f from c.  f is not R itself: with u = 2^-53,

    - each node value is R(x_j) up to the rounding of a d-layer product of
      unit-norm 2x2 factors.  A layer scales the running product's entries
      by e^{+-i phi} (a complex product or quotient and the rounding of
      e^{i phi}, under 7u) and combines them with the reals x and
      sqrt(1 - x^2) (under u more), so a value is off by at most 8du
      (`_reflection_row` does the same operations on each entry);
    - interpolation at the d + 1 Chebyshev nodes turns value errors of at
      most e into a polynomial of sup at most Lambda e, with the Lebesgue
      constant Lambda <= 1 + (2/pi) ln(d + 1) (Rivlin);
    - the DCT in `fit` is one FFT of length d + 1, whose rounding is
      below 5 log2(d+1) u in the 2-norm relative to its input: at most
      10 sqrt(d+1) log2(2(d+1)) u in the 1-norm of the coefficients
      (values of size <= 1).

    The 1-norm sum itself rounds by (d + 1) u of its size, under the first
    term whenever the bound is below 1.  The term takes the doubles
    nearest the nodes for the nodes: R moves by up to |R'| u between
    neighbouring doubles, which it leaves out, as a grid evaluated in
    double precision does.
    """
    diff = cheb.add(f, -c)
    d = len(f) - 1
    u = np.finfo(float).eps / 2
    lebesgue = 1.0 + 2.0 / math.pi * math.log(d + 1)
    rounding = u * (8 * d * lebesgue
                    + 10 * math.sqrt(d + 1) * math.log2(2 * (d + 1)))
    return float(np.abs(diff).sum()) + rounding


def _degree_cut(c: np.ndarray, tol: float) -> np.ndarray:
    """Drop the trailing coefficients below 1e-11 max(1, max|c|) while
    their summed magnitude, a bound on what they move, stays within
    tol / 10.  SignalPair declares degree by the same threshold, so a
    pair's degree is the phase count unless that tail is too heavy to
    drop."""
    a = np.abs(c)
    thr = 1e-11 * max(1.0, float(a.max()))
    small = np.maximum.accumulate(a[::-1]) <= thr
    light = np.cumsum(a[::-1]) <= tol / 10
    drop = int(np.count_nonzero(small & light))
    return c[: max(1, len(c) - drop)]


def _real_phases(c: np.ndarray, tol: float, goal: float):
    """The one pipeline of a real target c (Chebyshev coefficients) to
    reflection phases, shared by `phases_for_target` and `complete`, which
    differ only in the Newton ``goal``.

    `_completion_gap`, the one admissibility gate, sees the target as
    given; `_degree_cut` then drops a tail, and when the target's peak
    plus that tail's 1-norm exceeds 1 the cut is divided by that sum, so
    it stays within 1 too.  A nonzero constant a takes the reflection
    phases (arccos a, 0) in closed form; any other cut goes to the
    symmetric-phase Newton solver, which stops at a node residual of
    ``goal``.  The realized Re<0|U_Phi|0>, a polynomial of degree d, is then
    taken at the d + 1 Chebyshev nodes by the top-row kernel
    `_reflection_row` (`qsp_eval`'s values, bit for bit) and fitted;
    `_coefficient_bound` of those coefficients against the uncut target
    (their 1-norm distance plus the rounding of evaluation and fit)
    bounds max |Re P - p| over [-1, 1] and must meet ``tol``, else
    NumericalFailure, the one acceptance check of the phases.  Returns
    (reflection PhaseSequence, report).
    """
    top = _completion_gap(c)
    c = c.real
    coeffs = _degree_cut(c, tol)
    # the cut moves p by at most its dropped tail's 1-norm; rescale a cut
    # that this could lift above 1
    lifted = top + float(np.abs(c[len(coeffs):]).sum())
    if lifted > 1.0:
        coeffs = coeffs / lifted
    if len(coeffs) == 1 and coeffs[0]:
        # e^{i arccos(a) Z} R(x) R(x) = e^{i arccos(a) Z}, as R(x)^2 = I,
        # realizes a constant a: the reflection form of the sandwich
        # (-asin(a)/2, pi/2, -asin(a)/2)
        refl = PhaseSequence(np.array([math.acos(float(coeffs[0])), 0.0]),
                             "reflection")
        resid = 0.0
    else:
        if not coeffs.any():
            coeffs = np.zeros(2)  # zero is realized by one layer, as odd
        sandwich, resid = _symmetric_phases(coeffs, goal)
        refl = to_reflection(sandwich)
    d = refl.degree
    vals = _reflection_row(refl.phis, cheb.cheb_nodes(d + 1))[0].real
    err = _coefficient_bound(cheb.fit(vals, d), c)
    if err > tol:
        raise NumericalFailure(
            f"reconstruction error {err:.2e} above requested {tol:.0e} "
            f"(Newton node residual {resid:.1e}, degree {d})")
    return refl, {"reconstruction_error": err, "node_residual": resid}


def phases_for_target(p_re, tol: float = 1e-8):
    """Real target -> reflection phases, certifying the reconstruction.

    `_real_phases` at the Newton goal max(NEWTON_GOAL, tol / 10), with its
    errors: Inadmissible for an imaginary part or no definite parity,
    NotSubunit (a subclass) above 1 on [-1, 1], and NumericalFailure when
    the reconstruction bound misses ``tol``.  Returns (reflection
    PhaseSequence, report); the report holds that bound as
    ``reconstruction_error`` and ``node_residual``.  No (P, Q) pair is
    formed: `complete` reads one off the phases when it is wanted.
    Results are memoized by `approx._memo` on the coefficients' bytes and
    ``float(tol)``.
    """
    return _phases(_as_cheb_array(p_re).tobytes(), float(tol))


@_memo
def _phases(coeffs: bytes, tol: float):
    """`phases_for_target`'s memoized body, on the bytes of a complex
    coefficient array."""
    c = np.frombuffer(coeffs, complex)
    return _real_phases(c, tol, max(NEWTON_GOAL, tol / 10))
