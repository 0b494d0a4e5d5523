"""Quantum signal processing over 2x2 matrices.

Two routes turn a target into phases, both in double precision:

- real targets of definite parity (`phases_for_target`, `real_qsp`,
  `complete`) go through the symmetric-phase solver: Newton iteration
  on symmetric sandwich phases so that Re<0|U_Phi(x)|0> matches the
  target at Chebyshev nodes.  `complete` returns the unitary-valued pair
  (P, Q), |P|^2 + (1-x^2)|Q|^2 = 1, that those phases realize;
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
from .errors import (ConventionMismatch, Inadmissible, NotSubunit,
                     NumericalFailure)
from .poly import ChebSeries, ParityPoly, convert


def _as_cheb_array(p) -> np.ndarray:
    if isinstance(p, ParityPoly):
        return convert(p).cheb_coeffs.copy()
    if isinstance(p, ChebSeries):
        return p.cheb_coeffs.copy()
    return np.atleast_1d(np.asarray(p, complex))


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

    Stored in the Chebyshev basis; the monomial views convert lazily.
    """

    def __init__(self, p_cheb, q_cheb, validate=True, tol=1e-10):
        self.p_cheb = cheb.trim(np.asarray(p_cheb, complex), 1e-13)
        self.q_cheb = cheb.trim(np.asarray(q_cheb, complex), 1e-13)
        self.k = cheb.degree(self.p_cheb, 1e-11)
        if np.abs(self.q_cheb).max() > 1e-12:
            self.k = max(self.k, cheb.degree(self.q_cheb, 1e-11) + 1)
        if validate:
            self.validate(tol)

    @property
    def p(self) -> ParityPoly:
        return convert(ChebSeries(self.p_cheb))

    @property
    def q(self) -> ParityPoly:
        return convert(ChebSeries(self.q_cheb))

    def p_value(self, x):
        return npcheb.chebval(x, self.p_cheb)

    def q_value(self, x):
        return npcheb.chebval(x, self.q_cheb)

    def unitarity_defect(self, n_grid=1000) -> float:
        xs = np.cos(np.linspace(0, math.pi, n_grid + 1))
        pv = self.p_value(xs)
        qv = self.q_value(xs)
        return float(np.abs(np.abs(pv) ** 2
                            + (1 - xs ** 2) * np.abs(qv) ** 2 - 1).max())

    def validate(self, tol=1e-10):
        k = self.k
        if cheb.degree(self.p_cheb, 1e-11) > k:
            raise NumericalFailure("deg(P) exceeds declared arity")
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


def signal_matrix(x: float, kind: str = "W") -> np.ndarray:
    """W(x) = [[x, i s],[i s, x]] or the reflection R(x) = [[x, s],[s, -x]]
    with s = sqrt(1 - x^2)."""
    if not -1.0 <= x <= 1.0:
        raise ValueError("need |x| <= 1")
    s = math.sqrt(max(0.0, 1.0 - x * x))
    if kind == "W":
        return np.array([[x, 1j * s], [1j * s, x]])
    if kind == "R":
        return np.array([[x, s], [s, -x]], complex)
    raise ValueError(f"unknown kind {kind!r}")


def qsp_eval(phi: PhaseSequence, x):
    """Evaluate the phased product at x (scalar or 1-d array).

    wx_sandwich: e^{i phi_0 Z} prod_j W(x) e^{i phi_j Z};
    reflection:  prod_j e^{i phi_j Z} R(x).
    Returns a (2, 2) matrix for scalar x, else (n, 2, 2).
    """
    xs = np.atleast_1d(np.asarray(x, float))
    s = np.sqrt(np.clip(1.0 - xs ** 2, 0.0, None))
    n = len(xs)
    out = np.zeros((n, 2, 2), complex)
    if phi.convention == "wx_sandwich":
        e0 = np.exp(1j * phi.phis[0])
        out[:, 0, 0] = e0
        out[:, 1, 1] = np.conj(e0)
        for ang in phi.phis[1:]:
            ep = cmath.exp(1j * ang)
            a = out[:, 0, 0].copy(); b = out[:, 0, 1].copy()
            c = out[:, 1, 0].copy(); d = out[:, 1, 1].copy()
            # multiply by W(x) then diag(e^{i ang}, e^{-i ang})
            na = a * xs + b * 1j * s
            nb = a * 1j * s + b * xs
            nc = c * xs + d * 1j * s
            nd = c * 1j * s + d * xs
            out[:, 0, 0] = na * ep
            out[:, 0, 1] = nb / ep
            out[:, 1, 0] = nc * ep
            out[:, 1, 1] = nd / ep
    else:
        out[:, 0, 0] = 1.0
        out[:, 1, 1] = 1.0
        # running product M <- M @ e^{i phi Z} @ R(x), phi_1 leftmost
        for ang in phi.phis:
            ep = cmath.exp(1j * ang)
            a = out[:, 0, 0] * ep; b = out[:, 0, 1] / ep
            c = out[:, 1, 0] * ep; d = out[:, 1, 1] / ep
            out[:, 0, 0] = a * xs + b * s
            out[:, 0, 1] = a * s - b * xs
            out[:, 1, 0] = c * xs + d * s
            out[:, 1, 1] = c * s - d * xs
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return out[0]
    return out


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
    out = np.empty(d)
    out[0] = old[0] + old[d] + (d - 1) * math.pi / 2
    for j in range(2, d + 1):
        out[j - 1] = old[j - 1] - math.pi / 2
    return PhaseSequence(out, "reflection")


# ----------------------------------------------------------------------
# admissibility


def check_admissible(p, convention: str = "complex_full", n_grid: int = 2000,
                     tol: float = 1e-9) -> dict:
    """Grid-based report of the achievability conditions.

    ``complex_full`` checks parity, |P| <= 1 inside, |P| >= 1 outside and
    the imaginary-axis condition for even degree; ``real_target`` checks
    parity and boundedness only.  Violations appear as negative margins,
    not exceptions.
    """
    c = _as_cheb_array(p)
    k = cheb.degree(c, 1e-11)
    par = cheb.parity_of(c, 1e-11)
    want = "even" if k % 2 == 0 else "odd"
    report = {"degree": k, "parity": par,
              "parity_ok": par == want or float(np.abs(c).max()) < 1e-13}
    xs = np.cos(np.linspace(0, math.pi, n_grid + 1))
    vals = npcheb.chebval(xs, c)
    inside = 1.0 - float(np.abs(vals).max())
    report["inside_margin"] = inside
    report["inside_ok"] = inside >= -tol
    if convention == "real_target":
        report["admissible"] = report["parity_ok"] and report["inside_ok"]
        return report
    if convention != "complex_full":
        raise ValueError(f"unknown convention {convention!r}")
    # evaluated in the Chebyshev basis: the monomial form loses ~1e-8 near
    # |x| = 1 by degree 25, which turns admissible targets away
    ts = np.linspace(1.0, 3.0, n_grid // 2)
    out_vals = npcheb.chebval(np.concatenate([ts, -ts]), c)
    outside = float(np.abs(out_vals).min()) - 1.0
    report["outside_margin"] = outside
    report["outside_ok"] = outside >= -tol
    if k % 2 == 0:
        ys = np.linspace(0.0, 3.0, n_grid // 2)
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


def _completion_gap(p):
    """Refuse a real Chebyshev target p without definite parity
    (Inadmissible) and one where A = 1 - p^2 dips below -1e-12
    (NotSubunit), on a 2001-point grid and at the minima between its
    points."""
    if np.abs(p).max() > 1e-13 and cheb.parity_of(p) == "none":
        raise Inadmissible("target p must have definite parity")
    A = cheb.trim(cheb.add(np.array([1.0]), -cheb.mul(p, p)), 1e-16)
    xs = np.cos(np.linspace(0, math.pi, 2001))
    Avals = npcheb.chebval(xs, A)
    # a dip below zero hides between grid points near a small grid
    # minimum; Newton steps on A' from there find it
    mid = Avals[1:-1]
    x = xs[1:-1][(mid <= Avals[:-2]) & (mid <= Avals[2:]) & (mid < 1e-3)]
    dA = npcheb.chebder(A)
    d2A = npcheb.chebder(dA)
    with np.errstate(all="ignore"):
        for _ in range(4):
            x = np.clip(x - npcheb.chebval(x, dA) / npcheb.chebval(x, d2A),
                        -1.0, 1.0)
    xs = np.concatenate([xs, x])
    Avals = np.concatenate([Avals, npcheb.chebval(x, A)])
    worst = int(np.nanargmin(Avals))
    if Avals[worst] < -1e-12:
        raise NotSubunit(
            f"p^2 exceeds 1 by {-Avals[worst]:.2e} near x = {xs[worst]:.6g}")


def complete(p_re, tol: float = 1e-10) -> SignalPair:
    """Complete a real target p to a unitary-valued SignalPair with Re P = p.

    Trailing coefficients below 1e-11 max(1, max|c|), the threshold at
    which SignalPair declares its degree, are cut first.  A target without
    definite parity is refused (Inadmissible), and so is one that exceeds
    1 in magnitude (NotSubunit).  A constant p completes in closed form to
    P = p + i sqrt(1 - p^2), Q = 0; any other p takes the pair the
    symmetric-phase Newton solver realizes.  |Re P - p| above ``tol``
    against the uncut target on a 1000-point grid, or a unitarity defect
    above ``tol``, raises NumericalFailure.
    """
    c = _as_cheb_array(p_re).real.astype(float)
    p = _degree_cut(c, math.inf)
    _completion_gap(p)
    if len(p) == 1:
        root = math.sqrt(max(0.0, 1.0 - p[0] * p[0]))
        return SignalPair(np.array([complex(p[0], root)]), np.zeros(1),
                          tol=tol)
    _, pair, _ = _symmetric_phases(p, NEWTON_GOAL)
    err = float(np.abs(pair.p_value(_CERT_GRID).real
                       - npcheb.chebval(_CERT_GRID, c)).max())
    if err > tol:
        raise NumericalFailure(
            f"completion misses the target by {err:.2e} (tol {tol:.0e})")
    return pair.validate(tol)


def complete_complex(p, tol: float = 1e-9) -> SignalPair:
    """Find Q for an admissible complex P with 1 - P P* = (1-x^2) Q Q*.

    Follows the root pairing of the achievability theorem.  A = 1 - P P*
    is even, so it is a Chebyshev series in z = T_2(x) = 2x^2 - 1 (its even
    coefficients); each z-root stands for a mirror pair +-s with
    s^2 = (z + 1)/2, and a factor (x^2 - s^2) = (T_2 - z)/2 of Q.  The
    z-roots are seeded in the Chebyshev basis and refined by Aberth steps.
    Their structure:

    - z = 1 (x = +-1) is the simple zero of the prefactor (1 - x^2);
    - z = -1 (x = 0) is a simple zero when Q is odd, giving Q its factor x;
    - every other real z-root is a double root.  Real z in (-1, 1) and
      z > 1 are real x (A >= 0 inside [-1, 1], A <= 0 outside) and z < -1
      is imaginary x (Q Q*(iy) = +-|Q(iy)|^2 by parity).  Aberth leaves the
      two copies scattered by about sqrt(eps), so the sorted copies are
      paired, each pair is replaced by its mean refined with Newton steps
      on dA/dz (where the root is simple), and Q and Q* each take the one
      real factor (T_2 - z)/2;
    - the remaining z-roots are genuinely complex: a conjugate pair z, z*
      is the quadruple +-s, +-s* in x.  Q takes the member with Im z > 0
      and Q* the other.

    Q is sampled as the product of its factors at Chebyshev nodes,
    interpolated, and scaled so that (1 - x^2) Q Q* matches A in least
    squares; there is no polish.  A unitarity defect above
    ``max(tol, 1e-8)`` raises NumericalFailure.  The completion runs in
    double precision.
    """
    c = _as_cheb_array(p)
    c = cheb.trim(c, 1e-13)
    k = cheb.degree(c, 1e-11)
    rep = check_admissible(c, "complex_full")
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
    zs = cheb.aberth(Az, npcheb.chebroots(Az))

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
    pair = SignalPair(c, q, validate=False)
    defect = pair.unitarity_defect()
    if defect > max(tol, 1e-8):
        raise NumericalFailure(
            f"complex completion defect {defect:.2e}")
    return pair


# ----------------------------------------------------------------------
# layer stripping


def phases_from_pq(pair: SignalPair) -> PhaseSequence:
    """Extract sandwich phases by peeling one layer per step.

    Works on Chebyshev coefficients; per step the monomial leading
    coefficients of p_l and q_{l-1} must agree in magnitude to a relative
    2e-3 on every layer with |p_l| above 1e-4 of the largest coefficient,
    otherwise the completion was inconsistent and the operation aborts.
    """
    # 80-bit arithmetic keeps the accumulated recursion noise a few
    # digits below double rounding, which matters for eps^2-level targets
    ld = np.clongdouble
    p = pair.p_cheb.astype(ld).copy()
    q = pair.q_cheb.astype(ld).copy()
    k = pair.k
    phis = np.zeros(k + 1)
    scale0 = float(max(np.abs(p).max(), 1e-300))
    # coefficient noise grows with strip depth; layers below the floor
    # only move the realized polynomial at the noise level, so any phase
    # serves there
    noise = max(1e-7, 3e-10 * k) * scale0
    worst_mismatch = 0.0
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
            worst_mismatch = max(worst_mismatch, abs(mag - 1))
            phi = 0.5 * cmath.phase(ratio)
        phis[m] = phi
        em = np.exp(ld(-1j * phi))
        ep = np.exp(ld(1j * phi))
        xp = cheb.mulx(p)
        q2 = cheb.mul_one_minus_x2(q)
        n_ = max(len(xp), len(q2))
        newp = np.zeros(n_, ld)
        newp[: len(xp)] += em * xp
        newp[: len(q2)] += ep * q2
        xq = cheb.mulx(q)
        n2 = max(len(xq), len(p))
        newq = np.zeros(n2, ld)
        newq[: len(xq)] += ep * xq
        newq[: len(p)] -= em * p
        dropped = float(np.abs(newp[m:]).max(initial=0.0))
        if dropped > 1e-5 * scale0:
            raise NumericalFailure(
                f"degree failed to drop at layer {m} (residual {dropped:.2e})")
        p = newp[:m]
        q = newq[: max(m - 1, 1)]
    phis[0] = cmath.phase(complex(p[0]))
    seq = PhaseSequence(phis, "wx_sandwich")
    object.__setattr__(seq, "worst_mismatch", worst_mismatch)
    return seq


# ----------------------------------------------------------------------
# symmetric phase finding


NEWTON_MAX_ITER = 50
# node residual that ends the iteration whatever the tolerance; rounding
# leaves about 1e-14 at degree 500
NEWTON_GOAL = 1e-13
# below this node residual a step that does not lower it has met rounding
NEWTON_FLOOR = 1e-10


def _su2_mul(a1, b1, a2, b2):
    """First row of the product of two SU(2) matrices given by theirs."""
    return a1 * a2 - b1 * np.conj(b2), a1 * b2 + b1 * np.conj(a2)


def _su2_prefixes(la, lb):
    """Running products of the SU(2) rows (la[j], lb[j]) along axis 0.

    Works in blocks of k ~ sqrt(m/3) rows: the block products and the
    products within blocks are formed for all blocks at once, so the
    Python loops run about 2k + m/k times instead of m.
    """
    m, width = la.shape
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


def _symmetric_phases(c: np.ndarray, goal: float):
    """Symmetric sandwich phases phi_j = phi_{d-j} with
    Re<0|U_Phi(x)|0> = sum_j c_j T_j(x), for a real target of definite
    parity d = len(c) - 1 (Dong, Meng, Whaley and Lin, arXiv:2002.11649).

    Newton iteration on the n = floor(d/2) + 1 free phases from
    (pi/4, 0, ..., 0, pi/4), matching the target at the n positive
    Chebyshev nodes of T_2n.  Every factor lies in SU(2) and is kept as
    the first row (a, b) of [[a, b], [-b*, a*]].  The Jacobian needs no
    suffix products: the sequence is symmetric and W, e^{i phi Z} are
    symmetric matrices, so the product after layer j is the transpose of
    the product up to layer d-1-j followed by W.

    Stops when the node residual reaches ``goal``, when it stops falling
    below NEWTON_FLOOR, or after NEWTON_MAX_ITER steps, and returns the
    iterate of least residual as (wx_sandwich PhaseSequence, SignalPair,
    node residual); the caller's certificate judges it.  The SignalPair is
    read off that iterate's products: P = U_00 and Q = U_01 / (i s) at the
    n nodes, extended by parity to all 2n nodes of T_2n and interpolated.
    """
    d = len(c) - 1
    if d < 1:
        raise ValueError("degree-0 targets have no reflection form")
    n = d // 2 + 1
    xs = np.cos(np.pi * (np.arange(n) + 0.5) / (2 * n))
    ws = 1j * np.sqrt(1.0 - xs ** 2)  # W(x) = (x, i sqrt(1-x^2))
    want = npcheb.chebval(xs, c)
    fold = np.minimum(np.arange(d + 1), d - np.arange(d + 1))
    psi = np.zeros(n)
    psi[0] = math.pi / 4
    best = None  # (node residual, phases, U_00 and U_01 at the nodes)
    for _ in range(NEWTON_MAX_ITER):
        e = np.exp(1j * psi[fold])[:, None]
        # first rows of D_0 and of W D_j;  pa, pb: D_0 W D_1 ... W D_j;
        # qa, qb: the same followed by W
        la, lb = xs * e, ws / e
        la[0], lb[0] = e[0], 0.0
        pa, pb = _su2_prefixes(la, lb)
        qa, qb = pa[1:] / e[1:], pb[1:] * e[1:]
        r = pa[d].real - want
        resid = float(np.abs(r).max())
        if not math.isfinite(resid):
            break
        if best is not None and resid >= best[0] and best[0] <= NEWTON_FLOOR:
            break
        if best is None or resid < best[0]:
            best = (resid, psi, pa[d].copy(), pb[d].copy())
        if resid <= goal:
            break
        # dU_00/dphi_j = i [P_j Z S_j]_00 with S_j = (P_{d-1-j} W)^T;
        # phi_k and phi_{d-k} share a column
        jac = -2.0 * (pa[:n] * qa[::-1][:n] - pb[:n] * qb[::-1][:n]).imag.T
        if d % 2 == 0:
            jac[:, -1] /= 2.0
        try:
            psi = psi - np.linalg.solve(jac, r)
        except np.linalg.LinAlgError:
            break
    if best is None:
        raise NumericalFailure(
            f"symmetric phase Newton diverged at the start (degree {d})")
    resid, psi, u00, u01 = best
    # P(-x) = (-1)^d P(x) and Q(-x) = -(-1)^d Q(x); the nodes of T_2n run
    # from the n positive ones to their mirror images in reverse order
    sign = (-1) ** d
    p = cheb.fit(np.concatenate([u00, sign * u00[::-1]]), 2 * n - 1)
    qv = u01 / ws
    q = cheb.fit(np.concatenate([qv, -sign * qv[::-1]]), 2 * n - 1)
    return (PhaseSequence(psi[fold], "wx_sandwich"),
            SignalPair(p[: d + 1], q[:d]), resid)


# ----------------------------------------------------------------------
# end-to-end pipeline


_PHASE_CACHE: dict = {}
_PHASE_CACHE_MAX = 128
# the 1000-point grid on which realized targets are certified
_CERT_GRID = np.cos(np.linspace(0.0005, math.pi - 0.0005, 1000))


def _degree_cut(c: np.ndarray, tol: float) -> np.ndarray:
    """Drop the trailing coefficients below 1e-11 max(1, max|c|) while
    their summed magnitude, a bound on what they move, stays within
    tol / 10.  SignalPair declares degree by the same threshold, and
    `complete` cuts by it alone (tol = inf), so the phase count is the
    one completion gives unless that tail is too heavy to drop."""
    a = np.abs(c)
    thr = 1e-11 * max(1.0, float(a.max()))
    small = np.maximum.accumulate(a[::-1]) <= thr
    light = np.cumsum(a[::-1]) <= tol / 10
    drop = int(np.count_nonzero(small & light))
    return c[: max(1, len(c) - drop)]


def phases_for_target(p_re, tol: float = 1e-8):
    """Real target -> reflection phases, certifying the reconstruction.

    A target without definite parity is refused (Inadmissible), and so is
    one that exceeds 1 in magnitude (NotSubunit).  The symmetric-phase
    Newton solver finds the phases, stopping at a node residual of
    max(NEWTON_GOAL, tol / 10); the realized Re<0|U_Phi|0> must then meet
    ``tol`` on a 1000-point grid, else NumericalFailure.

    Returns (SignalPair, reflection PhaseSequence, report); the report
    holds ``reconstruction_error`` and ``node_residual``.  Results are
    memoized on (coefficients, tol).
    """
    c = _as_cheb_array(p_re)
    key = (c.tobytes(), float(tol))
    cached = _PHASE_CACHE.get(key)
    if cached is not None:
        return cached
    coeffs = _degree_cut(c.real, tol)
    if not coeffs.any():
        coeffs = np.zeros(2)  # zero is realized by one layer, as odd
    _completion_gap(coeffs)
    sandwich, pair, resid = _symmetric_phases(
        coeffs, max(NEWTON_GOAL, tol / 10))
    refl = to_reflection(sandwich)
    err = float(np.abs(qsp_eval(refl, _CERT_GRID)[:, 0, 0].real
                       - npcheb.chebval(_CERT_GRID, c.real)).max())
    if err > tol:
        raise NumericalFailure(
            f"reconstruction error {err:.2e} above requested {tol:.0e} "
            f"(Newton node residual {resid:.1e}, degree {refl.degree})")
    out = (pair, refl, {"reconstruction_error": err, "node_residual": resid})
    if len(_PHASE_CACHE) >= _PHASE_CACHE_MAX:
        _PHASE_CACHE.pop(next(iter(_PHASE_CACHE)))
    _PHASE_CACHE[key] = out
    return out


def real_qsp(p_re, delta: float = 1e-8):
    """`phases_for_target` with ``tol=delta`` for a target that passes
    the ``real_target`` admissibility check (Inadmissible otherwise).
    Returns (SignalPair, reflection PhaseSequence)."""
    c = _as_cheb_array(p_re)
    rep = check_admissible(c, "real_target")
    if not rep["admissible"]:
        raise Inadmissible(f"target fails real_target admissibility: {rep}")
    pair, refl, _ = phases_for_target(c, tol=delta)
    return pair, refl
