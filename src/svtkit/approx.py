"""Bounded polynomial approximations with certified error and degree.

Every constructor returns an `ApproxResult` whose certificate (sup-norm
bound on [-1, 1] and max error over a valid domain inside it) is checked
by a bound on each valid piece (`_piece_error`), or raises
NumericalFailure; those that take parameters only are memoized and
return shared read-only results.  Sign,
rectangle, bounded 1/x and the negative powers are near-best fits by one
Remez exchange (`_minimax`), exp and trig cut Chebyshev series with Bessel
coefficients (`_miller`), arcsin and the fractional-query pair cut power
series whose terms have one sign (`_one_sign_series`).  All but exp leave
through `_to_peak` at peak at most 1 - b/4 for their error budget b, the
room below 1 phase synthesis needs; their claimed errors cover that.
"""
from __future__ import annotations

import dataclasses
import functools
import inspect
import math
from typing import Callable

import numpy as np

from . import _chebops as cheb
LIB_MAX_DEGREE = 4096  # library-internal cap; the CLI enforces the 512 contract
from .errors import DegreeOverflow, NumericalFailure
from .poly import ChebSeries

# ----------------------------------------------------------------------
# result container


@dataclasses.dataclass(frozen=True)
class ApproxResult:
    """A certified polynomial approximation.

    ``cheb`` is the series on [-1, 1], where every family states its claims,
    and ``degree`` its degree.  Every constructor returns through
    `_certified`, which refuses a degree above its cap and measures them.
    """

    cheb: ChebSeries
    claimed_sup_bound: float
    claimed_error: float
    valid_domain: tuple
    label: str = ""

    @property
    def degree(self) -> int:
        return self.cheb.degree

    @property
    def parity(self) -> str:
        return self.cheb.parity

    def evaluate(self, x):
        return self.cheb(np.asarray(x, float))

    def to_json(self) -> dict:
        return {
            "poly": self.cheb.to_json(),
            "certificate": {
                "degree": self.degree,
                "claimed_error": self.claimed_error,
                "claimed_sup_bound": self.claimed_sup_bound,
                "valid_domain": [list(iv) for iv in self.valid_domain],
                "label": self.label,
            },
        }


# ----------------------------------------------------------------------
# certificate


_U = 2.0 ** -53  # unit roundoff of a double
_RHOS = 1.0 + 2.0 ** (np.arange(-40, 25) / 4.0)  # Bernstein ellipses tried
_MAX_POINTS = 8 * LIB_MAX_DEGREE  # most interpolation points on one piece


@dataclasses.dataclass(frozen=True)
class _Target:
    """What a certificate checks a series against on each valid piece.

    With ``ellipse`` None, ``f`` is a polynomial of degree at most
    ``degree`` on each piece.  Else ``ellipse(m, a, b)`` bounds |f| inside
    the ellipse of centre m and semi-axes a >= b (arrays of them), in
    which f is analytic, and is inf where f is not.  On the valid domain
    ``f`` at a double is within ``ulps`` u of its exact value there, u =
    2^-53, given that libm's cos, sin, exp, arcsin and pow are within one
    ulp of theirs.  ``symmetry`` is "odd" or "even" when f(-x) = -f(x) or
    f(x) exactly, else "none".
    """

    f: Callable
    degree: int = 0
    ellipse: Callable | None = None
    ulps: float = 0.0
    symmetry: str = "none"


def _power_ellipse(scale: float, c: float) -> Callable:
    """`_Target.ellipse` of scale x^-c, analytic off 0: on an ellipse that
    stays on one side of 0, |z| is at least |m| - a, at its near vertex."""
    return lambda m, a, b: scale / np.maximum(abs(m) - a, 0.0) ** c


def _piece_error(c, own: float, target: _Target, lo: float, hi: float,
                 claim: float):
    """(bound on max |p - f| over [lo, hi], rounding term r) for p = sum_k
    c_k T_k, ``own`` the rounding of p's values, and ``claim`` the error
    that the bound is to meet within r.

    A point piece is evaluated directly.  Else, with x = m + h s, m and h
    the piece's centre and half-width, the error e(s) = p(x) - f(x) is
    interpolated at the N + 1 Chebyshev points s_j of the first kind by
    `_chebops.fit`, N = max(d, the target's degree or N_tail).  When f is a
    polynomial of degree <= N, e equals its interpolant I_N e.  When f is
    analytic in the Bernstein ellipse E_rho of the piece, |f| <= M there,
    each T_k, k > N, aliases to one T_j, j <= N, at those points, so
    |e - I_N e| = |I_N f - f| <= 2 sum_{k>N} |a_k(f)| <= 4 M rho^-N /
    (rho - 1) (Trefethen, Approximation Theory and Approximation Practice,
    Thm 8.2); N_tail is the least N putting that below claim/1000 for one
    of ``_RHOS``, and a piece that needs more than _MAX_POINTS points gets
    the bound inf.  The max of |I_N e| is bounded by
    `_chebops._grid_stage` and, only when that bound plus the tail is above
    claim + r, taken again by `_chebops._newton_stage`, as `_chebops.peak`
    takes a peak.

    r bounds the rounding of the values of e: `_chebops.values` (at most
    _DENSE_POINTS points a call) is within ``own`` of p, f within ``ulps``
    u of f, and the subtraction within u |e|, which interpolation
    multiplies by the Lebesgue constant of the points, at most (2/pi)
    log(N + 1) + 1 (Rivlin); the fit's and the DCT-I's FFTs, backward
    stable with eta <= 7u (Higham, Accuracy and Stability of Numerical
    Algorithms, Thm 24.2), add at most 34 u log2(2n) sqrt(n (N + 1))
    max|e(s_j)| on the grid of n + 1 points.  Rounding the points to
    doubles moves each by at most u: relative to e, below u N^2 / h by
    Markov's inequality, which is left out.
    """
    if lo == hi:
        x = np.array([lo])
        err = float(np.abs(cheb.values(c, x) - target.f(x))[0])
        return err, own + target.ulps * _U + _U * err
    m, h = (lo + hi) / 2.0, (hi - lo) / 2.0
    n_pts, tail = max(len(c) - 1, target.degree) + 1, 0.0
    if target.ellipse is not None:
        with np.errstate(all="ignore"):
            big = target.ellipse(m, h * (_RHOS + 1 / _RHOS) / 2,
                                 h * (_RHOS - 1 / _RHOS) / 2)
            finite = big < np.inf  # not NaN either
            need = np.log(4000.0 * big / ((_RHOS - 1) * claim)) \
                / np.log(_RHOS)
            n_pts = max(n_pts, math.ceil(np.clip(
                need[finite].min(initial=np.inf), 0, _MAX_POINTS)) + 1)
            tail = float(np.min(np.where(
                finite, 4 * big * _RHOS ** (1 - n_pts) / (_RHOS - 1),
                np.inf)))
    if n_pts > _MAX_POINTS:
        return math.inf, 0.0
    x = np.clip(m + h * cheb.cheb_nodes(n_pts), lo, hi)
    step = cheb._DENSE_POINTS
    v = np.concatenate([cheb.values(c, x[i:i + step])
                        for i in range(0, n_pts, step)]) - target.f(x)
    e = cheb.fit(v, n_pts - 1)
    n, grid, bound = cheb._grid_stage(e)
    top = float(np.abs(v).max())
    r = ((2 / math.pi * math.log(n_pts) + 1)
         * (own + target.ulps * _U + _U * top)
         + 34 * _U * math.log2(2 * n) * math.sqrt(n * n_pts) * top)
    if bound + tail > claim + r:
        bound = cheb._newton_stage(e, n, grid)
    return bound + tail, r


def _certify(result: ApproxResult, target: _Target, sup=None):
    """Check the sup claim and, by `_piece_error`, the error claim on each
    valid piece as given; return ((bound, r) for each piece, the sup).
    When the series' parity is the target's ``symmetry``, the mirror image
    of a piece already bounded takes that piece's (bound, r).

    ``sup`` is max |p| over [-1, 1] as the constructor measured it, else
    `_chebops.peak` takes it; it must meet the sup claim within
    `_chebops.values`' rounding ((2 pi + 1) d + d + 1) u ||c||_1 at one
    point.  Each error bound must meet the claim within its rounding term
    r, which leaves the error within claim + 2 r.
    """
    c = result.cheb.cheb_coeffs
    c = c if np.any(c.imag) else c.real  # NaN counts as nonzero
    d = len(c) - 1
    own = ((2 * math.pi + 1) * d + d + 1) * _U * float(np.abs(c).sum())
    sup = cheb.peak(c) if sup is None else sup
    if not sup <= result.claimed_sup_bound + own:  # NaN fails too
        raise NumericalFailure(
            f"{result.label}: sup {sup:.3e} exceeds claimed "
            f"{result.claimed_sup_bound:.3e}")
    # when p has the target's symmetry, p(-x) - f(-x) = +-(p(x) - f(x))
    # exactly, so a piece's mirror [-hi, -lo] takes its (bound, r)
    mirrored = target.symmetry != "none" and target.symmetry == result.parity
    seen, pieces = {}, []
    for lo, hi in result.valid_domain:
        lo, hi = float(lo), float(hi)
        mirror = seen.get((-hi, -lo)) if mirrored else None
        seen[lo, hi] = mirror or _piece_error(c, own, target, lo, hi,
                                              result.claimed_error)
        pieces.append(seen[lo, hi])
    for (lo, hi), (bound, r) in zip(result.valid_domain, pieces):
        if not bound <= result.claimed_error + r:
            raise NumericalFailure(
                f"{result.label}: error bound {bound:.3e} on "
                f"[{lo:g}, {hi:g}] exceeds claimed "
                f"{result.claimed_error:.3e}")
    return pieces, sup


def _certified(coeffs, parity, target: _Target, claimed_sup_bound: float,
               claimed_error: float, valid_domain, label: str,
               max_degree: int, sup=None) -> ApproxResult:
    """The one return path of every constructor: the series of ``coeffs``
    (``parity`` None infers it; NumericalFailure if one is not finite),
    refused with DegreeOverflow above ``max_degree``, then certified by
    `_certify` against ``target``, with ``sup`` its max |p| if measured."""
    if not np.all(np.isfinite(coeffs)):
        raise NumericalFailure(f"{label}: non-finite coefficients")
    series = ChebSeries(coeffs, parity)
    if series.degree > max_degree:
        raise DegreeOverflow(
            f"{label}: degree {series.degree} > cap {max_degree}")
    result = ApproxResult(series, claimed_sup_bound, claimed_error,
                          tuple(valid_domain), label)
    _certify(result, target, sup)
    return result


# ----------------------------------------------------------------------
# constructor memo

_MEMO: dict = {}
_MEMO_MAX = 128


def _read_only(value):
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, tuple):
        for v in value:
            _read_only(v)
    return value


def _memo(fn):
    """Memoize a constructor on its bound arguments, defaults applied, in
    the one bounded dict ``_MEMO`` (oldest entry out first).  Results are
    read-only and shared; an exception is never stored."""
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def memoized(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        key = (fn.__module__, fn.__qualname__) + tuple(
            (type(v), v) for v in bound.arguments.values())
        hit = _MEMO.get(key)
        if hit is not None:
            return hit
        out = _read_only(fn(*args, **kwargs))
        if len(_MEMO) >= _MEMO_MAX:
            _MEMO.pop(next(iter(_MEMO)))
        _MEMO[key] = out
        return out

    return memoized


def _to_peak(coeffs, top):
    """``coeffs`` scaled down to `_chebops.peak` ``top`` if above it: top is
    1 - b/4 for a target of error budget b, so a series within b/3 of a
    function bounded by 1 moves by at most 7 b/12, to within 11 b/12.  Its
    peak is then at most top, the sup its constructor hands the
    certificate; read again it may exceed top by rounding (2.0e-15 on 116
    of 400 random trig builds), which the certificate's rounding term and
    the phase gate's comparison with 1 absorb."""
    peak = cheb.peak(coeffs)
    return coeffs * (top / peak) if peak > top else coeffs


def _cut(coeffs, budget):
    """The shortest head of ``coeffs`` dropping a tail of 1-norm <= budget."""
    tail = np.cumsum(np.abs(coeffs[::-1]))[::-1]
    keep = np.flatnonzero(tail > budget)
    return coeffs[: int(keep[-1]) + 1 if len(keep) else 1]


# ----------------------------------------------------------------------
# minimax fits: sign, rectangle and bounded 1/x


_EXCHANGE_STEPS = 30  # exchanges a degree gets before it counts as failed
_GRID_PER_DEGREE = 16  # angle-grid points per degree an exchange works on


def _equilibrium(bands):
    """(cumulative mass, s) on a fine grid of the disjoint ascending
    intervals ``bands``, for the equilibrium measure of their union, which
    the extrema of best fits approach (Ransford, Potential Theory in the
    Complex Plane, 1995).  Its density is |P(s)| / (pi sqrt|Q(s)|), Q the
    product of the s - e over all ends e and P monic with one root in each
    gap, fixed by a zero integral over every gap.  On each interval
    s = mid - half cos(phi) takes the ends' square roots out; gap
    integrals by the 32-point midpoint rule in phi, the measure by
    trapezoids on 257 points of each interval."""
    ends = np.ravel(bands)

    def on(lo, hi, phi):
        # s(phi) and 1/sqrt|Q(s)| without the factors of lo and hi
        s = (lo + hi) / 2 - (hi - lo) / 2 * np.cos(phi)
        rest = ends[(ends != lo) & (ends != hi)]
        return s, 1.0 / np.sqrt(np.abs(np.subtract.outer(s, rest)).prod(1))

    mid = (np.arange(32) + 0.5) * np.pi / 32
    gaps = [on(lo, hi, mid) for lo, hi in zip(ends[1:-1:2], ends[2::2])]
    g = len(gaps)
    lower = np.zeros(0)
    if g:
        lower = np.linalg.solve(
            [[np.mean(s ** i * w) for i in range(g)] for s, w in gaps],
            [-np.mean(s ** g * w) for s, w in gaps])
    points, mass, total = [], [], 0.0
    for lo, hi in bands:
        s, w = on(lo, hi, np.linspace(0.0, np.pi, 257))
        density = np.abs(np.polynomial.polynomial.polyval(
            s, np.append(lower, 1.0))) * w
        mass.append(total + np.concatenate(
            [[0.0], np.cumsum(density[1:] + density[:-1])]))
        total = mass[-1][-1]
        points.append(s)
    return np.concatenate(mass), np.concatenate(points)


@dataclasses.dataclass
class _FitPoints:
    """The points an exchange checks at angle-grid size n, ascending:
    x_j = cos(pi j / n) inside the pieces, and the piece ends."""

    x: np.ndarray
    theta: np.ndarray       # arccos x
    f: np.ndarray           # target(x)
    w: np.ndarray           # weight(x)
    n: int
    grid_j: np.ndarray      # grid index of each grid point ...
    grid_at: np.ndarray     # ... and its position in x
    end_at: np.ndarray      # positions of the piece ends in x

    def values(self, coeffs, odd):
        """p = sum_k c_k T_k at x: one DCT-I for the grid points, the
        cosine sums for the ends.  An even p is sum_k c_2k cos(2 k theta),
        whose DCT-I of size n/2 lands on the grid of x >= 0."""
        out = np.empty(len(self.x))
        out[self.grid_at] = (cheb.dct1_values(coeffs, self.n) if odd else
                             cheb.dct1_values(coeffs[::2], self.n // 2)
                             )[self.grid_j]
        # the ends' angles are known: cos(k theta) needs no arccos
        out[self.end_at] = np.cos(np.multiply.outer(
            self.theta[self.end_at], np.arange(len(coeffs)))) @ coeffs
        return out

    def nearest(self, want):
        """Indices of the points nearest to the ascending ``want``, or None
        when two share one."""
        at = np.searchsorted(self.x[1:-1], want) + 1  # in [1, len - 1]
        at -= want - self.x[at - 1] < self.x[at] - want
        return None if np.any(np.diff(at) <= 0) else at


def _fit_points(pieces, target, weight, odd, n):
    """`_FitPoints` of angle-grid size n on the pieces (ascending, each
    inside [0, 1]).  An odd error vanishes at 0, so odd fits leave x = 0
    out."""
    theta, grid_j = [], []
    for lo, hi in pieces:
        # the grid angles strictly inside (acos hi, acos lo), then the ends
        top, bottom = math.acos(lo), math.acos(hi)
        j = np.arange(math.floor(n * top / math.pi),
                      math.ceil(n * bottom / math.pi) - 1, -1)
        j = j[(np.pi * j / n < top) & (np.pi * j / n > bottom)]
        theta += [[top], np.pi * j / n, [bottom]]
        grid_j += [[-1], j, [-1]]
    theta, grid_j = np.concatenate(theta), np.concatenate(grid_j)
    # one point where two pieces meet, none at x = 0 when odd
    keep = np.concatenate([[True], theta[1:] != theta[:-1]])
    if odd:
        keep &= theta < math.pi / 2
    theta, grid_j = theta[keep], grid_j[keep].astype(int)
    x = np.cos(theta)
    return _FitPoints(x, theta, np.asarray(target(x), float),
                      np.asarray(weight(x), float), n, grid_j[grid_j >= 0],
                      np.flatnonzero(grid_j >= 0), np.flatnonzero(grid_j < 0))


def _alternant(e, level, ref, k):
    """The next reference: of the points with |e| >= level (the old
    reference always among them), the largest |e| in each run of one sign;
    then, down to k points, the smallest dropped, at an end alone and
    inside with the smaller of its neighbours, which it left of one sign
    side by side.  None when fewer than k runs remain."""
    ae = np.abs(e)
    keep = ae >= level
    keep[ref] = True
    idx = np.flatnonzero(keep)
    pos = e[idx] >= 0
    new_run = np.concatenate([[True], pos[1:] != pos[:-1]])
    run = np.cumsum(new_run) - 1
    top = np.maximum.reduceat(ae[idx], np.flatnonzero(new_run))
    hit = np.flatnonzero(ae[idx] == top[run])
    best = idx[hit[np.concatenate([[True], np.diff(run[hit]) > 0])]]
    if len(best) < k:
        return None
    best = list(best)
    while len(best) > k:
        j = min(range(len(best)), key=lambda i: ae[best[i]])
        if 0 < j < len(best) - 1:
            if len(best) - k == 1:
                j = 0 if ae[best[0]] < ae[best[-1]] else -1
            else:
                del best[j]
                j = j if ae[best[j]] < ae[best[j - 1]] else j - 1
        del best[j]
    return np.array(best)


def _exchange(m, grid, start, odd, aim):
    """Remez exchange for the best p = sum_{k<m} c_k T_{2k+odd} in the
    weighted error w (f - p) on ``grid(n)``, the `_FitPoints` of angle-grid
    size n >= max(512, 16 degree), from the points nearest to the m + 1
    ascending x of ``start``.  Each step solves the m + 1
    reference equations w (f - p) = +-h by one dense solve; |h| bounds the
    best error from below (de la Vallee Poussin), and max |w (f - p)| over
    the points from above.  A max within ``aim`` is taken again on the
    grid of size 2n, where a peak between the points of n shows, and the
    exchange goes on there if it is not.  Returns (coefficients or None,
    |h|, max, the last reference's x): the coefficients once that max is
    within ``aim``, None once |h| exceeds it, the two agree within 0.1%,
    or the steps run out."""
    orders = 2 * np.arange(m) + odd
    alternate = (-1.0) ** np.arange(m + 1)
    n = 1 << (max(512, _GRID_PER_DEGREE * int(orders[-1])) - 1).bit_length()
    # a piece short in angle can hold fewer grid points than the start
    # puts in it: refine until each start point has one of its own
    ref = grid(n).nearest(start)
    while ref is None and n < 1 << 18:
        n *= 2
        ref = grid(n).nearest(start)
    pts = grid(n)
    if ref is None:
        ref = np.linspace(0, len(pts.x) - 1, m + 1).round().astype(int)
    full = np.zeros(orders[-1] + 1)
    worst = math.inf
    for _ in range(_EXCHANGE_STEPS):
        rows = np.empty((m + 1, m + 1))
        rows[:, :m] = np.cos(np.multiply.outer(pts.theta[ref], orders))
        rows[:, m] = alternate / pts.w[ref]
        sol = np.linalg.solve(rows, pts.f[ref])
        level = abs(sol[m])
        if level > aim:
            break
        full[orders] = sol[:m]
        e = pts.w * (pts.f - pts.values(full, odd))
        worst = float(np.abs(e).max())
        if worst <= aim and pts.n == n:
            x = pts.x[ref]
            pts = grid(2 * n)
            ref = pts.nearest(x)  # the points of n are points of 2n
            e = pts.w * (pts.f - pts.values(full, odd))
            worst = float(np.abs(e).max())
        if worst <= aim:
            return full, level, worst, pts.x[ref]
        if worst - level <= 1e-3 * worst:
            break
        nxt = _alternant(e, level, ref, m + 1)
        if nxt is None:
            break
        ref = nxt
    return None, level, worst, pts.x[ref]


def _minimax(pieces, target, parity, aim, max_degree, weight=None):
    """Chebyshev coefficients of the polynomial of least degree, of the
    given parity, whose weighted error weight(x) (target(x) - p(x)) is
    within ``aim`` on each piece [lo, hi] of [0, 1] (and so, by parity, on
    its mirror image); ``weight`` defaults to 1.

    Each degree is tried by `_exchange`, whose points are the angle grid
    x_j = cos(pi j / n), n >= 16 degree, on the pieces plus their ends,
    with p evaluated by DCT-I: no matrix of grid by basis, so memory is
    O(n) plus the (m + 1)^2 reference system of basis size m.  The search
    starts from the asymptotic estimate of the degree for sign with the
    narrowest gap between pieces (a piece of weight below 1 counts as
    one), steps by its rate from each tried degree's error estimate until
    one degree fails and one meets ``aim``, then bisects between them.
    A degree fails as soon as its level |h| is above ``aim``, and one just
    below a tried degree starts from that degree's reference, so it often
    fails on its first solve.  The search never tries a degree above
    ``max_degree``, and raises DegreeOverflow when that degree fails.

    Sign, rectangle and the negative powers call it with aim eps/3 and
    scale the fit by `_to_peak` (the rectangle's p - 1/2 to 1/2 - eps/4).
    """
    odd = int(parity == "odd")
    pieces = sorted((float(lo), float(hi)) for lo, hi in pieces if lo < hi)
    if not pieces:
        return np.zeros(1 + odd)
    weight = weight or np.ones_like
    m_cap = (max_degree - odd) // 2 + 1  # basis size at the cap
    if m_cap < 1:
        raise DegreeOverflow(f"no {parity} polynomial within cap {max_degree}")
    spans, bands = [], []  # merged where they touch: all, of weight >= 1
    for lo, hi in pieces:
        heavy = weight(np.array([(lo + hi) / 2]))[0] >= 1.0
        for merged in (spans, bands) if heavy else (spans,):
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
            else:
                merged.append((lo, hi))
    # the estimate counts the pieces of weight below 1 as gaps
    bands = bands or spans
    # half-widths in angle of the gaps, the one around 0 included
    gaps = [(math.acos(hi) - math.acos(lo)) / 2
            for (_, hi), (lo, _) in zip(bands, bands[1:])]
    if bands[0][0] > 0:
        gaps.append(math.asin(bands[0][0]))
    # the best error for sign with gap half-width w behaves like
    # e^{-2 w m} / sqrt(pi w m), m the basis size (Eremenko and Yuditskii)
    w = min(gaps) if gaps else 0.125
    rate, m = 2.0 * w, 1.0
    for _ in range(3):
        m = max((math.log(1.0 / aim) - math.log(math.pi * w * m) / 2) / rate,
                1.0)
    m = min(math.ceil(m), m_cap)
    measure = _equilibrium(np.square(spans))
    points, tried = {}, {}

    def grid(n):
        if n not in points:
            points[n] = _fit_points(pieces, target, weight, odd, n)
        return points[n]

    lo, hi = 0, m_cap + 1  # largest failed, smallest met basis size
    while True:
        degree = 2 * m - 2 + odd
        # one or two sizes below a tried one, start from the lowest m + 1
        # points of its last reference: by de la Vallee Poussin their level
        # often shows at once that this degree cannot reach aim.  Else
        # start from the i/m quantiles of the equilibrium measure, both
        # ends of the union among them, as in a best fit's reference.
        above = [k for k in (m + 1, m + 2) if k in tried]
        if above:
            start = tried[above[0]][3][: m + 1]
        else:
            start = np.sqrt(np.interp(np.arange(m + 1) / m * measure[0][-1],
                                      *measure))
        coeffs, level, worst, _ = tried[m] = _exchange(m, grid, start, odd,
                                                       aim)
        if coeffs is None:
            lo = m
            if m == m_cap:
                raise DegreeOverflow(
                    f"needs degree more than {degree} > cap {max_degree} "
                    f"(error at least {level:.3e} above {aim:.3e} there)")
        else:
            hi = m
        if hi - lo == 1:
            return tried[hi][0]
        if lo and hi <= m_cap:
            m = (lo + hi) // 2
            continue
        # no bracket yet: step by the rate from the best error's estimate,
        # the geometric mean of the level and the max (the level alone when
        # no max was taken), rounded up (the rate is a lower estimate)
        best = level if worst == math.inf else math.sqrt(level * worst)
        m += math.ceil(math.log(max(best, 1e-300) / aim) / rate)
        m = min(max(m, lo + 1), hi - 1)


@_memo
def approx_sign(delta: float, eps: float,
                max_degree: int = LIB_MAX_DEGREE) -> ApproxResult:
    """Odd real polynomial within ``eps`` of sign(x) on [-1, 1] outside
    (-delta, delta), bounded by 1 on [-1, 1]; delta > 1 is refused.

    `_minimax` fits 1 on [delta, 1] (x at delta = 1, exact on the valid
    domain +-1) within eps/3, and `_to_peak` scales the fit to 1 - eps/4.
    A best fit's extrema lie on the fit interval, so its peak is within
    eps/3 of 1 and the scale moves it by at most 7 eps/12: the error is at
    most eps/3 + 7 eps/12 = 11 eps/12.
    """
    if not (delta > 0 and 0 < eps < 0.5):
        raise ValueError("need delta > 0 and eps in (0, 1/2)")
    if delta > 1:
        raise ValueError(f"delta {delta:g} > 1 leaves the valid domain "
                         "[-1, -delta] U [delta, 1] empty")
    fit = (np.array([0.0, 1.0]) if delta == 1 else
           _minimax([(delta, 1.0)], np.ones_like, "odd", eps / 3.0,
                    max_degree))
    top = 1.0 - eps / 4.0
    return _certified(_to_peak(fit, top), "odd",
                      _Target(np.sign, symmetry="odd"), 1.0, eps,
                      ((-1.0, -delta), (delta, 1.0)),
                      f"sign(delta={delta:g}, eps={eps:g})", max_degree, top)


@_memo
def approx_rect(t: float, delta_p: float, eps_p: float,
                max_degree: int = LIB_MAX_DEGREE) -> ApproxResult:
    """Even polynomial within eps' of the rectangle, 1 on |x| <= t - delta'
    and 0 on t + delta' <= |x| <= 1, and inside [eps'/4, 1 - eps'/4] on
    all of [-1, 1].

    `_minimax` fits the rectangle on [0, t - delta'] and [t + delta', 1]
    (either left out when empty) within eps'/3 as p; the result is
    1/2 + (p - 1/2) (1/2 - eps'/4) / peak(p - 1/2).  The peak of p - 1/2
    is within eps'/3 of 1/2, so the map moves p by at most 7 eps'/12: the
    error is at most 11 eps'/12, and 1 - rect is a high-pass target
    within [eps'/4, 1 - eps'/4] as well.
    """
    if not (0 < delta_p < 0.5 and 0 < eps_p < 0.5 and -1 <= t <= 1):
        raise ValueError("need delta', eps' in (0,1/2) and t in [-1,1]")

    def target(x):
        x = np.asarray(x, float)
        return np.where(np.abs(x) <= t, 1.0, 0.0)

    pieces = [(0.0, t - delta_p), (max(t + delta_p, 0.0), 1.0)]
    fit = cheb.add(_minimax(pieces, target, "even", eps_p / 3.0, max_degree),
                   np.array([-0.5]))
    coeffs = _to_peak(fit, 0.5 - eps_p / 4.0)
    coeffs[0] += 0.5
    inner = max(t - delta_p, 0.0)
    domain = [(-inner, inner)] if t - delta_p > 0 else []
    if t + delta_p < 1.0:
        domain += [(-1.0, -(t + delta_p)), (t + delta_p, 1.0)]
    return _certified(coeffs, "even", _Target(target, symmetry="even"), 1.0,
                      eps_p, domain,
                      f"rect(t={t:g}, delta'={delta_p:g}, eps'={eps_p:g})",
                      max_degree, 1.0 - eps_p / 4.0)


# ----------------------------------------------------------------------
# 1/x family


def _inverse_cheb_coeffs(kappa: float, eps: float):
    """Truncated Chebyshev series g of (1 - (1-x^2)^b)/x with
    b = ceil(kappa^2 log(kappa/eps)), J = ceil(sqrt(b log(4b/eps)))."""
    b = int(math.ceil(kappa ** 2 * math.log(kappa / eps)))
    J = int(math.ceil(math.sqrt(b * math.log(4.0 * b / eps))))
    # r_i = binom(2b, b+i) / 4^b via normalized recurrence
    r = np.zeros(b + 1)
    r[0] = math.exp(math.lgamma(2 * b + 1) - 2 * math.lgamma(b + 1)
                    - 2 * b * math.log(2))
    for i in range(1, b + 1):
        r[i] = r[i - 1] * (b - i + 1) / (b + i)
    suffix = np.concatenate([np.cumsum(r[::-1])[::-1], [0.0]])  # suffix[i] = sum_{j>=i} r_j
    coeffs = np.zeros(2 * min(J, b) + 2)
    for j in range(min(J, b) + 1):
        coeffs[2 * j + 1] = 4.0 * (-1) ** j * suffix[j + 1]
    return coeffs, b, J


def _power_fit(c: float, delta: float, eps: float, parity: str,
               max_degree: int) -> np.ndarray:
    """Coefficients of a fit of the given parity within eps/3 of
    (delta^c / 2) x^-c on [delta, 1], bounded by 1 - eps/4 on [-1, 1].

    `_minimax` fits the target on [delta, 1] and, at weight eps/0.3, so
    within 0.1, a bridge on [0, delta]: with y = x/delta and k = min(c, 3),
    (k + 3)/4 y - (k + 1)/4 y^3 (odd) or a + b y^2 + e y^4 with
    a = min(1/2 + k/8, 3/4) (even), of value 1/2 and slope -k/2 in y at
    y = 1 (the target's for c <= 3) and peak below 0.8.  `_to_peak`
    scales a fit peaking above 1 - eps/4 down to it; at these weights the
    peak stays below about 0.9.
    """
    if delta ** 3 == 0:
        raise ValueError("the bridge's delta^3 underflows to 0")
    scale, k = delta ** c / 2.0, min(c, 3.0)
    if parity == "odd":
        def bridge(x):
            return (k + 3) / 4 * x / delta - (k + 1) / 4 * x ** 3 / delta ** 3
    else:
        a = min(0.5 + k / 8, 0.75)
        e = a - 0.5 - k / 4
        b = 0.5 - a - e

        def bridge(x):
            y2 = (x / delta) ** 2
            return a + (b + e * y2) * y2

    def target(x):
        return np.where(x < delta, bridge(x),
                        scale / np.maximum(x, delta) ** c)

    fit = _minimax([(0.0, delta), (delta, 1.0)], target, parity, eps / 3.0,
                   max_degree, lambda x: np.where(x < delta, eps / 0.3, 1.0))
    return _to_peak(fit, 1.0 - eps / 4.0)


@_memo
def approx_inverse(kappa: float, eps: float, bounded: bool = False,
                   max_degree: int = LIB_MAX_DEGREE) -> ApproxResult:
    """Odd approximation of 1/x away from the origin.

    Plain mode returns the truncated-series polynomial close to 1/x on
    [-1,1] \\ (-1/kappa, 1/kappa), claiming its `_chebops.peak` as sup
    bound.  With ``bounded`` it is `_power_fit` at c = 1: within ``eps``
    of delta/(2x) (delta = 1/kappa) on the same set and bounded by
    1 - eps/4 on [-1, 1], its bridge x/delta - x^3/(2 delta^3) of peak
    0.544.
    """
    if not (kappa > 1 and 0 < eps < 0.5):
        raise ValueError("need kappa > 1 and eps in (0, 1/2)")
    delta = 1.0 / kappa
    if not bounded:
        coeffs, b, J = _inverse_cheb_coeffs(kappa, eps)
        peak = cheb.peak(coeffs)
        return _certified(coeffs, "odd", _Target(
            lambda x: 1.0 / x, ellipse=_power_ellipse(1.0, 1.0), ulps=kappa,
            symmetry="odd"),
            peak, eps, ((-1.0, -delta), (delta, 1.0)),
            f"inverse(kappa={kappa:g}, eps={eps:g})", max_degree, peak)
    return _certified(_power_fit(1.0, delta, eps, "odd", max_degree), "odd",
                      _Target(lambda x: delta / (2.0 * x),
                              ellipse=_power_ellipse(delta / 2.0, 1.0),
                              ulps=1.0, symmetry="odd"), 1.0, eps,
                      ((-1.0, -delta), (delta, 1.0)),
                      f"inverse_bounded(kappa={kappa:g}, eps={eps:g})",
                      max_degree, 1.0 - eps / 4.0)


# ----------------------------------------------------------------------
# trigonometric family (Jacobi-Anger)


def solve_r(t: float, eps: float) -> float:
    """Unique r in (t, inf) with (t/r)^r = eps, to 1e-12 relative."""
    if not (t > 0 and 0 < eps < 1):
        raise ValueError("need t > 0 and eps in (0, 1)")
    L = math.log(1.0 / eps)

    def g(r):
        return r * math.log(r / t) - L

    hi = min(math.exp(q) * t + L / q for q in (1.0 / 3.0, 0.5, 1.0, 2.0))
    hi = max(hi, t * (1 + 1e-12))
    lo = t
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * hi:
            break
    r = 0.5 * (lo + hi)
    for _ in range(4):  # Newton polish on g
        dg = math.log(r / t) + 1.0
        if dg <= 0:
            break
        r -= g(r) / dg
    return r


def _miller(orders: int, t: float, start: int, sign: float,
            step: int) -> np.ndarray:
    """f_0 .. f_orders, f_k proportional to J_k(t) (sign -1, step 2) or
    I_k(t) (sign 1, step 1), by one downward Miller pass of
    f_{m-1} = (2m/t) f_m + sign f_{m+1} from m = start, divided by f_0 plus
    twice the f_k whose order is a positive multiple of step:
    J_0 + 2 sum_k J_2k = 1 and I_0 + 2 sum_k I_k = e^t."""
    out = np.zeros(orders + 1)
    fp1, f, norm = 0.0, 1e-300, 0.0
    for m in range(start, 0, -1):
        fp1, f = f, (2.0 * m / t) * f + sign * fp1
        if abs(f) > 1e250:  # rescale to dodge overflow
            f *= 1e-250
            fp1 *= 1e-250
            norm *= 1e-250
            out *= 1e-250
        idx = m - 1
        if idx <= orders:
            out[idx] = f
        if idx % step == 0:
            norm += f if idx == 0 else 2.0 * f
    return out / norm


def bessel_j(orders: int, t: float) -> np.ndarray:
    """J_0(t) .. J_orders(t) by one downward Miller pass (`_miller`)."""
    if t == 0:
        out = np.zeros(orders + 1)
        out[0] = 1.0
        return out
    m_start = int(orders + 2 + math.ceil(1.5 * t
                                         + 20 * math.sqrt(max(orders, t))))
    return _miller(orders, t, m_start + m_start % 2, -1.0, 2)


@_memo
def approx_trig(t: float, eps: float,
                max_degree: int = LIB_MAX_DEGREE):
    """(cos, sin) pair within eps of cos(t x) and sin(t x) on [-1, 1]: their
    Jacobi-Anger series, each `_cut` at eps/3 and scaled by `_to_peak` to
    peak at most 1 - eps/4, so within 11 eps/12 as sign is.  Either has a
    root between neighbouring x where its target is +-1, so degree at least
    2 floor(|t|/pi) - 1: a t needing more than the cap is refused before
    the Bessel pass, which ends at k >= |t| with (|t|/2)^k / k! < e^-44."""
    if t == 0 or not (0 < eps < 1 / math.e):
        raise ValueError("need t != 0 and eps in (0, 1/e)")
    low = 2 * math.floor(abs(t) / math.pi) - 1
    if low > max_degree:
        raise DegreeOverflow(f"degree at least {low} > cap {max_degree}")
    orders = math.ceil(abs(t))
    while orders * math.log(abs(t) / 2.0) - math.lgamma(orders + 1) >= -44:
        orders += 1
    # e^{itx} = sum_k i^k J_k(t) T_k(x), the k > 0 terms twice: cos(t x)
    # takes the even k, sin(t x) the odd, and J_k(-t) = (-1)^k J_k(t)
    k = np.arange(orders + 1)
    ja = np.where(k, 2.0, 1.0) * bessel_j(orders, abs(t)) * (-1.0) ** (k // 2)
    ja[1::2] *= math.copysign(1.0, t)
    # |cos z|, |sin z| <= cosh(Im z); t x rounds by up to |t| u
    top = 1.0 - eps / 4.0
    return tuple(_certified(
        _to_peak(_cut(np.where(k % 2 == odd, ja, 0.0), eps / 3.0), top),
        parity, _Target(lambda x, f=f: f(t * x),
                        ellipse=lambda m, a, b: np.cosh(abs(t) * b),
                        ulps=2.0 + abs(t), symmetry=parity), 1.0, eps,
        ((-1.0, 1.0),),
        f"{f.__name__}(t={t:g}, eps={eps:g})", max_degree, top)
        for odd, parity, f in ((0, "even", np.cos), (1, "odd", np.sin)))


# ----------------------------------------------------------------------
# named constructions


def _log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0..n."""
    return np.array([math.lgamma(k + 1) for k in range(n + 1)])


def _monomial_cheb(s: int, d: int) -> np.ndarray:
    """Truncated Chebyshev expansion of x^s keeping degrees <= d."""
    out = np.zeros(min(d, s) + 1)
    # x^s = 2^-s sum_k C(s,k) T_{s-2k}, T_{-m} = T_m
    ks = np.arange(s + 1)
    log_fact = _log_factorials(s)
    logw = log_fact[s] - log_fact[ks] - log_fact[s - ks] - s * math.log(2)
    w = np.exp(logw)
    for k in range(s + 1):
        m = abs(s - 2 * k)
        if m <= d:
            out[m] += w[k]
    return out


@_memo
def approx_monomial(s: int, d: int,
                    max_degree: int = LIB_MAX_DEGREE) -> ApproxResult:
    """Degree-d approximation of x^s with error <= 2 e^{-d^2/(2s)}."""
    if not (s >= 1 and d >= 0):
        raise ValueError("need s >= 1 and d >= 0")
    return _certified(_monomial_cheb(s, d), "even" if s % 2 == 0 else "odd",
                      _Target(lambda x: np.asarray(x, float) ** s, s, ulps=2.0),
                      1.0,
                      2.0 * math.exp(-d * d / (2.0 * s)), ((-1.0, 1.0),),
                      f"monomial(s={s}, d={d})", max_degree)


@_memo
def approx_exp(beta: float, eps: float,
               max_degree: int = LIB_MAX_DEGREE) -> ApproxResult:
    """Polynomial within eps of exp(-beta (1 - x)) on [-1, 1], below 1 in
    magnitude: the series e^-beta (I_0(beta) + 2 sum_k I_k(beta) T_k(x)),
    whose coefficients are positive and sum to 1, cut at the least degree
    whose dropped ones sum to at most eps/2, the error at x = 1.

    The coefficients are the law of |X - Y|, X and Y Poisson(beta/2). Its
    mass past m is at most beta^m / m! (that of X + Y), and below e^-44
    from m = sqrt(90 beta) + 45 on (Chernoff): one `_miller` pass starts
    at the lesser m.  Its point masses are at most
    e^-beta I_0(beta) <= sqrt(pi / (8 beta)), so keeping 3/4 of it needs
    degree (3/4 sqrt(8 beta / pi) - 1)/2: a beta that needs more than the
    cap is refused at once, as is one in (0, 1e-300), where 2/beta
    overflows."""
    if not ((beta == 0 or 1e-300 <= beta < math.inf) and 0 < eps <= 0.5):
        raise ValueError("need beta 0 or in [1e-300, inf), and eps in "
                         "(0, 1/2]")

    # |exp(-beta (1 - z))| = exp(beta (Re z - 1)); 1 - x and beta (1 - x)
    # round, moving the exponent by up to 4 beta u
    target = _Target(lambda x: np.exp(-beta * (1.0 - np.asarray(x, float))),
                     ellipse=lambda m, a, b: np.exp(beta * (m + a - 1.0)),
                     ulps=2.0 + 5.0 * beta)
    label = f"exp(beta={beta:g}, eps={eps:g})"
    if beta == 0:
        return _certified(np.array([1.0]), "even", target, 1.0, eps,
                          ((-1.0, 1.0),), "exp(beta=0)", max_degree)
    low = math.ceil((0.75 * math.sqrt(8.0 * beta / math.pi) - 1.0) / 2.0)
    if low > max_degree:
        raise DegreeOverflow(f"{label}: degree at least {low} > cap "
                             f"{max_degree}")
    start = math.ceil(math.sqrt(90.0 * beta) + 45.0)
    while start > 1 and ((start - 1) * math.log(beta)
                         - math.lgamma(start) < -44.0):
        start -= 1
    coeffs = _miller(start - 1, beta, start, 1.0, 1)
    coeffs[1:] *= 2.0
    return _certified(_cut(coeffs, eps / 2.0), None, target, 1.0, eps,
                      ((-1.0, 1.0),), label, max_degree)


def _one_sign_series(a0: float, ratio: Callable, y: Callable, odd: int,
                     y_max: float, budget: float,
                     max_degree: int) -> np.ndarray:
    """T_j(x) coefficients of x^odd * sum_{k<=L} a_k y(x)^k, where
    a_{k+1} = ratio(k) a_k and ``y`` maps x to x^2 or 1 - x^2.

    L is the first count at which the geometric bound on the dropped
    tail where y <= y_max, |a_{L+1}| y_max^(L+1) / (1 - rho y_max) with
    rho = max(1, |ratio(L+1)|), is within budget/2.  The bound needs
    |ratio(j)| <= max(1, |ratio(k)|) for every j >= k: ratios at most 1
    in magnitude, or nonincreasing.  The sum is interpolated at the
    Chebyshev nodes of its degree and its trailing coefficients of
    1-norm within budget/2 are cut, so the result is within ``budget`` of
    the series where y <= y_max.  The cut can leave far fewer than the
    2L + odd degrees the sum has, so only more than 8 max_degree terms
    raise DegreeOverflow.
    """
    terms = [a0]
    while True:
        k = len(terms) - 1
        nxt = ratio(k) * terms[-1]
        rho_y = max(1.0, abs(ratio(k + 1))) * y_max
        bound = abs(nxt) * y_max ** (k + 1)
        if rho_y < 1 and bound <= budget / 2 * (1 - rho_y):
            break
        if k >= 8 * max_degree:
            raise DegreeOverflow(f"series needs more than {k} terms "
                                 f"> 8 times the cap {max_degree}")
        terms.append(nxt)
    deg = 2 * k + odd
    nodes = cheb.cheb_nodes(deg + 1)
    ys = y(nodes)
    acc = np.full(deg + 1, terms[-1])
    for a in terms[-2::-1]:
        acc = acc * ys + a
    coeffs = cheb.fit(nodes ** odd * acc, deg)
    coeffs[1 - odd::2] = 0.0
    return _cut(coeffs, budget / 2)


@_memo
def approx_arcsin(delta: float, eps: float,
                  max_degree: int = LIB_MAX_DEGREE) -> ApproxResult:
    """Odd polynomial within eps of (2/pi) arcsin(x) on [-1+delta, 1-delta],
    bounded by 1 - eps/4 on [-1, 1].

    `_one_sign_series` truncates (2/pi) x sum_k binom(2k, k) x^{2k} /
    (4^k (2k + 1)) within eps/2 for x^2 <= (1 - delta)^2.  Its ratios
    (2k + 1)^2 / ((2k + 2)(2k + 3)) are below 1, as the tail bound
    needs; its terms are positive and sum to 1 at x = 1, so only the
    coefficient cut (at most eps/4) can lift it above 1.  `_to_peak` then
    scales it to peak at most 1 - eps/4, which moves it by at most eps/2:
    the error is at most eps.
    """
    if not (0 < delta <= 0.5 and 0 < eps <= 0.5):
        raise ValueError("need delta, eps in (0, 1/2]")

    # arcsin's Taylor coefficients are positive, so |arcsin z| <= arcsin r
    # on |z| <= r <= 1, and |z| <= |m| + a on the ellipse (NaN past 1)
    target = _Target(lambda x: 2.0 / math.pi * np.arcsin(np.clip(x, -1, 1)),
                     ellipse=lambda m, a, b: 2.0 / math.pi
                     * np.arcsin(abs(m) + a), ulps=3.0)
    coeffs = _one_sign_series(
        2.0 / math.pi,
        lambda k: (2 * k + 1) ** 2 / ((2 * k + 2) * (2 * k + 3)),
        np.square, 1, (1.0 - delta) ** 2, eps / 2.0, max_degree)
    top = 1.0 - eps / 4.0
    return _certified(_to_peak(coeffs, top), "odd", target, 1.0, eps,
                      ((-1.0 + delta, 1.0 - delta),),
                      f"arcsin(delta={delta:g}, eps={eps:g})", max_degree, top)


@_memo
def approx_neg_power(c: float, delta: float, eps: float, parity: str = "odd",
                     max_degree: int = LIB_MAX_DEGREE) -> ApproxResult:
    """Polynomial of chosen parity within eps of (delta^c / 2) x^{-c} on
    [delta, 1], bounded by 1 - eps/4 on [-1, 1]: one weighted fit,
    `_power_fit`, as bounded 1/x is."""
    if not (c > 0 and 0 < delta <= 0.5 and 0 < eps <= 0.5):
        raise ValueError("need c > 0 and delta, eps in (0, 1/2]")
    if parity not in ("even", "odd"):
        raise ValueError("parity must be even or odd")
    scale = delta ** c / 2.0
    if scale == 0:
        raise ValueError("delta^c underflows to 0")
    return _certified(_power_fit(c, delta, eps, parity, max_degree), parity,
                      _Target(lambda x: scale * np.asarray(x, float) ** (-c),
                              ellipse=_power_ellipse(scale, c), ulps=2.0),
                      1.0, eps, ((delta, 1.0),),
                      f"neg_power(c={c:g}, delta={delta:g}, eps={eps:g})"
                      f"[{parity}]", max_degree, 1.0 - eps / 4.0)


@_memo
def approx_window(n: int, eps: float,
                  max_degree: int = LIB_MAX_DEGREE) -> ApproxResult:
    """Normalized windowing polynomial eps * T_n(x T_{1/n}(1/eps)):
    bounded by 1 on [-1,1], equal to (+-1)^n at +-1, and below eps on
    [-lambda, lambda] with lambda = 1/T_{1/n}(1/eps)."""
    if n < 1 or not (0 < eps <= 1):
        raise ValueError("need n >= 1 and eps in (0, 1]")
    if n > max_degree:
        raise DegreeOverflow(f"degree {n} > cap {max_degree}")
    beta = math.cosh(math.acosh(1.0 / eps) / n)

    def raw(x):
        y = beta * np.asarray(x, float)
        out = np.empty_like(y)
        small = np.abs(y) <= 1.0
        out[small] = np.cos(n * np.arccos(y[small]))
        big = ~small
        out[big] = np.sign(y[big]) ** n * np.cosh(n * np.arccosh(np.abs(y[big])))
        return eps * out

    coeffs = cheb.trim(cheb.fit(raw(cheb.cheb_nodes(n + 1)), n), 1e-16)
    coeffs = cheb.enforce_parity(coeffs, "even" if n % 2 == 0 else "odd")
    lam = 1.0 / beta
    return _certified(coeffs, None,
                      _Target(lambda x: np.zeros_like(np.asarray(x, float))),
                      1.0,
                      eps, ((-lam, lam),), f"window(n={n}, eps={eps:g})",
                      max_degree)


@dataclasses.dataclass(frozen=True)
class ApproxSpec:
    """Named target plus parameters, buildable via `build`.

    Parameter ranges follow the individual constructors: gap half-widths
    and errors in (0, 1/2] where required, kappa > 1, beta > 0.
    """

    target: str
    eps: float = 1e-4
    delta: float = 0.1
    t: float = 1.0
    kappa: float = 2.0
    beta: float = 1.0
    c: float = 1.0
    s: int = 10
    d: int = 5
    n: int = 8
    parity: str = "odd"
    bounded: bool = False

    def __post_init__(self):
        if self.target in ("sign", "rect", "arcsin", "neg_power") \
                and not 0 < self.delta:
            raise ValueError("delta must be positive")
        if self.target == "inverse" and self.kappa <= 1:
            raise ValueError("kappa must exceed 1")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")


# family name -> constructor of (spec, max_degree); the one dispatch table
FAMILIES = {
    "sign": lambda s, m: approx_sign(s.delta, s.eps, m),
    "rect": lambda s, m: approx_rect(s.t, s.delta, s.eps, m),
    "inverse": lambda s, m: approx_inverse(s.kappa, s.eps, s.bounded, m),
    "cos": lambda s, m: approx_trig(s.t, s.eps, m)[0],
    "sin": lambda s, m: approx_trig(s.t, s.eps, m)[1],
    "exp": lambda s, m: approx_exp(s.beta, s.eps, m),
    "arcsin": lambda s, m: approx_arcsin(s.delta, s.eps, m),
    "neg_power": lambda s, m: approx_neg_power(s.c, s.delta, s.eps,
                                               s.parity, m),
    "monomial": lambda s, m: approx_monomial(s.s, s.d, m),
    "window": lambda s, m: approx_window(s.n, s.eps, m),
}


def build(spec: ApproxSpec, max_degree: int = LIB_MAX_DEGREE) -> ApproxResult:
    """Construct the approximation described by an ApproxSpec; a result
    above ``max_degree`` raises DegreeOverflow."""
    if spec.target not in FAMILIES:
        raise ValueError(f"unknown target {spec.target!r}")
    return FAMILIES[spec.target](spec, max_degree)
