"""Low-level Chebyshev-basis kernels shared by poly, approx and qsp.

Everything here works on bare numpy coefficient arrays (index = Chebyshev
order).  The user-facing wrappers with parity tracking live in ``poly``.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import chebyshev as npcheb


def drop_threshold(c, rel=1e-14) -> float:
    """``rel * max|c|``: coefficients at or below it count as zero."""
    return rel * max(1e-300, float(np.abs(c).max()))


def trim(c, rel=1e-14):
    """Drop trailing coefficients below ``rel * max|c|`` (keep at least one)."""
    c = np.atleast_1d(np.asarray(c))
    nz = np.nonzero(np.abs(c) > drop_threshold(c, rel))[0]
    if len(nz) == 0:
        return c[:1] * 0
    return c[: nz[-1] + 1]


def degree(c, rel=1e-14) -> int:
    return len(trim(c, rel)) - 1


def add(a, b):
    n = max(len(a), len(b))
    out = np.zeros(n, np.result_type(a, b))
    out[: len(a)] += a
    out[: len(b)] += b
    return out


def mul(a, b):
    return npcheb.chebmul(a, b)


# multiply by x: x*T_0 = T_1, x*T_n = (T_{n+1} + T_{n-1})/2; keeps the
# dtype and drops trailing exact zeros
mulx = npcheb.chebmulx


def mul_one_minus_x2(c):
    """Multiply by (1 - x^2)."""
    return add(c, -mulx(mulx(c)))


def parity_of(c, rel=1e-14) -> str:
    """'even' / 'odd' / 'none' judged against the drop threshold."""
    a = np.abs(np.atleast_1d(np.asarray(c)))
    thr = drop_threshold(a, rel)
    has_even = bool(np.any(a[0::2] > thr))
    has_odd = bool(np.any(a[1::2] > thr))
    if has_even and has_odd:
        return "none"
    if has_odd:
        return "odd"
    return "even"


def enforce_parity(c, parity):
    """Zero the coefficients excluded by ``parity`` (no-op for 'none')."""
    c = np.array(c, copy=True)
    if parity == "even":
        c[1::2] = 0
    elif parity == "odd":
        c[0::2] = 0
    return c


def cheb_nodes(n):
    """n Chebyshev points of the first kind in (-1, 1)."""
    return np.cos(np.pi * (np.arange(n) + 0.5) / n)


def fit(fn_vals_at_nodes, deg):
    """Interpolate values taken at cheb_nodes(deg+1) -> coefficients.

    A DCT-II by one length-n FFT after Makhoul's even/odd reordering:
    c_k = (2/n) Re(e^{-i pi k / 2n} W_k), W = FFT(v_0, v_2, ..., v_3, v_1).
    """
    n = deg + 1
    v = np.asarray(fn_vals_at_nodes)
    if np.iscomplexobj(v):
        return fit(v.real, deg) + 1j * fit(v.imag, deg)
    w = np.fft.fft(np.concatenate([v[0::2], v[1::2][::-1]]))
    c = (2.0 / n) * (np.exp(-0.5j * np.pi * np.arange(n) / n) * w).real
    c[0] /= 2
    return c


def dct1_values(c, n):
    """sum_k c_k T_k(cos(pi j / n)) for j = 0..n (needs len(c) <= n + 1).

    A DCT-I by one real inverse FFT of length 2n; complex series take one
    pass for each part.
    """
    c = np.asarray(c)
    if np.iscomplexobj(c):
        return dct1_values(c.real, n) + 1j * dct1_values(c.imag, n)
    full = np.zeros(n + 1)
    full[: len(c)] = c
    vals = n * np.fft.irfft(full, 2 * n)[: n + 1]
    vals += 0.5 * full[0]
    vals[0::2] += 0.5 * full[n]
    vals[1::2] -= 0.5 * full[n]
    return vals


# Up to this many points take the product, more run Clenshaw: the product
# costs ~25 ns a (point, coefficient) pair and Clenshaw ~3.5 us a
# coefficient whatever the point count, so they break even near 150
# points at every degree (one BLAS thread)
_DENSE_POINTS = 150


def values(c, x):
    """sum_k c_k T_k(x) at points x of [-1, 1], shaped c.shape[1:] +
    x.shape as `chebval` gives it (c real or complex, columns allowed).
    Up to _DENSE_POINTS points take one matrix product
    cos(outer(arccos x, k)) @ c, with no Python loop over the coefficients.
    With arccos and cos rounded to within u = 2^-53, |cos(k arccos x) -
    T_k(x)| <= (2 pi k + 1) u, so with the product's (d + 1)-term sums the
    error is about ((2 pi + 1) d + d + 1) u ||c||_1, d = len(c) - 1.  More
    points run Clenshaw (`chebval`), whose rounding grows to about
    (d + 1)^2 u ||c||_1 near +-1.  A point outside [-1, 1] (or NaN) raises
    ValueError.  Its callers are `approx._piece_error`'s piece values and
    `qsp._symmetric_phases`' node target; `peak`'s Newton steps evaluate
    in the angle instead (`_angle_values`).  Evaluations that may be asked
    for other points keep `chebval`: `ApproxResult.evaluate`,
    `check_admissible`'s rays, `complete_complex`'s root polish,
    `SignalPair.p_value` and `q_value`, `poly.evaluate` and svt's
    oracles."""
    c, x = np.asarray(c), np.asarray(x, float)
    if not np.all(np.abs(x) <= 1.0):
        raise ValueError("values needs every point in [-1, 1]")
    if x.size > _DENSE_POINTS:
        return npcheb.chebval(x, c)
    t = np.cos(np.multiply.outer(np.arccos(x.ravel()), np.arange(len(c))))
    return np.moveaxis(t @ c, 0, -1).reshape(c.shape[1:] + x.shape)


def _grid_stage(c):
    """The first stage of `peak`: (n, p at x_j = cos(pi j / n), j = 0..n,
    by one DCT-I, and an upper bound on max |p| over [-1, 1]), n the
    smallest power of two >= max(2048, 8d), d = deg p.

    Let M = |p| at its peak theta* and h(theta) = Re(conj(u) p(cos theta)),
    u the unit phase of p there: a real trigonometric polynomial of degree
    d with |h| <= M, maximal at theta*, so |h''| <= d^2 M (Bernstein).  The
    grid point nearest the peak, at most pi/(2n) away, then has |p| >= h
    >= M (1 - (pi d/n)^2/8), so M is at most max_j |p(x_j)| divided by
    that factor, which is the bound returned.
    """
    c = np.atleast_1d(np.asarray(c))
    d = len(c) - 1
    n = 1 << (max(2048, 8 * d) - 1).bit_length()
    vals = dct1_values(c, n)
    return n, vals, float(np.abs(vals).max()) / (1.0 - (np.pi * d / n) ** 2
                                                 / 8.0)


# A chunk of `_angle_values` holds at most this many table entries (1 MB)
_ANGLE_CHUNK = 1 << 16


def _angle_values(w, b, theta):
    """p, p_theta and p_thetatheta at the angles theta in [0, pi], p(theta)
    = sum_k c_k cos(k theta), from `_newton_stage`'s matrix w: the sums of
    c_k and -k^2 c_k against cos(k theta) and of -k c_k against
    sin(k theta), as rows of a (3, len(theta)) array.

    With k = qb + r, 0 <= r < b, e^{ik theta} is the product of
    e^{iqb theta} and e^{ir theta}, so a point takes about 2 sqrt(d)
    complex exponentials and d + 1 products instead of d + 1 cosines and
    sines.  Each factor's angle rounds by at most u its size (at most
    pi qb u and pi r u), libm's cos and sin by u each, and the product of
    two unit numbers by 2 sqrt(2) u, so each term is within (pi k + 6) u of
    e^{ik theta}; the table is real and imaginary parts interleaved, as w's
    rows are."""
    rows = max(1, _ANGLE_CHUNK // len(w))
    out = np.empty((len(theta), 3), w.dtype)
    wide_k, fine_k = b * np.arange(len(w) // 2 // b), np.arange(b)
    for i in range(0, len(theta), rows):
        t = theta[i:i + rows]
        wide = np.exp(1j * np.multiply.outer(t, wide_k))
        fine = np.exp(1j * np.multiply.outer(t, fine_k))
        table = wide[:, :, None] * fine[:, None, :]
        out[i:i + rows] = table.reshape(len(t), -1).view(float) @ w
    return out.T


def _newton_stage(c, n, vals) -> float:
    """The second stage of `peak`, from the first's n and grid values.  By
    `_grid_stage`'s argument, climbing the grid from the point nearest a
    peak ends at a grid-local maximum above (1 - 2 (pi d/n)^2)
    max_j |p(x_j)|.  Every such maximum, at theta = pi j / n, is refined
    by at most six Newton steps in the angle, on g(theta) =
    |p(cos theta)|^2 with step Re(conj p p_theta) / (|p_theta|^2 +
    Re(conj p p_thetatheta)), and |p| is taken after each; the largest
    value seen is returned.

    As p(cos theta) = sum_k c_k cos(k theta), p, p_theta and p_thetatheta
    are the sums of c_k, -k c_k and -k^2 c_k against cos(k theta),
    sin(k theta) and cos(k theta) (`_angle_values`): no derivative series,
    no arccos, and no clip, as every angle names a point of [-1, 1]; g is
    even about 0 and pi, so a step past either is folded back to the point
    it names.  Each term is within (pi k + 6) u of its exact value,
    u = 2^-53, so a value is within about ((pi + 1) d + 7) u ||c||_1,
    against `values`' ((2 pi + 1) d + d + 1) u ||c||_1.

    At theta0 = 0 and pi, g' = 0, so an end is a critical point and a
    Newton step in theta leaves it where it is.  Where g'' > 0 there, |p|
    rises into the interval and its maximum lies inside, at theta0 +- s.
    G(t) = g(theta0 + sqrt t) is smooth in t = s^2 with G'(0) = g''/2 and
    G''(0) = g''''/12, so one Newton step in t starts that end's climb at
    s^2 = -6 g''/g'''' when that is positive, here g'' = 2 Re(conj p p_2)
    and g'''' = 2 Re(conj p p_4) + 6 |p_2|^2, with p_2 = -sum k^2 c_k
    (+-1)^k and p_4 = sum k^4 c_k (+-1)^k.  The grid neighbour pi/n away
    is no higher than the end, so that maximum lies in (0, pi/n), and s^2
    is taken at most (pi/n)^2.  Without this start a peak less than a grid
    step from an end stays at the end's grid value."""
    c = np.atleast_1d(np.asarray(c))
    d = len(c) - 1
    a = np.abs(vals)
    # the grid is symmetric about theta = 0 and pi, so an end point is a
    # local maximum when its one neighbour is not higher
    ext = np.concatenate([a[1:2], a, a[-2:-1]])
    high = (1.0 - 2.0 * (np.pi * d / n) ** 2) * a.max()
    at = np.flatnonzero((a >= ext[:-2]) & (a >= ext[2:]) & (a >= high))
    theta = np.pi * at / n
    best = float(a.max())
    k = np.arange(d + 1.0)
    b = math.isqrt(d) + 1
    with np.errstate(all="ignore"):
        # c, -k c and -k^2 c as the columns of w, padded to a multiple of
        # the block width b and interleaved to meet the table's real (cos)
        # and imaginary (sin) parts
        w = np.zeros((-(-(d + 1) // b) * b, 2, 3), np.result_type(c, float))
        w[: d + 1, 0, 0], w[: d + 1, 1, 1], w[: d + 1, 0, 2] = (
            c, -k * c, -k * k * c)
        w = w.reshape(-1, 3)
        end = (at == 0) | (at == n)
        if end.any():
            sign = np.where(at[end] == 0, 1.0, -1.0)[:, None] ** k
            v = vals[at[end]]
            p2, p4 = -(sign @ (k * k * c)), sign @ (k ** 4 * c)
            rise = (v.conj() * p2).real
            t = -6.0 * rise / ((v.conj() * p4).real + 3.0 * abs(p2) ** 2)
            s = np.sqrt(np.where((rise > 0) & (t > 0),
                                 np.minimum(t, (np.pi / n) ** 2), 0.0))
            theta[end] = np.where(at[end] == 0, s, np.pi - s)
        v, dv, d2v = _angle_values(w, b, theta)
        # no candidate only when the grid holds a NaN, which best keeps
        best = max(best, float(np.abs(v).max(initial=0.0)))
        for _ in range(6):
            slope = (v.conj() * dv).real
            step = np.nan_to_num(
                slope / ((dv.conj() * dv).real + (v.conj() * d2v).real))
            # about the rise of |p|^2 that Newton's quadratic model still
            # expects from the move
            keep = np.abs(slope * step) > 1e-17 * best * best
            theta = np.abs(np.remainder(theta[keep] - step[keep] + np.pi,
                                        2.0 * np.pi) - np.pi)
            if not len(theta):
                break
            v, dv, d2v = _angle_values(w, b, theta)
            best = max(best, float(np.abs(v).max()))
    return best


def peak(c) -> float:
    """max |p| over [-1, 1] for p = sum_k c_k T_k, c real or complex: the
    grid values of `_grid_stage`, refined by `_newton_stage`.  A peak of
    |p| can fall between the grid points; by Bernstein's inequality it
    leaves a grid-local maximum next to it, which Newton climbs in the
    angle theta = arccos x, where p and its theta-derivatives are sums of
    the coefficients against cos(k theta) and sin(k theta), each term
    within (pi k + 6) u."""
    n, vals, _ = _grid_stage(c)
    return _newton_stage(c, n, vals)
