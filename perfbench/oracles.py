"""Output checks that share no code path with the timed calls.

Everything here is plain numpy/scipy written for the benchmark: the QSP
product is re-multiplied as stacked 2x2 matrices, singular value maps come
from numpy's own SVD or eigendecomposition, and matrix exponentials from
``scipy.linalg.expm``.  Each check returns ``None`` when the output holds,
or a one-line reason when it does not.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg
from numpy.polynomial import chebyshev as npcheb

# Chebyshev-Lobatto points: the endpoints are included and the spacing is
# unlike the uniform-in-angle grids svtkit certifies on.
QSP_GRID = np.cos(np.linspace(0.0, np.pi, 997))


def _grid(lo: float, hi: float, per_unit: int = 7919) -> np.ndarray:
    n = max(int(np.ceil((hi - lo) * per_unit)), 64) + 1
    return np.linspace(lo, hi, n)


def reflection_product(phis, xs: np.ndarray) -> np.ndarray:
    """<0| prod_j e^{i phi_j Z} R(x) |0> for the reflection convention,
    R(x) = [[x, s], [s, -x]], s = sqrt(1 - x^2), phi_1 leftmost.

    Propagates the row vector <0| through the factors from the left.
    """
    s = np.sqrt(np.clip(1.0 - xs ** 2, 0.0, None))
    top = np.ones(len(xs), complex)
    bottom = np.zeros(len(xs), complex)
    for phi in phis:
        top, bottom = top * np.exp(1j * phi), bottom * np.exp(-1j * phi)
        top, bottom = top * xs + bottom * s, top * s - bottom * xs
    return top


def check_phases(phis, cheb_coeffs, tol: float):
    """The phased product's Re<0|.|0> reproduces the Chebyshev series."""
    coeffs = np.asarray(cheb_coeffs, complex).real
    got = reflection_product(phis, QSP_GRID).real
    err = float(np.abs(got - npcheb.chebval(QSP_GRID, coeffs)).max())
    if not err <= tol:
        return f"phase reconstruction error {err:.2e} above tol {tol:.0e}"
    return None


def check_certificate(cheb_coeffs, claimed_error: float, claimed_sup: float,
                      target, domain):
    """Re-measure a polynomial's error against ``target`` on ``domain``
    (a list of intervals inside [-1, 1]) and its sup on [-1, 1]."""
    coeffs = np.asarray(cheb_coeffs, complex).real
    sup = float(np.abs(npcheb.chebval(_grid(-1.0, 1.0), coeffs)).max())
    if not sup <= claimed_sup:
        return f"sup {sup:.6g} above claimed {claimed_sup:.6g}"
    for lo, hi in domain:
        xs = _grid(lo, hi)
        err = float(np.abs(npcheb.chebval(xs, coeffs) - target(xs)).max())
        if not err <= claimed_error:
            return (f"error {err:.3e} above claimed {claimed_error:.3e} "
                    f"on [{lo:.4g}, {hi:.4g}]")
    return None


def odd_singular_value_map(a: np.ndarray, cheb_coeffs) -> np.ndarray:
    """f^(SV)(A) = W f(S) V^dag for a square A and an odd f."""
    w, s, vh = np.linalg.svd(a)
    return (w * npcheb.chebval(s, cheb_coeffs)) @ vh


def hermitian_map(h: np.ndarray, cheb_coeffs) -> np.ndarray:
    lam, v = np.linalg.eigh(h)
    return (v * npcheb.chebval(lam, cheb_coeffs)) @ v.conj().T


def check_close(got: np.ndarray, want: np.ndarray, tol: float, what: str):
    err = float(np.linalg.norm(got - want, 2))
    if not err <= tol:
        return f"{what} misses the oracle by {err:.2e} (tol {tol:.0e})"
    return None


def exp_i(h: np.ndarray, t: float) -> np.ndarray:
    return scipy.linalg.expm(1j * t * h)


def pseudoinverse(a: np.ndarray) -> np.ndarray:
    w, s, vh = np.linalg.svd(a)
    keep = s > 1e-10
    return (vh[keep].conj().T / s[keep]) @ w[:, keep].conj().T


def hitting_time(p: np.ndarray, marked) -> float:
    """Expected steps to reach ``marked`` from the stationary distribution,
    by a linear solve on the unmarked states."""
    lam, vecs = np.linalg.eig(p.T)
    pi = np.abs(np.real(vecs[:, np.argmin(np.abs(lam - 1.0))]))
    pi /= pi.sum()
    free = [i for i in range(len(p)) if i not in set(marked)]
    sub = p[np.ix_(free, free)]
    steps = np.linalg.solve(np.eye(len(free)) - sub, np.ones(len(free)))
    return float(pi[free] @ steps)
