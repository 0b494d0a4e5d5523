"""Univariate polynomials with parity tracking.

Two coefficient views are maintained: the monomial basis (`ParityPoly`)
and the Chebyshev basis (`ChebSeries`), with exact linear conversion
between them.  The Chebyshev view is canonical for approximation output
because truncation bounds are naturally stated there; the monomial view
is what root finding and parity bookkeeping use.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import polynomial as nppoly

from .config import COEFF_DROP_REL, MAX_DEGREE_DEFAULT
from .errors import DegreeTooLarge, NumericalFailure

_PARITIES = ("even", "odd", "none")


def _drop_threshold(coeffs):
    a = np.abs(coeffs)
    return COEFF_DROP_REL * max(1e-300, a.max())


def _infer_parity(coeffs):
    thr = _drop_threshold(coeffs)
    a = np.abs(coeffs)
    has_even = bool(np.any(a[0::2] > thr))
    has_odd = bool(np.any(a[1::2] > thr))
    if has_even and has_odd:
        return "none"
    return "odd" if has_odd else "even"


class ParityPoly:
    """Dense polynomial in the monomial basis with a declared parity.

    Coefficients below ``1e-14 * max|coeff|`` count as zero for parity and
    degree purposes.  Instances are immutable.
    """

    __slots__ = ("coeffs", "parity", "degree")

    def __init__(self, coeffs, parity=None):
        c = np.atleast_1d(np.asarray(coeffs, complex)).copy()
        if c.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        if parity is None:
            parity = _infer_parity(c)
        if parity not in _PARITIES:
            raise ValueError(f"unknown parity {parity!r}")
        thr = _drop_threshold(c)
        if parity == "even":
            bad = np.abs(c[1::2]).max(initial=0.0)
            if bad > thr:
                raise ValueError("declared even but has odd coefficients")
            c[1::2] = 0
        elif parity == "odd":
            bad = np.abs(c[0::2]).max(initial=0.0)
            if bad > thr:
                raise ValueError("declared odd but has even coefficients")
            c[0::2] = 0
        nz = np.nonzero(np.abs(c) > thr)[0]
        degree = int(nz[-1]) if len(nz) else 0
        c = c[: degree + 1]
        c.setflags(write=False)
        self.coeffs = c
        self.parity = parity
        self.degree = degree

    def __setattr__(self, name, value):
        if name in self.__slots__ and hasattr(self, "degree"):
            raise AttributeError("ParityPoly is immutable")
        super().__setattr__(name, value)

    # -- basic queries ------------------------------------------------
    @property
    def is_real(self) -> bool:
        return bool(np.abs(self.coeffs.imag).max(initial=0.0)
                    <= _drop_threshold(self.coeffs))

    def real_coeffs(self):
        return self.coeffs.real.copy()

    def __call__(self, x):
        return evaluate(self, x)

    def __repr__(self):
        return f"ParityPoly(degree={self.degree}, parity={self.parity!r})"

    def __eq__(self, other):
        if not isinstance(other, ParityPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        a = np.zeros(n, complex); a[: len(self.coeffs)] = self.coeffs
        b = np.zeros(n, complex); b[: len(other.coeffs)] = other.coeffs
        return bool(np.array_equal(a, b)) and self.parity == other.parity

    # -- serialization ------------------------------------------------
    def to_json(self) -> dict:
        return {
            "basis": "monomial",
            "parity": self.parity,
            "coeffs": [[float(z.real), float(z.imag)] for z in self.coeffs],
        }

    @staticmethod
    def from_json(obj) -> "ParityPoly":
        c = np.array([complex(re, im) for re, im in obj["coeffs"]])
        if obj.get("basis", "monomial") == "chebyshev":
            return ChebSeries(c, obj.get("parity")).to_parity_poly()
        return ParityPoly(c, obj.get("parity"))


class ChebSeries:
    """Polynomial in the basis {T_0, T_1, ...} with a declared parity."""

    __slots__ = ("cheb_coeffs", "parity", "degree")

    def __init__(self, cheb_coeffs, parity=None):
        c = np.atleast_1d(np.asarray(cheb_coeffs, complex)).copy()
        if parity is None:
            parity = _infer_parity(c)
        if parity not in _PARITIES:
            raise ValueError(f"unknown parity {parity!r}")
        thr = _drop_threshold(c)
        if parity == "even":
            c[1::2] = 0
        elif parity == "odd":
            c[0::2] = 0
        nz = np.nonzero(np.abs(c) > thr)[0]
        degree = int(nz[-1]) if len(nz) else 0
        c = c[: degree + 1]
        c.setflags(write=False)
        self.cheb_coeffs = c
        self.parity = parity
        self.degree = degree

    def __setattr__(self, name, value):
        if name in self.__slots__ and hasattr(self, "degree"):
            raise AttributeError("ChebSeries is immutable")
        super().__setattr__(name, value)

    @property
    def is_real(self) -> bool:
        return bool(np.abs(self.cheb_coeffs.imag).max(initial=0.0)
                    <= _drop_threshold(self.cheb_coeffs))

    def to_parity_poly(self, max_degree=MAX_DEGREE_DEFAULT) -> ParityPoly:
        return convert(self, max_degree=max_degree)

    def __call__(self, x):
        return evaluate(self, x)

    def __repr__(self):
        return f"ChebSeries(degree={self.degree}, parity={self.parity!r})"

    def to_json(self) -> dict:
        return {
            "basis": "chebyshev",
            "parity": self.parity,
            "coeffs": [[float(z.real), float(z.imag)] for z in self.cheb_coeffs],
        }

    @staticmethod
    def from_json(obj) -> "ChebSeries":
        c = np.array([complex(re, im) for re, im in obj["coeffs"]])
        if obj.get("basis", "monomial") == "monomial":
            return convert(ParityPoly(c, obj.get("parity")))
        return ChebSeries(c, obj.get("parity"))


class FourierSeries:
    """Finite series sum_m c_m exp(i pi m x / (2 * half_period_scale))."""

    __slots__ = ("coeffs", "half_period_scale")

    def __init__(self, coeffs: dict, half_period_scale: float):
        if half_period_scale <= 0:
            raise ValueError("half_period_scale must be positive")
        self.coeffs = {int(m): complex(c) for m, c in coeffs.items()}
        self.half_period_scale = float(half_period_scale)

    def one_norm(self) -> float:
        return float(sum(abs(c) for c in self.coeffs.values()))

    def max_index(self) -> int:
        return max((abs(m) for m in self.coeffs), default=0)

    def __call__(self, x):
        x = np.asarray(x, float)
        out = np.zeros(x.shape, complex)
        w = np.pi / (2 * self.half_period_scale)
        for m, c in self.coeffs.items():
            out = out + c * np.exp(1j * w * m * x)
        return out


# ----------------------------------------------------------------------
# operations


def evaluate(p, x):
    """Evaluate a ParityPoly (Horner) or ChebSeries (Clenshaw) at x."""
    if isinstance(p, ParityPoly):
        return nppoly.polyval(x, p.coeffs)
    if isinstance(p, ChebSeries):
        return npcheb.chebval(x, p.cheb_coeffs)
    raise TypeError(f"cannot evaluate {type(p).__name__}")


def convert(p, max_degree=MAX_DEGREE_DEFAULT):
    """Exact linear basis change ParityPoly <-> ChebSeries."""
    if isinstance(p, ParityPoly):
        if p.degree > max_degree:
            raise DegreeTooLarge(f"degree {p.degree} > max {max_degree}")
        return ChebSeries(npcheb.poly2cheb(p.coeffs), p.parity)
    if isinstance(p, ChebSeries):
        if p.degree > max_degree:
            raise DegreeTooLarge(f"degree {p.degree} > max {max_degree}")
        return ParityPoly(npcheb.cheb2poly(p.cheb_coeffs), p.parity)
    raise TypeError(f"cannot convert {type(p).__name__}")


def _combined_parity(a: str, b: str, op: str) -> str:
    if op == "multiply":
        if "none" in (a, b):
            return "none"
        return "even" if a == b else "odd"
    # add
    if a == b:
        return a
    return "none"


def arithmetic(p: ParityPoly, q=None, op: str = "add"):
    """Coefficient arithmetic with parity propagation.

    ``op`` is one of add, multiply, conjugate_coeffs, real_part,
    parity_split.  parity_split returns the pair
    (P(x) + P(-x), P(x) - P(-x)), i.e. twice the even and odd parts.
    """
    if op == "add":
        c = nppoly.polyadd(p.coeffs, q.coeffs)
        return ParityPoly(c, _combined_parity(p.parity, q.parity, "add"))
    if op == "multiply":
        c = nppoly.polymul(p.coeffs, q.coeffs)
        return ParityPoly(c, _combined_parity(p.parity, q.parity, "multiply"))
    if op == "conjugate_coeffs":
        return ParityPoly(np.conj(p.coeffs), p.parity)
    if op == "real_part":
        return ParityPoly(p.coeffs.real.astype(complex), p.parity)
    if op == "parity_split":
        even = p.coeffs.copy()
        even[1::2] = 0
        odd = p.coeffs.copy()
        odd[0::2] = 0
        return (ParityPoly(2 * even, "even"), ParityPoly(2 * odd, "odd"))
    raise ValueError(f"unknown op {op!r}")


def _aberth_refine(coeffs, roots, iters=40):
    """Simultaneous (Aberth) refinement of all roots of a monomial poly."""
    d = nppoly.polyder(coeffs)
    roots = roots.astype(complex)
    for _ in range(iters):
        f = nppoly.polyval(roots, coeffs)
        fp = nppoly.polyval(roots, d)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.where(fp != 0, f / fp, 0.0)
            diff = roots[:, None] - roots[None, :]
            np.fill_diagonal(diff, np.inf)
            repel = np.sum(1.0 / diff, axis=1)
            step = newton / (1.0 - newton * repel)
        step = np.where(np.isfinite(step), step, 0.0)
        roots = roots - step
        if np.abs(step).max(initial=0.0) < 1e-16 * (1 + np.abs(roots).max()):
            break
    return roots


def find_roots(p: ParityPoly):
    """All complex roots (with multiplicity) of p, in double precision.

    Companion-matrix eigenvalues seed a simultaneous-Newton (Aberth)
    refinement.  At degree <= 60 the residual max |p(r)|, relative to the
    coefficient 1-norm, must be at most 1e-10, else NumericalFailure.
    """
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    coeffs = p.coeffs
    roots = _aberth_refine(coeffs, nppoly.polyroots(coeffs))
    if p.degree <= 60:
        resid = float(np.abs(nppoly.polyval(roots, coeffs)).max()
                      / np.abs(coeffs).sum())
        if resid > 1e-10:
            raise NumericalFailure(
                f"root residual {resid:.2e} above 1e-10 at degree {p.degree}")
    return roots


_GOLDEN = (math.sqrt(5) - 1) / 2


def _golden_max(f, lo, hi, iters=60):
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
        if b - a < 1e-14:
            break
    x = (a + b) / 2
    return f(x)


def supnorm(p, interval=(-1.0, 1.0)) -> float:
    """max |p(x)| over [lo, hi], via a Chebyshev grid of 8*(degree+1)
    points plus golden-section refinement around the grid argmax."""
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError("need lo < hi")
    deg = p.degree
    n = 8 * (deg + 1)
    t = np.cos(np.pi * (np.arange(n) + 0.5) / n)
    xs = lo + (hi - lo) * (t + 1) / 2
    xs = np.concatenate([[lo], xs[::-1], [hi]])
    vals = np.abs(evaluate(p, xs))
    i = int(np.argmax(vals))
    best = float(vals[i])
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, len(xs) - 1)]
    if b > a:
        refined = _golden_max(lambda x: float(np.abs(evaluate(p, x))), a, b)
        best = max(best, refined)
    return best


def monic_from_roots(roots, leading=1.0) -> ParityPoly:
    """Reconstruct leading * prod (x - r) as a ParityPoly."""
    c = np.array([1.0 + 0j])
    for r in roots:
        c = nppoly.polymul(c, np.array([-r, 1.0]))
    return ParityPoly(leading * c, "none")
