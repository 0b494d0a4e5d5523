"""Univariate polynomials with parity tracking.

Two coefficient views are maintained: the monomial basis (`ParityPoly`)
and the Chebyshev basis (`ChebSeries`), with exact linear conversion
between them.  The Chebyshev view is canonical for approximation output
because truncation bounds are naturally stated there.
"""
from __future__ import annotations

import numpy as np
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import polynomial as nppoly

from . import _chebops as cheb
from .config import MAX_DEGREE_DEFAULT
from .errors import DegreeTooLarge

_PARITIES = ("even", "odd", "none")


def _json_coeffs(obj):
    """A JSON polynomial's complex coefficients; ValueError if one is not
    finite (a NaN compares false with the parity and degree thresholds)."""
    c = np.array([complex(re, im) for re, im in obj["coeffs"]])
    if not np.all(np.isfinite(c)):
        raise ValueError("polynomial coefficients must be finite")
    return c


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
            parity = cheb.parity_of(c)
        if parity not in _PARITIES:
            raise ValueError(f"unknown parity {parity!r}")
        thr = cheb.drop_threshold(c)
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
        c = _json_coeffs(obj)
        if obj.get("basis", "monomial") == "chebyshev":
            return ChebSeries(c, obj.get("parity")).to_parity_poly()
        return ParityPoly(c, obj.get("parity"))


class ChebSeries:
    """Polynomial in the basis {T_0, T_1, ...} with a declared parity."""

    __slots__ = ("cheb_coeffs", "parity", "degree")

    def __init__(self, cheb_coeffs, parity=None):
        c = np.atleast_1d(np.asarray(cheb_coeffs, complex)).copy()
        if parity is None:
            parity = cheb.parity_of(c)
        if parity not in _PARITIES:
            raise ValueError(f"unknown parity {parity!r}")
        thr = cheb.drop_threshold(c)
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
        c = _json_coeffs(obj)
        if obj.get("basis", "monomial") == "monomial":
            return convert(ParityPoly(c, obj.get("parity")))
        return ChebSeries(c, obj.get("parity"))


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


def supnorm(p, interval=(-1.0, 1.0)) -> float:
    """max |p(x)| over [lo, hi]: p re-expanded on [lo, hi] by
    interpolation at its degree's Chebyshev nodes, then `_chebops.peak`."""
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError("need lo < hi")
    t = cheb.cheb_nodes(p.degree + 1)
    vals = evaluate(p, lo + (hi - lo) * (t + 1) / 2)
    return cheb.peak(cheb.fit(vals, p.degree))
