"""Univariate polynomials with parity tracking, computed in the Chebyshev
basis (`ChebSeries`).  `ParityPoly` is a monomial input format only, which
`convert` takes to that basis (well conditioned: x^k's coefficients there
are nonnegative and sum to 1); a series is never re-expanded in powers,
whose coefficients reach 6.5e16 for a degree-59 sign series.  Both classes
build through one normal form, so a declared parity means the same in each.
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


def _normal_form(coeffs, parity):
    """(coefficients, parity, degree): a read-only 1-D complex copy trimmed
    to its degree.  A coefficient contradicting a declared parity raises
    ValueError above `_chebops.drop_threshold` and is zeroed below it."""
    c = np.atleast_1d(np.asarray(coeffs, complex)).copy()
    if c.ndim != 1:
        raise ValueError("coefficients must be one-dimensional")
    if parity is None:
        parity = cheb.parity_of(c)
    if parity not in _PARITIES:
        raise ValueError(f"unknown parity {parity!r}")
    thr = cheb.drop_threshold(c)
    if parity != "none":
        bad = _PARITIES.index(parity) ^ 1  # first slot excluded: 1 if even
        if np.abs(c[bad::2]).max(initial=0.0) > thr:
            raise ValueError(
                f"declared {parity} but has {_PARITIES[bad]} coefficients")
        c[bad::2] = 0
    nz = np.nonzero(np.abs(c) > thr)[0]
    degree = int(nz[-1]) if len(nz) else 0
    c = c[: degree + 1]
    c.setflags(write=False)
    return c, parity, degree


class _Series:
    """Immutable coefficients with a parity and a degree; those below
    ``1e-14 * max|coeff|`` count as zero for parity and degree purposes."""

    __slots__ = ()

    def __setattr__(self, name, value):
        if hasattr(self, "degree"):
            raise AttributeError(f"{type(self).__name__} is immutable")
        super().__setattr__(name, value)

    def __call__(self, x):
        return evaluate(self, x)

    def __repr__(self):
        return (f"{type(self).__name__}(degree={self.degree}, "
                f"parity={self.parity!r})")


class ParityPoly(_Series):
    """Dense polynomial in the monomial basis with a declared parity: an
    input format, taken to the Chebyshev basis by `convert`."""

    __slots__ = ("coeffs", "parity", "degree")

    def __init__(self, coeffs, parity=None):
        self.coeffs, self.parity, self.degree = _normal_form(coeffs, parity)

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
        # T_k coefficients read as powers would be silently wrong
        if obj.get("basis", "monomial") != "monomial":
            raise ValueError("ParityPoly reads monomial coefficients only")
        return ParityPoly(_json_coeffs(obj), obj.get("parity"))


class ChebSeries(_Series):
    """Polynomial in the basis {T_0, T_1, ...} with a declared parity."""

    __slots__ = ("cheb_coeffs", "parity", "degree")

    def __init__(self, cheb_coeffs, parity=None):
        self.cheb_coeffs, self.parity, self.degree = _normal_form(
            cheb_coeffs, parity)

    def to_json(self) -> dict:
        return {
            "basis": "chebyshev",
            "parity": self.parity,
            "coeffs": [[float(z.real), float(z.imag)] for z in self.cheb_coeffs],
        }

    @staticmethod
    def from_json(obj) -> "ChebSeries":
        c, basis = _json_coeffs(obj), obj.get("basis", "monomial")
        if basis == "monomial":
            return convert(ParityPoly(c, obj.get("parity")))
        if basis != "chebyshev":
            raise ValueError(f"unknown basis {basis!r}")
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


def convert(p, max_degree=MAX_DEGREE_DEFAULT) -> ChebSeries:
    """Exact linear basis change ParityPoly -> ChebSeries, the one way."""
    if not isinstance(p, ParityPoly):
        raise TypeError(f"cannot convert {type(p).__name__}")
    if p.degree > max_degree:
        raise DegreeTooLarge(f"degree {p.degree} > max {max_degree}")
    return ChebSeries(npcheb.poly2cheb(p.coeffs), p.parity)


def _as_cheb_array(p) -> np.ndarray:
    """The Chebyshev coefficients of a ParityPoly (by `convert`) or a
    ChebSeries, copied, or of an array taken as complex."""
    if isinstance(p, ParityPoly):
        p = convert(p)
    if isinstance(p, ChebSeries):
        return p.cheb_coeffs.copy()
    return np.atleast_1d(np.asarray(p, complex))


def supnorm(p, interval=(-1.0, 1.0)) -> float:
    """max |p(x)| over [lo, hi]: p re-expanded on [lo, hi] by
    interpolation at its degree's Chebyshev nodes, then `_chebops.peak`."""
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError("need lo < hi")
    t = cheb.cheb_nodes(p.degree + 1)
    vals = evaluate(p, lo + (hi - lo) * (t + 1) / 2)
    return cheb.peak(cheb.fit(vals, p.degree))
