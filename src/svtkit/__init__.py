"""svtkit: classical singular value transformation toolkit."""

from .poly import ParityPoly, ChebSeries, FourierSeries

__all__ = [
    "ParityPoly",
    "ChebSeries",
    "FourierSeries",
]

__version__ = "0.1.0"
