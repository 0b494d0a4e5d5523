"""svtkit: classical singular value transformation toolkit."""

from .poly import ParityPoly, ChebSeries

__all__ = [
    "ParityPoly",
    "ChebSeries",
]

__version__ = "0.1.0"
