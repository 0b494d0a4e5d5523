"""Run configuration: precision selection and degree caps."""
from __future__ import annotations

import dataclasses

MAX_DEGREE_DEFAULT = 512
COEFF_DROP_REL = 1e-14  # coefficients below this (relative) are treated as zero
MAX_MATRIX_DIM = 256


@dataclasses.dataclass(frozen=True)
class Precision:
    """Arithmetic precision for root finding.

    Only `poly.find_roots` reads it: with ``extended`` its root refinement
    reruns in mpmath with at least ``bits`` bits.  Phase synthesis and
    the transformations run in IEEE double whatever it says.
    """

    extended: bool = False
    bits: int = 256

    def __post_init__(self):
        if self.extended and self.bits < 64:
            raise ValueError("extended precision needs >= 64 bits")

    @property
    def dps(self) -> int:
        return int(self.bits * 0.30103) + 3

    def workdps(self):
        import mpmath

        return mpmath.workdps(self.dps)


STANDARD = Precision()


def extended(bits: int = 256) -> Precision:
    return Precision(extended=True, bits=bits)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """CLI-level configuration shared by all subcommands."""

    precision: Precision = STANDARD
    max_degree: int = MAX_DEGREE_DEFAULT
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.max_degree <= MAX_DEGREE_DEFAULT:
            raise ValueError(
                f"max_degree must lie in [0, {MAX_DEGREE_DEFAULT}]")
