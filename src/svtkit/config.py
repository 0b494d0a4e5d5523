"""Library-wide limits: degree cap, coefficient drop and matrix size."""

MAX_DEGREE_DEFAULT = 512
COEFF_DROP_REL = 1e-14  # coefficients below this (relative) are treated as zero
MAX_MATRIX_DIM = 256
