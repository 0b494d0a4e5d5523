"""Library-wide limits: degree cap and matrix size."""

MAX_DEGREE_DEFAULT = 512
MAX_MATRIX_DIM = 256
