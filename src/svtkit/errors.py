"""Exception types raised across the toolkit."""


class SvtError(Exception):
    """Base class for all svtkit errors."""


class DegreeTooLarge(SvtError):
    """Polynomial degree exceeds the configured maximum."""


class DegreeOverflow(DegreeTooLarge):
    """An approximation constructor would need a degree above the cap."""


class NumericalFailure(SvtError):
    """A numerical stage missed its required tolerance."""


class Inadmissible(SvtError):
    """Polynomial fails the admissibility conditions for phase synthesis."""


class NotSubunit(Inadmissible):
    """Target exceeds 1 in magnitude somewhere on [-1, 1], so
    p(x)^2 + (1-x^2) q(x)^2 <= 1 fails for every q."""


class NormExceeded(SvtError):
    """Matrix norm exceeds the requested encoding scale."""


class DimensionMismatch(SvtError):
    """Operands have inconsistent dimensions."""


class ShapeMismatch(DimensionMismatch):
    """Linear-combination inputs disagree in shape or (alpha, a)."""


class SparsityViolated(SvtError):
    """Matrix exceeds the declared row/column sparsity."""


class ModePreconditionViolated(SvtError):
    """Product mode requires alpha = beta = 1 and unitary targets."""


class NotAProjector(SvtError):
    """Matrix is not an orthogonal projector within tolerance."""


class ParityMismatch(SvtError):
    """Function parity does not match the declared one."""


class ConventionMismatch(SvtError):
    """Phase sequence is in the wrong convention for this operation."""


class OverlapBelowThreshold(SvtError):
    """Initial overlap smaller than the promised lower bound."""


class NotAnIsometryWithinTolerance(SvtError):
    """Encoded block is not proportional to an isometry within tolerance."""


class SpectrumOutOfRange(SvtError):
    """Singular values violate the precondition range."""


class SpectrumBelowDelta(SpectrumOutOfRange):
    """A nonzero singular value lies below the promised delta."""


class SpectrumTooWide(SpectrumOutOfRange):
    """log spectrum exceeds the promised norm bound."""


class PromiseViolated(SvtError):
    """Input state has mass outside the promised singular-value bands."""


class NotHermitian(SvtError):
    """Operator expected to be Hermitian is not."""


class NotReversible(SvtError):
    """Markov chain is not reversible."""


class EmptyMarkedSet(SvtError):
    """Operation requires a nonempty marked set."""


class GapTooSmall(SvtError):
    """Singular value gap below the promised delta."""
