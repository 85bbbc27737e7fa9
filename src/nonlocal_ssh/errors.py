"""Exception hierarchy.

Two families, matching the CLI exit-code contract: ValidationError (bad or
inconsistent inputs, exit code 2) and NumericalError (the requested
computation is singular or failed to converge, exit code 3).
"""


class ModelError(Exception):
    """Base class for everything raised by this package."""


class ValidationError(ModelError):
    """Inputs violate a precondition that is checkable before any numerics."""


class NonPositiveScale(ValidationError):
    """A length or step (a, L, dx) is zero, negative, or not finite."""


class DegenerateCouplings(ValidationError):
    """v = w = 0 (or v0 = w0 = 0 in the box): the Hamiltonian vanishes identically."""


class NonCommensurate(ValidationError):
    """a/dx or L/dx is not an integer within tolerance."""


class NonCommensurateBox(ValidationError):
    """2*n*L/a is not an integer: the hard-wall phase cannot zero both walls."""


class DegenerateLabel(ValidationError):
    """Edge-mode label produces the identically zero state on this grid."""


class UnsupportedOrder(ValidationError):
    """Truncation order outside the implemented set."""


class ZeroCoupling(ValidationError):
    """v0 = 0 or w0 = 0 where a ratio of couplings is required."""


class GridMismatch(ValidationError):
    """Array lengths disagree with the grid they claim to live on."""


class CutoffTooSmall(ValidationError):
    """Momentum cutoff too small for the tail handling to be valid."""


class InsufficientPeaks(ValidationError):
    """Fewer envelope maxima than a meaningful log-linear fit needs."""


class NumericalError(ModelError):
    """The computation is singular at these parameters or lost accuracy."""


class GapClosure(NumericalError):
    """The spectral gap closes on the requested path; phases are undefined."""


class CriticalPoint(NumericalError):
    """|v| = |w|: the bulk invariant is undefined at the transition."""


class ConvergenceFailure(NumericalError):
    """An internal accuracy estimate exceeded its bound."""


class SerializationError(NumericalError):
    """Output contains values (NaN, infinities) the formats forbid."""
