"""Exception hierarchy.

Two families, matching the CLI exit-code contract: ValidationError (bad or
inconsistent inputs, exit code 2) and NumericalError (the requested
computation is singular, failed to converge, or left the float64 range,
exit code 3). Each refusal's message says which check fired.
"""


class ModelError(Exception):
    """Base class for everything raised by this package."""


class ValidationError(ModelError):
    """Inputs violate a precondition that is checkable before any numerics."""


class NumericalError(ModelError):
    """The computation is singular at these parameters or lost accuracy."""
