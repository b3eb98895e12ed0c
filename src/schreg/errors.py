"""Exception types shared across the package.

Everything derives from SchregError so callers can catch the package's own
failures without swallowing programming errors.
"""


class SchregError(Exception):
    """Base class for all schreg-specific errors."""


class InvalidStep(SchregError):
    """Propagation step is zero, negative, or not finite."""


class ZeroSolution(SchregError):
    """A solution value vanished where a logarithm or ratio needs it."""


class QuadratureFailure(SchregError):
    """An adaptive quadrature did not reach the requested tolerance; from
    `quadrature.quad`, values holds every interval's value, nan if it failed."""

    def __init__(self, message, values=None):
        super().__init__(message)
        self.values = values


class NoConvergence(SchregError):
    """A solve left residuals above its tolerance."""


class FitIllConditioned(SchregError):
    """Least-squares design matrix is rank deficient or near-singular."""


class ConfigInvalid(SchregError):
    """Experiment configuration failed validation."""
