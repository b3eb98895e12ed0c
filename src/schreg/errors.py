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


class HorizonExceeded(SchregError):
    """Volterra series requested beyond its configured horizon."""


class QuadratureFailure(SchregError):
    """An adaptive quadrature did not reach the requested tolerance."""


class NoConvergence(SchregError):
    """A solve left residuals above its tolerance."""


class OnSpectrum(SchregError):
    """Evaluation point is on (or too close to) the essential spectrum."""


class PathTooCloseToSpectrum(SchregError):
    """Integration path from the anchor would graze the spectrum."""


class DegenerateDisk(SchregError):
    """Weyl disk data is degenerate (no finite positive radius)."""


class FitIllConditioned(SchregError):
    """Least-squares design matrix is rank deficient or near-singular."""


class ConfigInvalid(SchregError):
    """Experiment configuration failed validation."""
