"""Exception types, and the real-number test of argument checks, shared package-wide."""

import numbers


def _is_real(x):
    """True for a real number that is not a boolean (``0 < True`` holds, so ranges miss it)."""
    return isinstance(x, numbers.Real) and type(x) is not bool


class MemsurfError(Exception):
    """Base class for all package errors."""


class OffSurfaceError(MemsurfError):
    """A point expected to lie on the target surface does not."""


class AmbiguousProjectionError(MemsurfError):
    """Closest-point projection queried at or near the medial axis."""


class RankDeficientError(MemsurfError):
    """Deformation gradient is (numerically) rank deficient."""


class NonpositiveJError(MemsurfError):
    """Area ratio argument must be strictly positive."""


class InvalidModelError(MemsurfError):
    """Constitutive parameters violate the model's admissibility rules."""


class InvalidEpsilonError(MemsurfError):
    """Rank-one construction parameter outside (0, 1)."""


class DeltaTooLargeError(MemsurfError):
    """Perturbation radius too large for the stress-bound constant."""


class DegenerateElementError(MemsurfError):
    """A mesh element is degenerate in the reference configuration."""


class InfeasibleStartError(MemsurfError):
    """Initial configuration has elements at or below the area-ratio floor."""

    def __init__(self, message, elements=None):
        super().__init__(message)
        self.elements = list(elements) if elements is not None else []


class BoundaryTooCloseError(MemsurfError):
    """Degree target point too close to the image of the domain boundary."""


class ChartSpanFailureError(MemsurfError):
    """A geometric query could not be covered by a single chart."""


class ConfigError(MemsurfError):
    """Run configuration failed to parse or validate."""
