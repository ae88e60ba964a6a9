"""Exception types shared across the package."""


class RegtriangError(Exception):
    """Base class for all package-specific errors."""


class BadConfig(RegtriangError):
    """Malformed or inconsistent point configuration input."""


class DegenerateSimplex(RegtriangError):
    """A candidate maximal simplex has zero normalized volume."""


class VolumeMismatch(RegtriangError):
    """Cell volumes do not add up to the volume of the hull."""


class OverlapNotFace(RegtriangError):
    """Two cells intersect in something other than a common face."""


class UnsupportedFlip(RegtriangError):
    """The circuit is not supported in the given triangulation."""


class BudgetExceeded(RegtriangError):
    """Enumeration exceeded its node budget before completing."""


class NonconstantSum(RegtriangError):
    """Polytope vertices do not share a coordinate sum divisible as required."""


class DimensionUnsupported(RegtriangError):
    """Operation restricted to a specific dimension (prisms need n = 2)."""


class CheckFailed(RegtriangError):
    """An exact certificate, construction or bound failed its check."""


class NonConvex(RegtriangError):
    """Heights do not describe a convex piecewise-linear function."""


class LinearityViolation(RegtriangError):
    """Function is not affine on some cell of the supplied triangulation."""


class TriangulationMismatch(RegtriangError):
    """Triangulation does not refine the function's linearity domains."""


class CheckpointCorrupt(RegtriangError):
    """Checkpoint file cannot be parsed."""


class DigestMismatch(RegtriangError):
    """Checkpoint belongs to a different point configuration."""
