"""Exception types shared across the package.

The CLI maps these onto distinct process exit codes so that callers can
distinguish configuration problems from runtime numerical failures.
"""

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_NUMERICAL = 4


class HybridlocError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ScenarioError(HybridlocError):
    """A scenario/config file is missing, unreadable, or semantically invalid."""

    exit_code = EXIT_PARSE


class DimensionMismatchError(HybridlocError):
    """Vector/matrix sizes are inconsistent (e.g. model vs. dataset width)."""

    exit_code = EXIT_DIMENSION


class NumericalError(HybridlocError):
    """A numerical operation failed (singular system, divergence, non-finite)."""

    exit_code = EXIT_NUMERICAL


class DegenerateGeometryError(NumericalError):
    """Geometry is degenerate (coincident points, zero range, ...)."""


class GimbalLockError(DegenerateGeometryError):
    """The elevation is at +/- 90 degrees so the azimuth rate is undefined."""


class SingularProblemError(NumericalError):
    """Normal equations or an information matrix are numerically singular."""


class CampaignFailedError(NumericalError):
    """Every trial of a Monte Carlo campaign failed numerically."""
