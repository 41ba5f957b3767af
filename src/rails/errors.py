"""Exception types shared across the package.

Structural failures (unstable pencils, impossible reductions, forcing on
constraint rows) get their own classes so the command line layer can map
them onto distinct exit codes. Plain argument mistakes raise ValueError.
All of them are exported from ``rails``.
"""

__all__ = [
    "RailsError",
    "StabilityError",
    "SingularMatrixError",
    "ReductionImpossibleError",
    "ForcingOnConstraintError",
    "NoUniqueSolutionError",
    "OracleSizeError",
    "SimulationBlowupError",
    "InvalidCovarianceError",
    "GenerationError",
]


class RailsError(Exception):
    """Base class for solver-specific failures."""


class StabilityError(RailsError):
    """A coefficient matrix or pencil has an eigenvalue with Re >= 0."""


class SingularMatrixError(RailsError):
    """A matrix that must be invertible is singular or near-singular."""


class ReductionImpossibleError(RailsError):
    """The constraint block A11 cannot be factorized."""


class ForcingOnConstraintError(RailsError):
    """The noise matrix B has a nonzero entry on an algebraic row."""


class NoUniqueSolutionError(RailsError):
    """The Lyapunov operator is singular (eigenvalue pairing hits zero)."""


class OracleSizeError(RailsError):
    """A dense verification oracle was asked for a problem above its cap."""


class SimulationBlowupError(RailsError):
    """The explicit integrator diverged."""

    def __init__(self, step, norm):
        self.step = step
        self.norm = norm
        super().__init__(
            f"trajectory norm {norm:.3e} exceeded 1e12 at step {step}; "
            f"reduce dt or check pencil stability"
        )


class InvalidCovarianceError(RailsError):
    """A covariance factor has a nonpositive eigenvalue where positive ones are required."""


class GenerationError(RailsError):
    """A test problem generator could not produce a stable pencil."""
