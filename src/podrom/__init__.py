"""POD-Galerkin reduced-order modeling toolkit.

Builds orthonormal bases from ODE trajectory snapshots (solutions only, or
solutions plus time derivatives), projects the full system onto them, measures
the true reduction error, and evaluates a-priori error bounds. A discretized
FitzHugh-Nagumo benchmark and an experiment driver are included.
"""

from podrom.errors import (
    ConvergenceError,
    InvalidInputError,
    PodromError,
    RhsEvaluationError,
    StiffnessError,
)

__all__ = [
    "ConvergenceError",
    "InvalidInputError",
    "PodromError",
    "RhsEvaluationError",
    "StiffnessError",
]

__version__ = "0.1.0"
