"""Exception types shared across the toolkit."""


class PodromError(Exception):
    """Base of every error the toolkit raises on purpose."""


class InvalidInputError(PodromError, ValueError):
    """An argument violates a documented precondition."""


class ConvergenceError(PodromError, RuntimeError):
    """An iterative kernel hit its iteration or sweep cap."""


class StiffnessError(PodromError, RuntimeError):
    """The adaptive integrator underflowed its step size.

    ``t`` identifies where integration stalled.
    """

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


class RhsEvaluationError(PodromError, RuntimeError):
    """A right-hand-side evaluation returned NaN or infinity."""
