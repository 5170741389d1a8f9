"""Exception types shared across the toolkit."""


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


class ConvergenceError(RuntimeError):
    """An iterative kernel hit its iteration or sweep cap."""


class StiffnessError(RuntimeError):
    """The adaptive integrator underflowed its step size.

    ``t`` identifies where integration stalled.
    """

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


class RhsEvaluationError(RuntimeError):
    """A right-hand-side evaluation returned NaN or infinity."""
