"""Exception types shared across the package.

Plain ``ValueError`` is used for invalid arguments; the classes below cover
failures that can only be detected while a computation is running.
"""


class ConvergenceError(RuntimeError):
    """An iterative solver exhausted its iteration budget.

    Carries the per-iteration history so callers can inspect (or persist)
    what happened.
    """

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class NumericalError(RuntimeError):
    """A linear-algebra or quadrature backend failed unexpectedly."""


class DomainError(RuntimeError):
    """A profile left the domain an operation requires (e.g. a momentum
    profile that is not strictly positive where it must be divided by).
    Carries that profile, so callers can still tabulate it."""

    def __init__(self, message, profile=None):
        super().__init__(message)
        self.profile = profile
