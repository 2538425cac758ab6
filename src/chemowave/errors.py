"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class RegimeError(DomainError):
    """Parameters fall outside every regime an operation supports."""


class SpeedError(DomainError):
    """Requested wave speed below the admissible threshold."""


class StepBudgetError(DomainError):
    """A run needs more time steps than the budget of one march."""


class NoConvergence(RuntimeError):
    """Iteration failed to reach its tolerance within the step budget."""

    def __init__(self, message, residual=None, history=None):
        super().__init__(message)
        self.residual = residual
        self.history = list(history or [])       # per-iteration residuals


class BlowupDetected(RuntimeError):
    """Non-finite values appeared during time integration."""

    def __init__(self, message, t=None, x=None):
        super().__init__(message)
        self.t = t
        self.x = x


class StiffnessError(RuntimeError):
    """Automatic time step collapsed below the hard floor."""


class NormalizationError(ValueError):
    """Profile does not cross the normalization level exactly once."""


class WindowTooShort(ValueError):
    """Decay-fit window shorter than the minimum usable length."""


class NoFront(ValueError):
    """Field never crosses the requested level, or its front leaves the window."""


class InternalError(RuntimeError):
    """A condition the solver guarantees impossible was observed."""


class TruncationWarning(UserWarning):
    """Weighted integrand not negligible at the truncation boundary."""
