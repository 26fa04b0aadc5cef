"""Exception types shared across the laboratory."""


class QsdError(Exception):
    """Base class for all laboratory errors."""


class ConfigError(QsdError):
    """Invalid run configuration. Collects every violated key."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration: " + "; ".join(self.problems))


class ModelError(QsdError):
    """Model definition violates a structural requirement."""


class DomainError(QsdError):
    """State or argument outside the admissible domain."""


class TruncationError(QsdError):
    """Truncated domain or resolution too small for the requested output."""


class TailDominatedError(QsdError):
    """Requested time too small for the truncated spectral sum.

    Carries t_min, the smallest admissible time for the decomposition,
    and ends its message with advice the caller can act on.
    """

    def __init__(self, t, t_min, K,
                 advice="increase K or evaluate at a larger time"):
        self.t = t
        self.t_min = t_min
        self.K = K
        super().__init__(
            f"t={t:g} is below t_min={t_min:g} for K={K} retained modes; "
            f"{advice}"
        )


class SurvivalUnderflowError(QsdError):
    """Survival probability underflowed; request a smaller time."""


class IntegrabilityError(QsdError):
    """Ground-state mass did not stabilize under domain enlargement."""


class PreconditionError(QsdError):
    """An operation precondition is not met."""
