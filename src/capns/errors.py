"""Exception types, and the number check of configuration fields, shared
across the package."""

import math


def finite_number(value) -> bool:
    """Whether ``value`` is a finite number; a bool (an int to Python) is not."""
    return not isinstance(value, bool) and math.isfinite(value)


class ConfigurationError(ValueError):
    """Invalid or mutually inconsistent configuration values."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of an operation."""


class VacuumBreach(RuntimeError):
    """Density fell to or below the configured floor during a run."""

    def __init__(self, t, min_rho):
        super().__init__(
            f"density floor breached at t={t:.6g} (min rho = {min_rho:.6g})"
        )
        self.t = t
        self.min_rho = min_rho


class NumericBlowup(RuntimeError):
    """Non-finite values appeared in the evolved state."""

    def __init__(self, t, detail=""):
        msg = f"non-finite state at t={t:.6g}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.t = t
        self.detail = detail


class NonContraction(RuntimeError):
    """Fixed-point iteration stopped contracting."""

    def __init__(self, t_end, data_norms, diff_norms):
        super().__init__(
            f"iteration diverged on [0, {t_end:.6g}] "
            f"(data norms {data_norms}, last differences {list(diff_norms)[-4:]})"
        )
        self.t_end = t_end
        self.data_norms = data_norms
        self.diff_norms = list(diff_norms)


class ScheduleStall(RuntimeError):
    """Restart schedule produced a step below the progress floor."""

    def __init__(self, t, bound, floor):
        super().__init__(
            f"existence-time bound {bound:.3g} at t={t:.6g} fell below floor {floor:.3g}"
        )
        self.t = t
        self.bound = bound
        self.floor = floor
