"""Exception types shared across the package."""


class BeckerDoringError(Exception):
    """Base class for all library errors."""


class ParameterError(BeckerDoringError, ValueError):
    """A parameter is outside its admissible range."""


class TailNotDecayedError(ParameterError):
    """A tail profile has not decayed by the truncation end: no dominating
    sequence is built above it."""


class ConfigError(BeckerDoringError, ValueError):
    """An experiment configuration is malformed or inconsistent."""


class SupercriticalError(BeckerDoringError):
    """The requested density is at or above the critical density."""


class NumericalError(BeckerDoringError):
    """A numerical procedure failed to reach its target accuracy."""


class StepSizeUnderflowError(NumericalError):
    """The adaptive integrator shrank the step below the representable floor.

    Carries the time of failure; a larger truncation N or a looser
    ``rel_tol`` are the remedies a caller can apply.
    """

    def __init__(self, t: float, h: float):
        self.t = t
        self.h = h
        super().__init__(
            f"step size underflow at t={t:.6g} (h={h:.3g}); "
            "try a larger truncation N or a looser rel_tol"
        )


class NoSwitchIndexError(BeckerDoringError):
    """No index was found past which fragmentation dominates; the comparison
    rate is too close to the critical monomer density for this truncation."""


class PhiDecayError(BeckerDoringError):
    """The weight sequence violates the required growth-ratio bound."""


class UnboundedGrowthConstantError(BeckerDoringError):
    """The short-time growth constant is unbounded for this weight (the
    weighted increment ratio keeps rising at the end of the scanned range)."""


class FreeEnergyDomainError(BeckerDoringError):
    """A state puts mass where the reference equilibrium is exactly zero."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(
            f"c_{index} > 0 but the equilibrium profile is 0 there "
            "(below the underflow cut); free energy is undefined"
        )
