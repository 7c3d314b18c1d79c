"""Exception types shared across the toolkit."""


class HillOctantError(Exception):
    """Base class for all toolkit errors."""


class NonFiniteInput(HillOctantError):
    """An energy or coefficient is nan/inf."""


class StepUnderflow(HillOctantError):
    """The adaptive integrator cannot meet its tolerance."""


class OutsideGap(HillOctantError):
    """Energy lies inside a band where the gap branch is undefined."""


class PoleAt(HillOctantError):
    """Evaluation requested too close to a pole of the Weyl function."""

    def __init__(self, message, lam=None):
        super().__init__(message)
        self.lam = lam


class BracketFailure(HillOctantError):
    """Root counting and bracketing disagree after refinement."""


class CountMismatch(HillOctantError):
    """Number of located eigenvalues differs from the requested count."""


class MultipleRoots(HillOctantError):
    """More than one Wronskian sign change found in a single gap."""


class NotBoundState(HillOctantError):
    """Operation requires a gap hosting a bound state (sign = +1)."""


class InsufficientPoints(HillOctantError):
    """Fewer than four usable grid values for the rate fit."""


class NotNormalized(HillOctantError):
    """Potential must first be shifted so the lowest band edge is 0."""


class NoConvergence(HillOctantError):
    """An optimizer or eigensolver stopped before meeting its tolerance."""

    def __init__(self, message, best_residual=None, potential=None):
        super().__init__(message)
        self.best_residual = best_residual
        self.potential = potential


class IllConditioned(HillOctantError):
    """Jacobian condition number exceeds the safe threshold."""


class SignUnreachable(HillOctantError):
    """No restart produced the requested bound/anti-bound pattern."""


class RhoNotPositive(HillOctantError):
    """Constructed junction potential failed to give m_+(0) > 0."""


class PostconditionFail(HillOctantError):
    """A designed potential violates a guaranteed bound."""


class SeparationFail(HillOctantError):
    """A separating interval is too close to the band clusters."""


class CountChanged(HillOctantError):
    """Perturbation changed an eigenvalue count that must be stable."""


class NoGroundState(HillOctantError):
    """A half-solid factor lacks the required ground state."""


class SpecFormatError(HillOctantError):
    """A potential/config spec file is malformed."""
