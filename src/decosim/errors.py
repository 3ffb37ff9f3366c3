"""Exception types shared across the toolkit.

All input-validation failures are ValueError subclasses so callers can catch
them uniformly; runtime numerical failures derive from RuntimeError.
"""

__all__ = ["ConfigurationError", "DimensionError", "DomainError",
           "IntegrationError", "ModelError", "QuadratureError", "StateError",
           "TruncationError"]


class DimensionError(ValueError):
    """Operand shapes or dimensions are incompatible."""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation
    (non-hermitian where hermitian is required, non-unitary basis,
    parameters for which a requested quantity is undefined, ...)."""


class StateError(ValueError):
    """A state container invariant is violated (norm, trace, hermiticity,
    positivity). States failing validation are rejected, never repaired."""


class ModelError(ValueError):
    """A dynamical model is malformed (incomplete Kraus set, negative rate,
    non-hermitian Hamiltonian, ...)."""


class ConfigurationError(ValueError):
    """A run configuration is invalid or numerically inadequate (bad config
    document, step too coarse for the jump cap, bin too small, inadequate
    Fock truncation)."""


class IntegrationError(RuntimeError):
    """Integration produced an invalid state.  Carries the offending time."""

    def __init__(self, message: str, time: float):
        super().__init__(f"{message} (t = {time:.17g})")
        self.time = time


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge to the requested tolerance.
    Carries the achieved error estimate."""

    def __init__(self, message: str, abserr: float):
        super().__init__(f"{message} (estimated error {abserr:.3e})")
        self.abserr = abserr


class TruncationError(RuntimeError):
    """A truncated-basis computation leaked probability into the highest
    retained level beyond the allowed bound."""
