"""Exception hierarchy shared by all modules.

CLI exit codes: 0 success, 2 config error, 3 domain error,
4 verification failure, 5 resource limit.
"""

from __future__ import annotations


class DickeSimError(Exception):
    """Base class for all library errors."""


class DomainError(DickeSimError):
    """An argument is outside the mathematically valid range."""


class DegenerateStateError(DomainError):
    """State construction from an all-zero amplitude vector."""


class InvalidMeasurementError(DomainError):
    """Kraus set violates completeness, or a PVM's rows are not orthonormal."""


class ZeroProbabilityError(DomainError):
    """Conditioning on an outcome whose probability is below threshold."""


class NotSymmetricError(DickeSimError):
    """Dense state is not permutationally symmetric within tolerance.

    ``residual`` is the probability weight outside the symmetric subspace
    (or the worst reconstruction deviation when the weight test passes).
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class ResourceLimitError(DickeSimError):
    """Dense-oracle request above its qubit cap, or a compact state above MAX_STATE_ENTRIES."""


class ConfigError(DickeSimError):
    """Malformed CLI configuration or input document."""


# CLI exit codes
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_VERIFY_FAILED = 4
EXIT_RESOURCE = 5
