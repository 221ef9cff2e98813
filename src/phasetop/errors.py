"""Exception types shared across the package.

The CLI exits with the raised error's exit_code: 2 for ConfigError, 3 for
every other error.
"""


class PhasetopError(Exception):
    """Base class for all package errors."""

    exit_code = 3


class ConfigError(PhasetopError):
    """Invalid configuration, parameters, or schema."""

    exit_code = 2


class DomainError(PhasetopError):
    """Input outside an operation's mathematical domain."""


class TRIViolationError(DomainError):
    """A field failed the time-reversal check; carries the residual."""

    def __init__(self, residual: float, tol: float):
        super().__init__(
            f"field is not time-reversal invariant: residual {residual:.3e} "
            f"> {tol:g}"
        )
        self.residual = residual


class SingularityError(PhasetopError):
    """Near-singular input where an inverse-like factor is required."""


class ResolutionError(PhasetopError):
    """Sampling too coarse; the caller may refine and retry."""


class BranchError(PhasetopError):
    """No admissible branch cut for a matrix logarithm."""


class ExtensionError(PhasetopError):
    """Relaxation failed to extend a boundary gauge into the domain."""


class TrackingError(PhasetopError):
    """Band-group tracking along a deformation path became ambiguous."""


class GapError(PhasetopError):
    """A band group is not gapped at the requested floor."""


class BoundaryZeroError(PhasetopError):
    """Pfaffian magnitude fell below the zero floor on a boundary loop."""


class DegenerateConfigurationError(PhasetopError):
    """Pfaffian zeros are not isolated; no admissible fundamental domain."""
