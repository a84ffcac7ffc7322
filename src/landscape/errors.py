"""Exception types shared across the package, and the one minimum-count rule."""


class LandscapeError(Exception):
    """Base class for all package-specific failures."""


class NumericalError(LandscapeError):
    """Base class for degenerate-data and numerical failures (CLI exit 2)."""


class DomainError(LandscapeError, ValueError):
    """A caller's argument breaks a rule of the function it is passed to (CLI exit 1)."""


class ShapeMismatch(DomainError):
    """Operands have incompatible dimensions."""


class InstanceTooLarge(DomainError):
    """Exhaustive oracle asked to enumerate more subsets than its cap allows."""


class DegenerateData(NumericalError):
    """Data sits on a measure-zero configuration: a matrix lost rank at the working tolerance."""


class BadLeak(DomainError):
    """Leak parameter is not finite or makes the unit linear (rho = 1)."""


class TargetTooSmall(DomainError):
    """Requested hidden width is below the constructed width."""


class ZeroVector(NumericalError):
    """A vector required to be nonzero has zero norm."""


class NonFinite(NumericalError):
    """Training loss became NaN or infinite."""

    def __init__(self, epoch, message=None):
        self.epoch = epoch
        super().__init__(message or f"loss became non-finite at epoch {epoch}")


class DatasetFormatError(DomainError):
    """Dataset file violates the CSV format contract, labels in {0, 1} included."""


def require_at_least(low, **counts):
    """Reject the first count below low, by name, before any draw, SVD or training step."""
    for name, value in counts.items():
        if value < low:
            raise DomainError(f"{name} must be at least {low}, got {value}")
