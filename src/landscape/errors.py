"""Exception types shared across the package."""


class LandscapeError(Exception):
    """Base class for all package-specific failures."""


class NumericalError(LandscapeError):
    """Base class for degenerate-data and numerical failures (CLI exit 2)."""


class RankDeficient(NumericalError):
    """Linear system matrix lost row rank at the working tolerance."""


class DegenerateInput(NumericalError):
    """Matrix handed to a null-space routine is not in generic position."""


class ShapeMismatch(LandscapeError):
    """Operands have incompatible dimensions."""


class InstanceTooLarge(LandscapeError):
    """Exhaustive oracle asked to enumerate more subsets than its cap allows."""


class DegenerateData(NumericalError):
    """Dataset sits on a measure-zero configuration the construction cannot use."""


class BadLeak(LandscapeError):
    """Leak parameter value makes the unit linear (rho = 1)."""


class TargetTooSmall(LandscapeError):
    """Requested hidden width is below the constructed width."""


class ZeroVector(NumericalError):
    """A vector required to be nonzero has zero norm."""


class ZeroColumn(NumericalError):
    """A matrix column required to be nonzero has zero norm."""


class DomainError(LandscapeError):
    """Argument outside the mathematical domain of the evaluator."""


class NonFinite(NumericalError):
    """Training loss became NaN or infinite."""

    def __init__(self, epoch, message=None):
        self.epoch = epoch
        super().__init__(message or f"loss became non-finite at epoch {epoch}")


class DatasetFormatError(LandscapeError):
    """Dataset file violates the CSV format contract."""


class LabelDomainError(LandscapeError):
    """Dataset label outside {0, 1}."""


class ConfigError(LandscapeError):
    """Run configuration is missing or carries unknown/invalid keys."""


class UsageError(LandscapeError):
    """Command line invocation error."""
