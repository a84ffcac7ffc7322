"""Exception types shared across the package, and the one minimum-count rule.

One type per exit code: DomainError for a caller's fault (CLI exit 1),
NumericalError for numerics (CLI exit 2).  Of the latter, DegenerateData
names the measure-zero inputs the package refuses and NonFinite carries
the epoch where a loss diverged.
"""


class LandscapeError(Exception):
    """Base class for all package-specific failures."""


class NumericalError(LandscapeError):
    """Base class for degenerate-data and numerical failures (CLI exit 2)."""


class DomainError(LandscapeError, ValueError):
    """A caller's argument breaks a rule of the function it is passed to (CLI exit 1)."""


class DegenerateData(NumericalError):
    """Data sits on a measure-zero configuration: a matrix lost rank at the working
    tolerance, or a vector that must be nonzero has zero norm."""


class NonFinite(NumericalError):
    """Training loss became NaN or infinite."""

    def __init__(self, epoch):
        self.epoch = epoch
        super().__init__(f"loss became non-finite at epoch {epoch}")


def require_at_least(low, **counts):
    """Reject the first count below low, by name, before any draw, SVD or training step."""
    for name, value in counts.items():
        if value < low:
            raise DomainError(f"{name} must be at least {low}, got {value}")
