"""Exception hierarchy shared by all bakerlab modules."""

__all__ = [
    "BakerlabError",
    "DomainError",
    "CapacityError",
    "NormalizationError",
    "InsufficientFluctuationsError",
    "FitError",
    "WorkerError",
]


class BakerlabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(BakerlabError, ValueError):
    """An argument lies outside the mathematically valid domain."""


class CapacityError(BakerlabError, ValueError):
    """A request exceeds a configured size/memory limit."""


class NormalizationError(BakerlabError, ValueError):
    """A statistic cannot be normalized (e.g. zero mean contraction rate)."""


class InsufficientFluctuationsError(BakerlabError, RuntimeError):
    """No admissible (+p, -p) pairs: negative fluctuations were never observed."""


class FitError(BakerlabError, RuntimeError):
    """A least-squares fit is degenerate or under-determined."""


class WorkerError(BakerlabError, RuntimeError):
    """A worker process of an ensemble reduction failed or sent a malformed result."""
