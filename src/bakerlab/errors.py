"""Exception hierarchy shared by all bakerlab modules, and the one form of a
refusal: a private ``_*_claim`` of the module that owns a bound states it
once and returns the refusal text or None, and ``_refuse`` and
``_require`` raise that text as "<field> <text>, got <value>"."""

from typing import Callable

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


def _in_range(low: int, high: int | None = None) -> Callable[[int], str | None]:
    """The claim of a count that must lie in [low, high], with no cap where
    ``high`` is None: why a count is refused, or None."""

    def claim(count: int) -> str | None:
        if count < low:
            return f"must be >= {low}"
        return f"must be <= {high}" if high is not None and count > high else None

    return claim


def _refuse(name: str, value, claim_of: Callable, error: type = DomainError) -> None:
    """Raise ``error`` in the terms of the field ``name`` when its claim
    refuses ``value`` (``claim_of(value)`` is not None)."""
    if (claim := claim_of(value)) is not None:
        raise error(f"{name} {claim}, got {value}")


def _require(values: dict, name: Callable[[str], str] = str, **claims: Callable) -> None:
    """``_refuse`` the first field named in ``claims`` that ``values`` sets
    (not None) and its claim refuses, in the terms ``name`` prints for it."""
    for field, claim_of in claims.items():
        if values.get(field) is not None:
            _refuse(name(field), values[field], claim_of)
