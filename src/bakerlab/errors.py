"""Exception hierarchy shared by all bakerlab modules, and the one form of a
refusal.

A private ``_*_claim`` of the module that owns a bound states it once and
returns the refusal text or None; ``_refuse`` and ``_require`` raise that
text as "<field> <text>, got <value>".  A refusal keeps the names of the
fields it refuses apart from its text, which holds a ``{field}``
placeholder for each: ``str()`` prints each as the field's own name, and
``named(term)`` as ``term(field)``, a caller's name for it (the CLI's is
the field's flag).  A text that names no fields, such as one that holds a
user's path, is printed as it is and never read as a template."""

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
    """Base class for all package-specific errors; its text holds a
    ``{field}`` placeholder for each name in ``fields``."""

    def __init__(self, text: str = "", *fields: str):
        super().__init__(text)
        self.fields = fields

    def named(self, term: Callable[[str], str]) -> str:
        """The text, each field's placeholder filled with ``term(field)``."""
        text = self.args[0]
        return text.format_map({field: term(field) for field in self.fields}) if self.fields else text

    def __str__(self) -> str:
        return self.named(str)


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


def _refusal(template: str, error: type = DomainError) -> BakerlabError:
    """``error`` over ``template``, a refusal the library wrote, whose
    ``{field}`` placeholders name the fields it refuses; every other brace
    is absent, as the values it prints are numbers."""
    return error(template, *dict.fromkeys(part.partition("}")[0] for part in template.split("{")[1:]))


def _refuse(name: str, value, claim_of: Callable, error: type = DomainError) -> None:
    """Raise ``error`` naming the field ``name`` when its claim refuses
    ``value`` (``claim_of(value)`` is not None)."""
    if (claim := claim_of(value)) is not None:
        raise _refusal(f"{{{name}}} {claim}, got {value}", error)


def _require(values: dict, **claims: Callable) -> None:
    """``_refuse`` the first field named in ``claims`` that ``values`` sets
    (not None) and its claim refuses."""
    for field, claim_of in claims.items():
        if values.get(field) is not None:
            _refuse(field, values[field], claim_of)
