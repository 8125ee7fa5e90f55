"""Exception hierarchy shared by all equigraph modules."""

from __future__ import annotations

from typing import Any


class EquigraphError(Exception):
    """Base class for all errors raised by this package."""


class RationalAlphaError(EquigraphError):
    """The configured alpha is rational (q = 0, or d is a perfect square)."""


class OutOfRangeError(EquigraphError):
    """The configured alpha lies outside the open interval (0, 1)."""


class EmptyIntervalError(EquigraphError):
    """Interval bounds were given in the wrong order."""


class BallTooLargeError(EquigraphError):
    """Requested word-ball radius exceeds the configured maximum."""


class VertexOutOfRangeError(EquigraphError):
    """A vertex point lies outside its side's interval."""


class PreconditionViolatedError(EquigraphError):
    """An operation was called outside its stated precondition."""


class InvalidKError(EquigraphError):
    """K must be an odd positive integer."""


class NotAMatchingError(EquigraphError):
    """A piece assignment does not induce a valid matching."""


class EmptySError(EquigraphError):
    """improve() requires at least one facing pair to rewire."""


class SNotEmptyError(EquigraphError):
    """extract_matching() requires the facing-pair set to be empty."""


class IterationCapError(EquigraphError):
    """The dynamics exceeded the caller-supplied iteration cap."""


class ConfigError(EquigraphError):
    """A run configuration file or flag is malformed or out of bounds."""


# Finding kinds.  A Finding is not a bug in the caller's usage: it is a
# runtime witness that one of the structural properties this package is
# built to check has failed.  Commands surface Findings with exit code 3.
EVEN_PATH_COMPONENT = "EvenPathComponent"
CONNECTOR_MISSING = "ConnectorMissing"
CLAIM1_VIOLATION = "Claim1Violation"


class Finding(EquigraphError):
    """A checked structural property failed; carries a full witness."""

    def __init__(self, kind: str, message: str, witness: dict[str, Any] | None = None):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.message = message
        self.witness = witness or {}
