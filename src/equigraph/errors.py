"""The package's three error types; the command line exits 2 on a
ConfigError and 3 on a Finding."""

from __future__ import annotations

from typing import Any


class EquigraphError(Exception):
    """A call outside its precondition or range; base of the other two."""


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
