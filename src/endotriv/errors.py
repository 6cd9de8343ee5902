"""Typed errors shared across the package.

Exit-code contract for the CLI: DomainError -> 1, CapExceeded -> 2,
AmbiguousCase -> 3, malformed command line -> 64.
"""


class EndotrivError(Exception):
    """Base class for all package errors."""


class DomainError(EndotrivError):
    """Input outside the declared domain (bad prime, invalid orders, ...)."""


class CapExceeded(EndotrivError):
    """An enumeration would exceed the configured element cap."""

    def __init__(self, message, needed=None, cap=None):
        super().__init__(message)
        self.needed = needed
        self.cap = cap


class AmbiguousCase(EndotrivError):
    """A parameter tuple matching no clause of the governing case split.

    Raised instead of guessing; carries the offending tuple for reporting.
    """

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail or {}


class GroupSpecError(EndotrivError):
    """Malformed group specification string (maps to usage exit code)."""

