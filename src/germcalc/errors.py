"""Exception hierarchy shared by every module."""

from __future__ import annotations


class GermError(Exception):
    """Base class for all library errors."""


class ValidationError(GermError):
    """A value violates a documented structural constraint."""


class BadParameters(ValidationError):
    """Numeric parameters outside an operation's domain."""


class NotApplicable(GermError):
    """An operation's precondition does not hold for this input."""


class GlueMismatch(GermError):
    """Conductor gluing data is absent or inconsistent."""


class LimitExceeded(GermError):
    """An input asks for more work than a declared limit allows."""


class ParseError(GermError):
    """Malformed input text. Carries position and expected-token info."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None, expected: str | None = None):
        super().__init__(message)
        self.line = line
        self.column = column
        self.expected = expected
