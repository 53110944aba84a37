"""Exception types shared across the library and the CLI."""
from __future__ import annotations


class QpaError(Exception):
    """Base class for all errors raised by this package."""


class InputError(QpaError):
    """A query or argument violates a documented precondition.

    `verdict` is None, except when decide refuses a struct-simple question:
    there it is the structural gate's "no" Verdict, whose witness replays.
    """

    verdict: object | None = None


class FormatError(InputError):
    """A textual input file is malformed.

    Carries the 1-based line and column of the offending token so the CLI
    can point at it.
    """

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class BudgetExceededError(QpaError):
    """A configured resource budget was exhausted before an answer was found.

    This is always raised instead of returning a possibly wrong answer.
    `best` optionally carries the best partial result achieved (used by the
    limit-word synthesizer).
    """

    def __init__(self, message: str, best: object | None = None):
        super().__init__(message)
        self.best = best
