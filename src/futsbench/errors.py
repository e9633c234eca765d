"""Error hierarchy for the workbench.

Every failure the toolchain can diagnose is raised as a subclass of
:class:`FutsError`, so callers (and the CLI) can catch one type and map
it to a diagnostic exit.  The reference algorithms the tests compare
against live with the tests and raise built-in errors.
"""

from __future__ import annotations


class FutsError(Exception):
    """Base class for all diagnosable workbench errors."""


class ParseError(FutsError):
    """A concrete-syntax error, carrying 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class ModelFileError(FutsError):
    """A model file cannot be read: unknown language, or not UTF-8 text."""


class UndefinedConstantError(FutsError):
    """A process constant is used but never defined."""


class DuplicateConstantError(FutsError):
    """A process constant is defined more than once."""


class UnguardedRecursionError(FutsError):
    """Recursion through constants is not guarded by any prefix."""


class UnknownStateError(FutsError):
    """A weight function mentions a state outside the known state set."""


class ExplorationLimitError(FutsError):
    """State-space exploration exceeded the configured state bound."""


class DelayCycleError(FutsError):
    """Timed behaviour recurses through delays without ever resolving,
    so the timed step would be infinite.
    """


class TimedTransitionCapError(FutsError):
    """The classical timed-transition enumeration exceeded its cap."""
