"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: usage/config errors -> 1,
data errors -> 2, numerical failures -> 3.
"""


class RelgcnError(Exception):
    """Base class for all package errors."""


class ConfigError(RelgcnError):
    """Invalid configuration or command-line usage."""


class DataError(RelgcnError):
    """Malformed or inconsistent input data."""


class ParseError(DataError):
    """Syntax error in a fact, example or rule file."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {col})" if col is not None else ")")
        super().__init__(message + loc)
        self.msg = message
        self.line = line
        self.col = col


class NumericalError(RelgcnError):
    """Numerical failure (divergence, degenerate matrices)."""
