"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: usage/config errors -> 1,
data errors -> 2, numerical failures -> 3.
"""


class RelgcnError(Exception):
    """Base class for all package errors."""


class ConfigError(RelgcnError):
    """Invalid configuration or command-line usage.

    An error about one setting carries its ``key`` and the value it ``got``,
    the way a ParseError carries its line, and ``msg`` says what the key
    expects; a caller that knows the setting under another key, or the
    value as the user typed it, raises ``ConfigError(exc.msg, key, text)``.
    """

    def __init__(self, message: str, key: str | None = None, got: object = None):
        super().__init__(
            message if key is None else f"expected {message} for {key!r}, got {str(got)!r}"
        )
        self.msg = message
        self.key = key
        self.got = got


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
