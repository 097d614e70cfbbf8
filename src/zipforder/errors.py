"""Semantic exception hierarchy.

Public functions never raise bare ValueError/RuntimeError/OverflowError for
contract violations or results beyond the float range; they raise one of
the types below so callers (and the CLI) can distinguish usage errors from
numerical failures.
"""


class ZipfOrderError(Exception):
    """Base error for this package."""


class DomainError(ZipfOrderError, ValueError):
    """An argument lies outside the domain a function is defined on."""


class ConvergenceError(ZipfOrderError, RuntimeError):
    """An iterative method failed to reach the requested tolerance."""


class ConfigurationError(ZipfOrderError, RuntimeError):
    """Parameters admit no valid configuration (e.g. no finite horizon)."""


class ParseError(ZipfOrderError, ValueError):
    """Malformed input data.

    ``line`` is the 1-based line number of the offending record when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
