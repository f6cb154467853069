"""Semantic exceptions shared across the package."""


class DpcountsError(Exception):
    """Base class for all package errors."""


class DomainError(DpcountsError, ValueError):
    """A numeric argument is outside the mathematical domain of an operation.
    ``index``, when given, is the position of the first entry that breaks
    the rule (for a dataset, the first offending group)."""

    def __init__(self, message: str, index: int | None = None):
        self.index = index
        super().__init__(message)


class UsageError(DpcountsError, ValueError):
    """An operation was called in a way that violates its contract
    (mode mismatch, malformed neighbor pair, wrong vector length)."""


class InfeasibleBudgetError(DpcountsError):
    """The requested privacy budget cannot be met by any prior of the
    requested structure."""


class CsvParseError(DpcountsError):
    """A counts CSV file is malformed. Carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
