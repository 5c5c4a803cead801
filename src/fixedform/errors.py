"""Exception hierarchy.

Public functions raise these instead of bare builtins so callers can tell a
bad numeric argument from a malformed file from an infeasible request.
"""

__all__ = [
    "FixedFormError",
    "ParameterError",
    "GridMismatchError",
    "TargetDomainError",
    "UnknownItemError",
    "FileFormatError",
    "BankFormatError",
    "BudgetError",
]


class FixedFormError(Exception):
    """Base class for every error this package raises deliberately."""


class ParameterError(FixedFormError, ValueError):
    """An argument violates its numeric or structural contract."""


class GridMismatchError(FixedFormError, ValueError):
    """Two curves tabulated on different ability grids were combined."""


class TargetDomainError(FixedFormError, ValueError):
    """A target information function is not strictly positive on the grid."""


class UnknownItemError(FixedFormError, KeyError):
    """A test references an item id that does not exist in the bank."""


class FileFormatError(FixedFormError, ValueError):
    """An input file is malformed; the message names the offending line."""


class BankFormatError(FileFormatError):
    """An item-bank file is malformed; the message names the offending line."""


class BudgetError(FixedFormError, RuntimeError):
    """An exact computation was refused because its combinatorial size
    exceeds the configured budget."""
