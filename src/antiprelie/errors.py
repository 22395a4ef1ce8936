"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class FieldMismatchError(ToolkitError):
    """Operands live over different coefficient fields."""


class ShapeMismatchError(ToolkitError):
    """Dimensions of tables, maps or vectors do not line up."""


class NotInvertibleError(ToolkitError):
    """Inversion requested for a non-unit scalar or singular map."""


class ParseError(ToolkitError):
    """Malformed coefficient expression or data file."""


class PreconditionError(ToolkitError):
    """A documented precondition of a construction does not hold."""


class ConstraintError(ToolkitError):
    """A parameter assignment violates a family constraint."""


class BudgetExceededError(ToolkitError):
    """An exhaustive search would exceed the configured candidate budget,
    or an exact computation a fixed size limit."""


class UnknownEntryError(ToolkitError, KeyError):
    """A catalog lookup names an entry the catalog does not have."""
    __str__ = Exception.__str__  # KeyError's would quote the message
