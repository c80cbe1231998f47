"""Exception hierarchy shared by all qbrittle modules."""

__all__ = [
    "QbrittleError",
    "InvalidParameterError",
    "CircuitFormatError",
    "ResourceLimitError",
    "UndefinedStatisticError",
    "NoTransitionError",
]


class QbrittleError(Exception):
    """Base class for all qbrittle errors."""


class InvalidParameterError(QbrittleError):
    """A parameter or input value violates a documented precondition."""


class CircuitFormatError(QbrittleError, ValueError):
    """A serialized circuit or report document cannot be parsed."""


class ResourceLimitError(QbrittleError):
    """A simulation would exceed the configured qubit cap."""


class UndefinedStatisticError(QbrittleError):
    """The requested statistic is undefined for the given data."""


class NoTransitionError(QbrittleError):
    """A compression-ratio sweep found no point with both outcome classes."""


def _shown(value, form=str) -> str:
    """form(value), or the size of an int too long to convert to text (4,300 digits by default)."""
    try:
        return form(value)
    except ValueError:  # raised for such an int only
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
