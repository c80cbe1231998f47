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
