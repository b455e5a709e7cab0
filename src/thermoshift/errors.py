"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: invalid input and violated
preconditions exit with 2, numeric failures with 3.
"""


class ThermoshiftError(Exception):
    """Base class for all library errors."""


class InvalidArgumentError(ThermoshiftError):
    """Bad argument or violated precondition (input-class error)."""


class EmptyShiftError(InvalidArgumentError):
    """Transition data prunes down to the empty subshift."""


class ReducibleMatrixError(InvalidArgumentError):
    """Operation requires an irreducible nonnegative matrix."""


class NotTransitiveError(InvalidArgumentError):
    """Operation requires a transitive subshift."""


class ResourceLimitError(ThermoshiftError):
    """An enumeration exceeded its configured cap."""


class UnsupportedDimensionError(InvalidArgumentError):
    """The operation is not defined for the potential's dimension m."""


class OutOfDomainError(InvalidArgumentError):
    """Query point lies outside the rotation set (with margin)."""


class DegenerateFaceError(InvalidArgumentError):
    """Face query returned a vertex where a segment was required."""


class UnderflowError(ThermoshiftError):
    """Shifted transfer weights underflowed entirely; use the
    zero-temperature path instead of pushing t higher."""


class NumericError(ThermoshiftError):
    """Iteration failed to converge to the requested tolerance."""
