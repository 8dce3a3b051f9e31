"""Exception types shared across the package."""


class InvlatError(Exception):
    """Base class for all library errors."""


class FieldMismatchError(InvlatError):
    """Operands belong to different fields."""


class InfiniteFieldError(InvlatError):
    """An enumeration was requested over an infinite field."""


class CapExceededError(InvlatError):
    """An enumeration would exceed its configured cap.

    ``count`` is the size that was refused, ``cap`` the configured limit.
    """

    def __init__(self, message, count=None, cap=None):
        super().__init__(message)
        self.count = count
        self.cap = cap


class UndecidedError(InvlatError):
    """A predicate could not be decided at the configured scale."""


class InseparableFactorError(InvlatError):
    """A minimal-polynomial factor is not separable; the semisimple/nilpotent
    splitting does not exist."""


class FactorHintError(InvlatError):
    """A rational factorization hint is missing or fails verification."""


class InconsistentSystemError(InvlatError):
    """A linear system has no solution."""


class SingularMatrixError(InvlatError):
    """Matrix inversion was requested for a singular matrix."""


class ClosureError(InvlatError):
    """A collection of subspaces is not closed under sum/intersection."""


class InvariantError(InvlatError, AssertionError):
    """A self-check of a computed result failed (a defect, not bad input)."""
