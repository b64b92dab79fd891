"""Exception types shared across the package."""


class Error(Exception):
    """Base class for all quadfactor errors."""


class NegativeSquareError(Error):
    """Raised when -b is a perfect square, so some n^2 + b would vanish."""


class OutOfDomainError(Error):
    """Raised when a value lies outside an operation's domain (e.g. m <= 1)."""


class CapExceededError(Error):
    """Raised when a request exceeds a documented hard cap."""


class PreconditionViolatedError(Error):
    """Raised when a caller violates a documented precondition."""


class WindowOutOfRangeError(Error):
    """Raised when a window sum is requested outside the stored histogram."""


class NonConvergenceError(Error):
    """Raised when an iteration fails to converge within its budget."""
