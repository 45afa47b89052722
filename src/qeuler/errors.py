"""Exception types shared across the package."""

__all__ = ["QEulerError", "PoleError", "NonConvergenceError", "FloatRangeError", "CurveSampleError"]


class QEulerError(Exception):
    """Base class for library-specific failures."""


class PoleError(QEulerError, ArithmeticError):
    """Evaluation hit a pole: a vanishing rational-function denominator or a
    zero base raised to a bad power."""


class NonConvergenceError(QEulerError, ArithmeticError):
    """A series failed its truncation contract within the configured budget.

    The partial result, when one is meaningful, rides along in ``partial``.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class FloatRangeError(QEulerError, OverflowError):
    """A finite sum's value lies beyond the float range; the underlying
    OverflowError rides along as ``__cause__``."""


class CurveSampleError(QEulerError):
    """A grid sample failed; carries the offending (s, w) indices."""

    def __init__(self, message, s_index, w_index):
        super().__init__(message)
        self.s_index = s_index
        self.w_index = w_index
