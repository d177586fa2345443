"""Exception types raised across the package.

Checks that are *about* the input (does this matrix square to -Id?) never
raise; they produce report entries.  Exceptions are reserved for misuse:
wrong shapes, missing data, or preconditions a caller promised to uphold.
"""


class TensorStructError(Exception):
    """Base class for all package-specific errors."""


class NotSymmetric(TensorStructError):
    pass


class NotPositiveDefinite(TensorStructError):
    pass


class Singular(TensorStructError):
    pass


class InvalidDecomposition(TensorStructError):
    pass


class MissingDecomposition(TensorStructError):
    pass


class InvalidStructure(TensorStructError):
    pass


class Degenerate(TensorStructError):
    pass


class IncompatibleInputs(TensorStructError):
    pass


class NotPositive(TensorStructError):
    pass


class NotInvolutive(TensorStructError):
    pass


class InvalidTriple(TensorStructError):
    pass


class UnsupportedKind(TensorStructError):
    pass


class ModeMismatch(TensorStructError):
    pass


class DegenerateMetricAtPoint(TensorStructError):
    def __init__(self, point, message=""):
        self.point = point
        super().__init__(message or f"metric degenerate at {point}")


class SingularJacobianAtPoint(TensorStructError):
    def __init__(self, point, message=""):
        self.point = point
        super().__init__(message or f"jacobian singular at {point}")


class NonFiniteTransition(TensorStructError):
    """A declared transition function is not finite at a sample point."""

    def __init__(self, point, message=""):
        self.point = point
        super().__init__(message or f"transition not finite at {point}")


class ShapeMismatch(TensorStructError):
    pass


class IncoherentSequence(TensorStructError):
    pass


class NotInvertible(TensorStructError):
    def __init__(self, level, message=""):
        self.level = level
        super().__init__(message or f"entry at level {level} is not invertible")


class NotMember(TensorStructError):
    pass


class MissingTransition(TensorStructError):
    """No transition is declared between two charts, in either direction."""
