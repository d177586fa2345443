"""Exception types raised across the package.

Checks that are *about* the input (does this matrix square to -Id?) never
raise; they produce report entries.  Exceptions are reserved for misuse:
wrong shapes, missing data, or preconditions a caller promised to uphold.

One exception crosses that line on purpose: ``BadAtPoint``, "the input
cannot be evaluated at this point".  It is raised where the evaluation
fails, with the point and a short reason:

  * ``calculus.ConnectionData`` (``metric not finite``, ``metric degenerate``);
  * ``calculus.pullback_endomorphism`` (``jacobian singular``);
  * the residuals of ``calculus.is_integrable_structure`` (``not a <kind>
    structure``);
  * ``bundle.ChartAtlas.transition_at`` (``transition a->b not finite``,
    ``transition a->b not invertible``);
  * ``bundle.LocalTensorField.at`` (``field not finite``).

Each check turns it into its failing entry in one place: the grid checks
in ``calculus._grid_report`` (residual inf at the point, the reason as a
note), ``bundle.check_locally_modelled`` in its per-sample loop
(residual inf at the sample).  ``check_cocycle`` and
``check_reduction`` evaluate every sample at once with
``ChartAtlas.transitions_at``, which returns the samples that cannot be
evaluated, with the reasons ``transition_at`` raises, instead of raising.
Only a direct library call of the raising function sees it.
"""


class TensorStructError(Exception):
    """Base class for all package-specific errors."""


class NotSymmetric(TensorStructError):
    pass


class NotPositiveDefinite(TensorStructError):
    pass


class Singular(TensorStructError):
    pass


class MissingDecomposition(TensorStructError):
    pass


class InvalidStructure(TensorStructError):
    pass


class Degenerate(TensorStructError):
    pass


class IncompatibleInputs(TensorStructError):
    pass


class NotInvolutive(TensorStructError):
    pass


class UnsupportedKind(TensorStructError):
    pass


class BadAtPoint(TensorStructError):
    """The input cannot be evaluated at ``point``, for ``reason``."""

    def __init__(self, point, reason):
        self.point = point
        self.reason = reason
        super().__init__(f"{reason} at {point}")


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
