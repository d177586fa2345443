"""Exception types raised across the package.

Checks that are *about* the input (does this matrix square to -Id?) never
raise; they produce report entries.  Exceptions are reserved for inputs an
operation cannot work with, and every error the package raises for an
input is a ``TensorStructError`` (``documents.DocumentError``, a parse
error, is one too).  There are three kinds of failure:

  * a shape: ``ShapeMismatch``, arrays whose shapes do not fit together;
  * a point: ``BadAtPoint``, the input cannot be evaluated at one point;
  * anything else: ``InvalidInput``, whose message says what the operation
    rejects (a metric that is not positive definite, an operator that
    leaves a flag, an incoherent sequence, an unknown kind).
    ``InvalidInput`` is also a ``ValueError``.

A wrong argument type is a ``TypeError``, as in Python itself.

``BadAtPoint`` crosses the line between checks and errors on purpose: "the
input cannot be evaluated at this point".  It is raised where the
evaluation fails, with the point and a short reason:

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


class ShapeMismatch(TensorStructError):
    """Arrays whose shapes do not fit together."""


class BadAtPoint(TensorStructError):
    """The input cannot be evaluated at ``point``, for ``reason``."""

    def __init__(self, point, reason):
        self.point = point
        self.reason = reason
        super().__init__(f"{reason} at {point}")


class InvalidInput(TensorStructError, ValueError):
    """An input the operation rejects, for the reason in the message."""
