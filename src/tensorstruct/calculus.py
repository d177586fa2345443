"""Field-level differential computations on a single coordinate chart.

Lie brackets, the bracket-defect (Nijenhuis) tensor, the metric connection
from the Koszul identity, curvature, and covariant derivatives of structure
fields.

One field core serves ``VectorField`` (vector values) and
``TensorFieldOnChart`` (matrix values).  It evaluates a field at one point
or at every row of a ``(P, d)`` array of points, and returns every partial
derivative at once in the derivative mode the field's data selects:

  * polynomial: the field is ``values``, the ``PolyArray`` of its entries
    in row-major order, and its exact partials are ``values.partials()``,
    compiled on first use (the oracle mode); brackets and images of
    polynomial fields are polynomial, built by ``poly.sum_of_products``;
  * analytic: a closed-form gradient callable supplies the partials;
  * finite differences: any callable, differentiated by one batched central
    difference over every point shifted by the step along each axis
    (default step 1e-5).

Built-in fields, brackets and images take point arrays directly; a user
callable is called once per point unless a ``TensorFieldOnChart`` declares
it ``vectorized``.

On coordinate fields the brackets vanish, so the Koszul identity reduces to
``2 g(grad_i e_j, e_k) = d_i g_jk + d_j g_ki - d_k g_ij`` and the Christoffel
array follows by solving with g.  A metric is degenerate when its smallest
singular value is at most the rank threshold of its largest; a bound made
of absolute row and column sums certifies most metrics nondegenerate, and
only the rest take an SVD.  Curvature differentiates the Christoffel
evaluator by central differences with its own step, in every derivative
mode; the CLI passes the field document's ``fd_step`` (else ``--fd-step``).
The grid checks evaluate every grid point and every shifted point they need
in one call, so a check costs a fixed number of numpy calls per block of
points rather than per point.  They decide with a ``Tolerance``, by default
``GRID_TOL`` (absolute 1e-6).  An input that is bad at a point (a field
that is not a structure of the asked kind, a metric that is not finite or
is degenerate, a singular Jacobian) raises ``BadAtPoint`` there, and ``_grid_report`` turns it into
the failing entry: residual inf at that point, and the reason as a note.
That is the one place a grid check catches it.

Conventions: ``christoffel[k, i, j]`` is the e_k-component of the derivative
of e_j along e_i; ``curvature[i, j, k, l]`` is the e_i-component of
R(e_k, e_l) e_j; ``partials(x)[..., i, :]`` is d_i of a vector field and
``partials(x)[..., i, :, :]`` is d_i of a matrix field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BadAtPoint, ShapeMismatch
from .linalg import DEFAULT_TOL, Tolerance
from .poly import Poly, PolyArray, derivative_terms, sum_of_products, term_arrays
from .report import Report, location, worst_at
from .structures import SQUARES

__all__ = [
    "DEFAULT_FD_STEP",
    "GRID_TOL",
    "VectorField",
    "TensorFieldOnChart",
    "ConnectionData",
    "grid_points",
    "lie_bracket",
    "nijenhuis",
    "is_integrable_structure",
    "levi_civita",
    "curvature",
    "is_metric_integrable",
    "covariant_derivative_of_structure",
    "parallel_transport",
    "PolyMap",
    "random_quadratic_diffeo",
    "pullback_metric",
    "pullback_endomorphism",
    "sphere_stereographic_metric",
    "constant_field",
]

DEFAULT_FD_STEP = 1e-5

# the grid checks pass when the worst residual is at most 1e-6
GRID_TOL = Tolerance(atol=1e-6, rtol=0.0)
# A^2 = 0, 1 or -1 within 1e-6 relative to max(|A|^2, 1)
_IDENTITY_TOL = Tolerance(atol=0.0, rtol=1e-6)
# curvature judges a metric degenerate relative to its own size only, so a
# metric scaled by a power of 2 keeps its verdict and its residual's bits
_NONDEGENERATE_TOL = Tolerance(atol=0.0, rtol=DEFAULT_TOL.rtol)

# grid checks hold O(points) intermediate arrays; blocks bound their memory
_BLOCK_POINTS = 2048


def grid_points(lo, hi, counts):
    """Rectangular lattice over the box [lo, hi], counts per axis."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    counts = np.broadcast_to(np.asarray(counts, dtype=int), lo.shape)
    axes = [np.linspace(lo[i], hi[i], counts[i]) for i in range(lo.size)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _shifted(x, offsets):
    """x[..., None, :] + offsets: every point moved by every offset row."""
    return np.asarray(x, dtype=float)[..., None, :] + offsets


def _solve(a, b, points, reason):
    """``np.linalg.solve(a, b)`` over stacks of matrices taken at
    ``points``; when it fails, ``BadAtPoint(reason)`` at the first point,
    in row order, whose own solve fails."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        d = a.shape[-1]
        for point, ap, bp in zip(np.reshape(points, (-1, d)), a.reshape(-1, d, d),
                                 b.reshape(-1, d, b.shape[-1])):
            try:
                np.linalg.solve(ap, bp)
            except np.linalg.LinAlgError:
                raise BadAtPoint(point, reason) from None
        raise


def _check_rows(rows, dim):
    """ShapeMismatch unless ``dim`` >= 1 and every row holds ``dim``
    polynomials in ``dim`` variables."""
    if dim < 1 or any(len(row) != dim or any(p.dim != dim for p in row) for row in rows):
        raise ShapeMismatch(f"polynomial entries need rows of {dim} >= 1 polynomials "
                            f"in {dim} variables")


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class _ChartField:
    """The field core: values of shape ``(dim,) * rank`` and their partials.

    The derivative mode is data: ``values`` (exact; the ``PolyArray`` of the
    entries in row-major order, set by ``_exact``), ``gradient`` (a
    callable ``x, i -> d_i F(x)``) or neither (central differences with
    ``step``).  ``vectorized`` says that ``fn`` and ``gradient`` accept a
    ``(..., d)`` array of points; otherwise they are called once per point.
    """

    def __init__(self, dim, rank, fn, step, gradient, vectorized):
        self.dim = int(dim)
        self.shape = (self.dim,) * rank
        self.fn = fn
        self.step = float(step)
        self.gradient = gradient
        self.vectorized = vectorized
        self.values = None

    def _exact(self, values):
        """This field in polynomial mode: its entries are ``values``, their
        ``PolyArray`` in row-major order."""
        shape = self.shape

        def fn(x):
            x = np.asarray(x, dtype=float)
            return values(x).reshape(x.shape[:-1] + shape)

        self.fn, self.values, self.vectorized = fn, values, True
        # an infinite step means "never the binding constraint" when steps
        # propagate through mixed-mode products and brackets
        self.step = np.inf
        return self

    @cached_property
    def _poly_partials(self):
        return self.values.partials()

    def _on_points(self, fn, x, shape):
        """fn at one point, or stacked over the rows of x (shape per row)."""
        if x.ndim == 1 or self.vectorized:
            return np.asarray(fn(x), dtype=float)
        rows = [fn(p) for p in x.reshape(-1, x.shape[-1])]
        return np.array(rows, dtype=float).reshape(x.shape[:-1] + shape)

    def __call__(self, x):
        """F(x) for one point, or F at every row of a (..., d) array."""
        return self._on_points(self.fn, np.asarray(x, dtype=float), self.shape)

    def partials(self, x):
        """Every partial derivative: ``partials(x)[..., i, ...]`` is d_i F."""
        x = np.asarray(x, dtype=float)
        n = self.dim
        shape = (n,) + self.shape
        if self.values is not None:
            return self._poly_partials(x).reshape(x.shape[:-1] + shape)
        if self.gradient is not None:
            def gradients(p):
                return np.stack([self.gradient(p, i) for i in range(n)], axis=-len(shape))
            return self._on_points(gradients, x, shape)
        offsets = self.step * np.eye(n)
        return (self(_shifted(x, offsets)) - self(_shifted(x, -offsets))) / (2.0 * self.step)


class VectorField(_ChartField):
    """Vector field on a chart, with FD or exact-polynomial derivatives.

    Build from a callable (``VectorField(dim, fn, step=...)``, called once
    per point) or from polynomial components
    (``VectorField.from_polys([p1, .., pd])``).
    """

    def __init__(self, dim, fn: Callable, step=DEFAULT_FD_STEP):
        super().__init__(dim, 1, fn, step, None, False)

    @classmethod
    def from_polys(cls, polys: Sequence[Poly]):
        polys = list(polys)
        _check_rows([polys], len(polys))
        return cls(len(polys), None)._exact(PolyArray(polys))

    @classmethod
    def constant(cls, vec):
        vec = np.atleast_1d(np.asarray(vec, dtype=float))
        dim = vec.size
        return cls.from_polys([Poly.constant(dim, v) for v in vec])

    @classmethod
    def coordinate(cls, dim, index):
        vec = np.zeros(dim)
        vec[index] = 1.0
        return cls.constant(vec)


def _on_arrays(dim, fn, step):
    """A finite-difference vector field whose fn takes point arrays."""
    field = VectorField(dim, fn, step=step)
    field.vectorized = True
    return field


class TensorFieldOnChart(_ChartField):
    """Matrix-valued field of a declared kind ("1,1" or "2,0").

    The derivative mode is data, as in the field core: ``values`` (exact,
    from ``from_polys``), ``gradient`` (a callable ``x, i -> d_i T(x)``) or
    neither (central differences with ``step``).
    """

    def __init__(self, dim, kind, fn: Callable, step=DEFAULT_FD_STEP,
                 gradient: Optional[Callable] = None, vectorized=False):
        if kind not in ("1,1", "2,0"):
            raise ValueError(f"unknown tensor kind {kind!r}")
        super().__init__(dim, 2, fn, step, gradient, vectorized)
        self.kind = kind

    # its own entry, so bench/tracing.py can wrap this class's calls alone
    __call__ = _ChartField.__call__

    @classmethod
    def from_polys(cls, polys, kind):
        _check_rows(polys, len(polys))
        return cls(len(polys), kind, None)._exact(PolyArray(p for row in polys for p in row))

    @classmethod
    def constant(cls, matrix, kind):
        matrix = np.asarray(matrix, dtype=float)
        dim = matrix.shape[0]
        polys = [[Poly.constant(dim, matrix[i, j]) for j in range(dim)]
                 for i in range(dim)]
        return cls.from_polys(polys, kind)

    def apply(self, x_field: VectorField) -> VectorField:
        """Pointwise image field x -> T(x) X(x), staying exact when possible.
        Raises ShapeMismatch when the fields live on different dimensions."""
        dim = self.dim
        if x_field.dim != dim:
            raise ShapeMismatch(f"dimension {dim} vs {x_field.dim}")
        if self.values is not None and x_field.values is not None:
            # component i sums T_ij X_j over j in order
            i, j = np.indices((dim, dim)).reshape(2, -1)
            return VectorField(dim, None)._exact(sum_of_products(
                self.values.terms(), x_field.values.terms(),
                (i, i * dim + j, j, np.ones(dim * dim)), dim))
        return _on_arrays(dim, lambda x: (self(x) @ x_field(x)[..., None])[..., 0],
                          min(self.step, x_field.step))


def _grid_report(name, residuals_of, grid, tol: Tolerance, label) -> Report:
    """One-entry report of the worst per-point residual over the grid.

    ``residuals_of`` maps a block of points to one residual per point.  The
    entry passes when the report's ``tol`` accepts the worst of them (at
    scale 1, a NaN being the worst); its location is the first point
    attaining it, and "" when it is 0 (``report.worst_at``).  The note is ``verdict: <label>``,
    or ``verdict: not <label>`` on failure.  A ``BadAtPoint`` from
    ``residuals_of`` fails the entry with residual inf at its point, and
    its reason follows the verdict as a second note.
    """
    points = np.atleast_2d(np.asarray(grid, dtype=float))
    report = Report(tol=tol)
    try:
        blocks = [residuals_of(points[s:s + _BLOCK_POINTS])
                  for s in range(0, len(points), _BLOCK_POINTS)]
    except BadAtPoint as exc:
        report.add(name, False, np.inf, location(exc.point))
        report.note(f"verdict: not {label}")
        report.note(exc.reason)
        return report
    worst, where = worst_at(np.concatenate(blocks), points) if blocks else (0.0, "")
    report.measured(name, worst, location=where)
    report.note(f"verdict: {label if report.passed else 'not ' + label}")
    return report


# ---------------------------------------------------------------------------
# brackets and the bracket-defect tensor
# ---------------------------------------------------------------------------

def lie_bracket(x_field: VectorField, y_field: VectorField) -> VectorField:
    """[X, Y] = DY . X - DX . Y on a shared chart.

    Polynomial inputs give a polynomial bracket (exact); otherwise the
    bracket differentiates by central differences with the smaller of the
    two steps.  Raises ShapeMismatch when the fields live on different
    dimensions.
    """
    if x_field.dim != y_field.dim:
        raise ShapeMismatch(f"dimension {x_field.dim} vs {y_field.dim}")
    dim = x_field.dim
    if x_field.values is not None and y_field.values is not None:
        # components k < dim are X's and the others Y's; left polynomial
        # k * dim + v is d_v of component k.  Component i sums, over j in
        # order, d_j Y_i X_j and then -d_j X_i Y_j
        x, y = x_field.values.terms(), y_field.values.terms()
        both = tuple(np.concatenate(pair) for pair in zip(x, (y[0] + dim, y[1], y[2])))
        outputs, var, expos, values = derivative_terms(*both)
        i, j = np.indices((dim, dim)).reshape(2, -1).repeat(2, axis=1)
        of_y = np.tile([dim, 0], dim * dim)
        return VectorField(dim, None)._exact(sum_of_products(
            (outputs * dim + var, expos, values), both,
            (i, (i + of_y) * dim + j, j + dim - of_y, np.where(of_y, 1.0, -1.0)), dim))

    def fn(x):
        # partials(x)[..., j, i] = d_j of component i
        return (np.einsum("...j,...ji->...i", x_field(x), y_field.partials(x))
                - np.einsum("...j,...ji->...i", y_field(x), x_field.partials(x)))

    return _on_arrays(dim, fn, min(x_field.step, y_field.step))


def _defect_tensor(a, da):
    """Bracket-defect tensor N[..., k, i, j] = N^k_ij of an endomorphism field.

    From its values ``a[..., k, l] = A^k_l`` and partials
    ``da[..., m, k, l] = d_m A^k_l`` (Kobayashi-Nomizu II, ch. IX):

        N^k_ij = A^l_i d_l A^k_j - A^l_j d_l A^k_i - A^k_l (d_i A^l_j - d_j A^l_i)

    so that N(X, Y) = [AX, AY] - A[AX, Y] - A[X, AY] + A^2 [X, Y].
    """
    along = np.einsum("...li,...lkj->...kij", a, da)
    curl = np.einsum("...ilj->...lij", da)
    curl = curl - np.swapaxes(curl, -1, -2)
    return along - np.swapaxes(along, -1, -2) - np.einsum("...kl,...lij->...kij", a, curl)


def nijenhuis(a_field: TensorFieldOnChart, x_field: VectorField,
              y_field: VectorField, x):
    """Bracket-defect tensor of an endomorphism field at the point x:

        [AX, AY] - A [AX, Y] - A [X, AY] + A^2 [X, Y],

    computed as the contraction N^k_ij X^i Y^j of the tensor at x (A is
    differentiated in its own derivative mode).
    """
    if a_field.kind != "1,1":
        raise ShapeMismatch("defect tensor needs an endomorphism field")
    x = np.asarray(x, dtype=float)
    defect = _defect_tensor(a_field(x), a_field.partials(x))
    return np.einsum("kij,i,j->k", defect, x_field(x), y_field(x))


def is_integrable_structure(field: TensorFieldOnChart, kind, grid,
                            tol: Tolerance = GRID_TOL) -> Report:
    """Evaluate the bracket-defect tensor on coordinate pairs over a grid.

    ``kind`` is "tangent", "para_complex" or "complex"; the report's entry
    is ``defect_tensor_<kind>``, and the verdict for a vanishing defect is
    labelled "integrable" for the first two and only "formally integrable"
    for complex structures (the defect vanishing is necessary but not known
    to be sufficient there).  The residual at a point is the largest norm of
    N(e_i, e_j) over pairs i < j.

    A field that fails its algebraic identity (A^2 = 0, 1 or -1 within 1e-6,
    relative to max(|A|^2, 1)) at some grid point fails the entry with
    residual inf at the first such point and the note ``not a <kind>
    structure``; so does a pullback whose Jacobian is singular at a point
    the check evaluates, with the note ``jacobian singular``.  Both are a
    ``BadAtPoint`` that ``_grid_report`` turns into the entry.
    """
    if kind not in SQUARES:
        raise ValueError(f"unknown structure kind {kind!r}")
    identity = SQUARES[kind] * np.eye(field.dim)
    upper = np.triu_indices(field.dim, 1)

    def residuals(points):
        a = field(points)
        valid = _IDENTITY_TOL.accepts(np.linalg.norm(a @ a - identity, axis=(-2, -1)),
                                      np.maximum(np.linalg.norm(a, axis=(-2, -1)) ** 2, 1.0))
        if not valid.all():
            raise BadAtPoint(points[np.argmin(valid)], f"not a {kind} structure")
        defect = _defect_tensor(a, field.partials(points))[..., upper[0], upper[1]]
        return np.linalg.norm(defect, axis=-2).max(axis=-1, initial=0.0)

    label = "formally integrable" if kind == "complex" else "integrable"
    return _grid_report(f"defect_tensor_{kind}", residuals, grid, tol, label)


# ---------------------------------------------------------------------------
# metric connection and curvature
# ---------------------------------------------------------------------------

@dataclass
class ConnectionData:
    """The metric connection of ``metric`` on coordinate fields.

    ``conn(x)`` is the Christoffel array Gamma[..., k, i, j] at one point or
    at every row of a (..., d) array of points, solved from the Koszul
    identity with the metric's values and partials.  A metric with an entry
    that is not finite raises ``BadAtPoint`` (``metric not finite``) at the
    first such point, in row order; then one whose smallest singular value
    is at most ``tol.rank_threshold`` of its largest raises ``BadAtPoint``
    (``metric degenerate``) at the first such point.  A Gershgorin-type
    lower bound on the smallest singular value certifies most metrics
    nondegenerate, and only the others take an SVD.  A metric that passes
    the rule but is singular to working precision (an absolute threshold
    can accept one) raises the same ``BadAtPoint`` at the first point where
    its solve fails.  ``step`` is the default central-difference step of
    ``curvature``.
    """

    metric: TensorFieldOnChart
    step: float = DEFAULT_FD_STEP
    tol: Tolerance = DEFAULT_TOL

    @property
    def dim(self):
        return self.metric.dim

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        dim = self.dim
        g = self.metric(x)
        finite = np.isfinite(g).all(axis=(-2, -1))
        if not finite.all():
            first = np.unravel_index(np.argmin(finite), finite.shape)
            raise BadAtPoint(x[first], "metric not finite")
        partials = self.metric.partials(x)
        # rhs[..., k, i, j] = (d_i g_jk + d_j g_ik - d_k g_ij) / 2
        rhs = 0.5 * (np.einsum("...ijk->...kij", partials)
                     + np.einsum("...jik->...kij", partials)
                     - partials)
        # Johnson's Gershgorin-type bound (Linear Algebra Appl. 112 (1989)
        # 1-7) sigma_min >= min_i |g_ii| - (R_i + C_i) / 2, with R_i and C_i
        # the off-diagonal absolute row and column sums, is 2 |g_ii| minus
        # half the full sums; `lower` is half of it.  The sum of all |g_ij|,
        # `upper`, bounds sigma_max.  A matrix is certified when its bound
        # exceeds twice the rank threshold of `upper` plus 2**-30 * dim *
        # upper (halved on both sides below, which is exact), and then it is
        # nondegenerate under the SVD rule as well: LAPACK's singular values
        # err by at most p(d) eps sigma_max, and the bound's own rounding by
        # a few dim eps upper, both far below that slack (2**-30 is about
        # 4.8e6 eps); the computed sigma_max stays below twice `upper`,
        # which the factor 2 covers.  An inf or NaN certifies nothing, and
        # every matrix not certified meets the SVD rule itself.
        a = np.abs(g)
        with np.errstate(over="ignore", invalid="ignore"):
            upper = a.sum(axis=(-2, -1))
            sums = (a + a.swapaxes(-1, -2)).sum(axis=-1)
            lower = (a.diagonal(0, -2, -1) - 0.25 * sums).min(axis=-1)
            certified = lower > self.tol.rank_threshold(upper) + 2.0**-31 * dim * upper
        if not certified.all():
            sv = np.linalg.svd(g[~certified], compute_uv=False)
            degenerate = np.zeros_like(certified)
            degenerate[~certified] = sv[..., -1] <= self.tol.rank_threshold(sv[..., 0])
            if degenerate.any():
                first = np.unravel_index(np.argmax(degenerate), degenerate.shape)
                raise BadAtPoint(x[first], "metric degenerate")
        batch = x.shape[:-1]
        gamma = _solve(g, rhs.reshape(batch + (dim, dim * dim)), x, "metric degenerate")
        return gamma.reshape(batch + (dim, dim, dim))


def levi_civita(metric: TensorFieldOnChart,
                tol: Tolerance = DEFAULT_TOL) -> ConnectionData:
    """Metric connection from the Koszul identity on coordinate fields.

    Works for any nondegenerate symmetric field (either signature).  The
    Christoffel array is symmetric in its lower indices by construction;
    degeneracy (judged by ``tol``) raises ``BadAtPoint`` when the connection
    is evaluated.
    """
    if metric.kind != "2,0":
        raise ShapeMismatch("connection needs a (2,0) metric field")
    # exact-mode metrics carry an infinite step; the connection still needs a
    # finite one for the outer derivatives taken by curvature()
    step = metric.step if np.isfinite(metric.step) else DEFAULT_FD_STEP
    return ConnectionData(metric, step, tol)


def curvature(conn: ConnectionData, x, step=None):
    """Curvature array R[..., i, j, k, l] at one point or every row of x.

        R[i, j, k, l] = d_k Gamma[i, l, j] - d_l Gamma[i, k, j]
                        + Gamma[i, k, m] Gamma[m, l, j]
                        - Gamma[i, l, m] Gamma[m, k, j]

    The Christoffel evaluator is differentiated by central differences with
    ``step`` (defaults to the connection's step; ValueError unless
    positive).  It runs once, on every point and its shifts in the order x,
    x + h e_0, x - h e_0, x + h e_1, ...
    """
    x = np.asarray(x, dtype=float)
    dim = conn.dim
    h = float(conn.step if step is None else step)
    if not h > 0:
        raise ValueError(f"step must be positive, got {h!r}")
    offsets = np.zeros((2 * dim + 1, dim))
    offsets[1::2] = h * np.eye(dim)
    offsets[2::2] = -h * np.eye(dim)
    gammas = conn(_shifted(x, offsets))
    gamma = gammas[..., 0, :, :, :]
    # dgamma[..., a, k, i, j] = d_a Gamma[k, i, j]
    dgamma = (gammas[..., 1::2, :, :, :] - gammas[..., 2::2, :, :, :]) / (2.0 * h)
    return (np.einsum("...kilj->...ijkl", dgamma)
            - np.einsum("...likj->...ijkl", dgamma)
            + np.einsum("...ikm,...mlj->...ijkl", gamma, gamma)
            - np.einsum("...ilm,...mkj->...ijkl", gamma, gamma))


def is_metric_integrable(metric: TensorFieldOnChart, grid,
                         tol: Tolerance = GRID_TOL, step=None) -> Report:
    """Flatness check: the metric is an integrable structure iff R vanishes.

    The report's entry is ``curvature_residual``, the Frobenius norm of R at
    the worst grid point; ``step`` is the curvature's central-difference
    step (defaults to the connection's).  A metric not finite or degenerate
    at some point the curvature needs fails the entry with residual inf at
    that point; degeneracy is judged relative to the metric's largest
    singular value alone (``_NONDEGENERATE_TOL``), so scaling a metric by a
    power of 2 changes neither verdict nor residual.
    """
    conn = levi_civita(metric, _NONDEGENERATE_TOL)

    def residuals(points):
        riem = curvature(conn, points, step=step)
        return np.linalg.norm(riem.reshape(len(points), -1), axis=-1)

    return _grid_report("curvature_residual", residuals, grid, tol, "integrable")


def covariant_derivative_of_structure(conn: ConnectionData,
                                      field: TensorFieldOnChart, grid,
                                      tol: Tolerance = GRID_TOL) -> Report:
    """Max norm over the grid of the covariant derivative of a (1,1) field,
    reported as the entry ``covariant_derivative``:

        (grad_i T)[j, k] = d_i T[j, k] + Gamma[j, i, m] T[m, k]
                                       - T[j, m] Gamma[m, i, k].

    A flat connection with a parallel structure field certifies that the
    constant normal form is attainable in some chart.  A metric degenerate,
    or a field not evaluable, at a grid point fails the entry with residual
    inf at that point, as in the other grid checks.
    """
    def residuals(points):
        along = np.moveaxis(conn(points), -2, -3)  # along[p, i] = Gamma[:, i, :]
        t = field(points)[:, None]
        nabla = field.partials(points) + along @ t - t @ along
        return np.linalg.norm(nabla, axis=(-2, -1)).max(axis=-1, initial=0.0)

    return _grid_report("covariant_derivative", residuals, grid, tol, "parallel")


def parallel_transport(conn: ConnectionData, path, vector, steps_per_leg=32):
    """Transport a vector along a polygonal path by RK4 on v' = -Gamma(x' , v).

    ``path`` is a sequence of waypoints; the transport integrates each leg
    with ``steps_per_leg`` Runge-Kutta steps.
    """
    v = np.asarray(vector, dtype=float).copy()
    path = [np.asarray(p, dtype=float) for p in path]
    for start, end in zip(path[:-1], path[1:]):
        direction = end - start
        dt = 1.0 / steps_per_leg

        def rate(t, vec):
            x = start + t * direction
            gamma = conn(x)
            return -np.einsum("kim,i,m->k", gamma, direction, vec)

        t = 0.0
        for _ in range(steps_per_leg):
            k1 = rate(t, v)
            k2 = rate(t + dt / 2, v + dt / 2 * k1)
            k3 = rate(t + dt / 2, v + dt / 2 * k2)
            k4 = rate(t + dt, v + dt * k3)
            v = v + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += dt
    return v


# ---------------------------------------------------------------------------
# built-in fields
# ---------------------------------------------------------------------------

class PolyMap:
    """Polynomial map R^d -> R^d with exact Jacobian entries, from d
    components in d variables (ShapeMismatch otherwise).

    Both the map and its Jacobian evaluate at one point or at every row of a
    (..., d) array of points; each is compiled on its first evaluation, since
    a pullback metric only reads the Jacobian's terms.
    """

    def __init__(self, components: Sequence[Poly]):
        self.components = list(components)
        self.dim = len(self.components)
        _check_rows([self.components], self.dim)

    @cached_property
    def _jac_terms(self):
        """The Jacobian's term table ``(entries, exponents, coefficients)``:
        entry a * d + i is d_i of component a, and each entry's terms come
        in the key order of ``Poly.diff`` (``poly.derivative_terms``)."""
        comp, var, expos, coeffs = derivative_terms(*term_arrays(self.components))
        return comp * self.dim + var, expos, coeffs

    @cached_property
    def _values(self):
        return PolyArray(self.components)

    @cached_property
    def _jac_values(self):
        return PolyArray.from_terms(*self._jac_terms, self.dim * self.dim)

    def __call__(self, x):
        return self._values(x)

    def jacobian(self, x):
        x = np.asarray(x, dtype=float)
        return self._jac_values(x).reshape(x.shape[:-1] + (self.dim, self.dim))


def random_quadratic_diffeo(dim, rng, scale=0.15):
    """x + quadratic perturbation, a diffeomorphism on [-0.5, 0.5]^dim.

    The quadratic coefficients are bounded so the Jacobian stays within
    distance < 1 of the identity on the box.
    """
    unit = np.eye(dim, dtype=int)
    pairs = [(a, b) for a in range(dim) for b in range(a, dim)]
    return PolyMap([Poly(dim, {tuple(unit[i]): 1.0} | {
        tuple(unit[a] + unit[b]): scale * rng.uniform(-1.0, 1.0) for a, b in pairs})
        for i in range(dim)])


def pullback_metric(phi: PolyMap, constant_metric_matrix) -> TensorFieldOnChart:
    """Pullback of a constant metric: g(x) = DPhi(x)^T G0 DPhi(x), polynomial.

    The entries g_ij = sum_ab G0[a, b] J_ai J_bj (J = DPhi) are the
    ``values`` that ``poly.sum_of_products`` builds from the Jacobian's term
    table, with one case for each (i, j, a, b) with G0[a, b] != 0, in that
    order: each coefficient is the float of dict arithmetic summing the
    products in (a, b) order.  Raises ValueError when an exponent of the
    metric exceeds the int64 range: the product of the Jacobian terms of
    x^(2**62) y and of y has the exponent 2**63 in x.
    """
    g0 = np.asarray(constant_metric_matrix, dtype=float)
    d = phi.dim
    cases = np.indices((d,) * 4).reshape(4, -1)
    i, j, a, b = cases[:, g0[cases[2], cases[3]] != 0.0]
    try:
        values = sum_of_products(phi._jac_terms, phi._jac_terms,
                                 (i * d + j, a * d + i, b * d + j, g0[a, b]), d * d)
    except OverflowError:
        raise ValueError("a pullback metric exponent exceeds the int64 range") from None
    return TensorFieldOnChart(d, "2,0", None)._exact(values)


def pullback_endomorphism(phi: PolyMap, constant_matrix,
                          step=DEFAULT_FD_STEP) -> TensorFieldOnChart:
    """Pullback of a constant endomorphism: T(x) = DPhi(x)^-1 T0 DPhi(x).

    The inverse Jacobian is not polynomial, so this field lives in FD mode.
    A Jacobian that is singular at a point raises ``BadAtPoint`` (``jacobian
    singular``) at the first such point, in row order.
    """
    t0 = np.asarray(constant_matrix, dtype=float)

    def fn(x):
        j = phi.jacobian(x)
        return _solve(j, t0 @ j, x, "jacobian singular")

    return TensorFieldOnChart(phi.dim, "1,1", fn, step=step, vectorized=True)


def sphere_stereographic_metric(step=DEFAULT_FD_STEP) -> TensorFieldOnChart:
    """Round-sphere metric 4/(1 + |x|^2)^2 delta on R^2, analytic derivatives."""

    def r2(x):
        return np.einsum("...i,...i->...", x, x)[..., None, None]

    def fn(x):
        return 4.0 / (1.0 + r2(x)) ** 2 * np.eye(2)

    def gradient(x, i):
        return -16.0 * x[..., i, None, None] / (1.0 + r2(x)) ** 3 * np.eye(2)

    return TensorFieldOnChart(2, "2,0", fn, step=step, gradient=gradient,
                              vectorized=True)


def constant_field(matrix, kind="2,0") -> TensorFieldOnChart:
    return TensorFieldOnChart.constant(matrix, kind)
