"""Chart atlases with sampled transition functions and isotropy checks.

Transition functions are evaluable matrix-valued maps sampled at declared
overlap points; triple overlaps carry their own shared sample sets.  A
reduction is checked against a model tensor, a ``StructureMatrix``, whose
isotropy group the transitions must lie in.  This module is the single
source of truth for how the group and its Lie algebra act on that tensor:

    kind (1,1):  action(g, T) = g T g^-1       (isotropy = commutation)
                 algebra(W, T) = W T - T W
    kind (2,0):  action(g, S) = g^-T S g^-1    (isotropy = congruence
                 algebra(W, S) = W^T S + S W    invariance of the form)

``algebra`` is the linearised action at the identity, up to sign, so its
zeros are the isotropy algebra in which an adapted connection of
``limits`` takes its values.  Whether a (1,1) tensor is a complex,
para-complex or tangent structure is read from ``structures.SQUARES``.
Each orbit a field is compared against is one entry of ``_ORBITS``: the
defect that admits a value (``structures.square_defect`` or
``symmetry_defect``) and the value's complete invariant.

Sample-set density is the caller's responsibility; reports record how many
points each verdict rests on.

``check_cocycle`` and ``check_reduction`` take all samples of a
transition at once: ``ChartAtlas.transitions_at`` gives a ``(P, n, n)``
stack and the samples it cannot be evaluated at (not finite, or the
inverse of a singular declared transition, found by ``linalg.batched``),
and each residual is one stacked computation whose every row has the bits
of the one-sample computation (``np.linalg`` and ``matmul`` run each
matrix of a stack alone, and ``linalg.fro_each`` is ``fro`` row by row).
Such a sample fails with residual inf, and so does a singular map, which
lies in no isotropy group.  ``ChartAtlas.transition_at``, the one-sample
case, raises ``BadAtPoint`` there instead, as ``LocalTensorField.at``
does for a field.  ``check_reduction`` judges the overlap stacks that its
cocycle gate evaluated, so each overlap's transition is evaluated once.

``check_locally_modelled`` takes a chart's field values as one stack too:
one call of an evaluator that takes arrays of points, else one call per
sample, where a ``BadAtPoint`` is a failing sample with residual inf.  One
stacked defect admits the values, the orbit invariant is computed once per
distinct admitted value, and charts that share an evaluator and their
samples are evaluated and judged once.  Each entry keeps the worst residual
of its samples by the rule of ``report.worst_index``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadAtPoint, InvalidInput, ShapeMismatch
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    batched,
    fro,
    fro_each,
    involution_eigenbases,
    kernel_and_image,
    signature_of,
)
from .report import Report, worst, worst_at
from .structures import SQUARES, StructureMatrix, square_defect, symmetry_defect

__all__ = [
    "StructureMatrix",
    "Chart",
    "ConstantTransition",
    "AffineTransition",
    "ChartAtlas",
    "LocalTensorField",
    "tensor_action",
    "algebra_action",
    "in_isotropy",
    "check_cocycle",
    "check_reduction",
    "check_locally_modelled",
]


@dataclass(frozen=True, eq=False)
class Chart:
    """Named open box with optional interior sample points."""

    name: str
    lo: np.ndarray
    hi: np.ndarray
    samples: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        pts = np.asarray(self.samples, dtype=float)
        if pts.size == 0:
            pts = np.zeros((0, lo.size))
        object.__setattr__(self, "samples", pts.reshape(-1, lo.size))


class AffineTransition:
    """x -> T0 + sum_i x_i T_i."""

    def __init__(self, base, coefficients):
        self.base = as_matrix(base, square=True)
        self.coefficients = [as_matrix(c, square=True) for c in coefficients]

    def __call__(self, x):
        return self.stacked(np.atleast_1d(x)[None])[0]

    def stacked(self, xs):
        """The value at every row of the ``(P, d)`` points ``xs``.  The terms
        are added in order, element by element, so each matrix has the
        bits of the same sum at its row alone.  Raises ShapeMismatch unless
        every point has one coordinate per coefficient (any number when
        there are none)."""
        if self.coefficients and len(xs) and np.shape(xs)[1] != len(self.coefficients):
            raise ShapeMismatch(f"{np.shape(xs)[1]} coordinates for {len(self.coefficients)} terms")
        out = self.base[None].repeat(len(xs), axis=0)
        for xi, ci in zip(np.asarray(xs, dtype=float).T, self.coefficients):
            out += xi[:, None, None] * ci
        return out


class ConstantTransition(AffineTransition):
    """x -> T0: the affine transition with no coefficients."""

    def __init__(self, matrix):
        super().__init__(matrix, ())


def _inverted(stack):
    """The inverse of every matrix of a ``(P, n, n)`` stack, and the mask of
    the singular ones, whose rows hold the identity.  Each inverse has the
    bits of ``np.linalg.inv`` of its matrix alone (``linalg.batched``)."""
    out, singular = batched(np.linalg.inv, stack)
    return _masked(out, singular.nonzero()[0]), singular


def _evaluated(evaluator, xs, n):
    """A transition's ``n x n`` values at every row of the points ``xs``, as
    a float stack: one call of a ``stacked`` evaluator, else one call per
    row."""
    if isinstance(evaluator, AffineTransition):
        return evaluator.stacked(xs)
    if not len(xs):
        return np.empty((0, n, n))
    return np.array([evaluator(x) for x in xs], dtype=float)


def _finite_each(stack):
    """Whether each matrix of a stack is finite."""
    return np.isfinite(stack).all((1, 2))


def _masked(stack, rows):
    """A copy of the stack with the identity in ``rows``, or the stack
    itself when there are none."""
    if not len(rows):
        return stack
    out = np.array(stack)
    out[rows] = np.eye(stack.shape[-1])
    return out


@dataclass(eq=False)
class ChartAtlas:
    """Finite chart cover with overlap samples and transition evaluators.

    ``transitions`` maps ordered pairs (a, b) to an evaluator for T_ab;
    ``overlaps`` holds the sample points of each declared pairwise overlap
    and ``triple_overlaps`` those of each declared triple (a, b, c), on
    which T_ac = T_ab T_bc is tested.
    """

    fiber_dim: int
    charts: list
    overlaps: dict = field(default_factory=dict)       # (a, b) -> points array
    transitions: dict = field(default_factory=dict)    # (a, b) -> callable
    triple_overlaps: list = field(default_factory=list)  # (a, b, c, points)

    def chart_names(self):
        return [c.name for c in self.charts]

    def has_transition(self, a, b):
        """Whether ``transition_at(a, b, x)`` is defined: a == b, or T_ab or
        T_ba is declared."""
        return a == b or (a, b) in self.transitions or (b, a) in self.transitions

    def transitions_at(self, a, b, xs):
        """T_ab at every row of the ``(P, d)`` points ``xs``: the declared
        T_ab, else the inverse of the declared T_ba, else the identity when
        a == b.

        Returns a ``(P, n, n)`` stack and the samples T_ab cannot be
        evaluated at, as a dict from row index to the reason: the declared
        one, or its inverse, is not finite there, or the declared T_ba is
        singular there.  Those rows hold the identity.
        An ``AffineTransition``, ``ConstantTransition`` included, is
        evaluated as a stack, any other evaluator row by row.  Raises
        InvalidInput when neither T_ab nor T_ba is declared.
        """
        n = self.fiber_dim
        if (a, b) in self.transitions:
            stack = _evaluated(self.transitions[(a, b)], xs, n)
            failures = [(~_finite_each(stack), f"transition {a}->{b} not finite")]
        elif (b, a) in self.transitions:
            declared = _evaluated(self.transitions[(b, a)], xs, n)
            bad = ~_finite_each(declared)
            stack, singular = _inverted(_masked(declared, bad.nonzero()[0]))
            failures = [(bad, f"transition {b}->{a} not finite"),
                        (singular, f"transition {b}->{a} not invertible"),
                        (~_finite_each(stack), f"transition {a}->{b} not finite")]
        elif a == b:
            return np.eye(n)[None].repeat(len(xs), axis=0), {}
        else:
            raise InvalidInput(f"no transition declared between {a!r} and {b!r}")
        bad = {}  # each sample's first failure
        for failed, reason in failures:
            for k in failed.nonzero()[0]:
                bad.setdefault(int(k), reason)
        return _masked(stack, list(bad)), bad

    def transition_at(self, a, b, x):
        """T_ab(x): the one-sample case of ``transitions_at``.

        Raises InvalidInput when neither T_ab nor T_ba is declared, and
        BadAtPoint(x, reason) when T_ab cannot be evaluated at x.
        """
        stack, bad = self.transitions_at(a, b, np.atleast_2d(np.asarray(x, dtype=float)))
        if bad:
            raise BadAtPoint(x, bad[0])
        return stack[0]

    def overlap_connectivity(self):
        """Connected components of the chart cover's overlap graph."""
        parent = {name: name for name in self.chart_names()}

        def find(u):
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            return u

        for (a, b) in self.overlaps:
            parent[find(a)] = find(b)
        return len({find(name) for name in parent})


def tensor_action(g, tensor: StructureMatrix) -> StructureMatrix:
    """Push a model tensor through an invertible map.

    (1,1) tensors transform by conjugation g T g^-1, (2,0) forms by the
    inverse congruence g^-T S g^-1, matching the pullback action evaluated
    in coordinates.  Raises InvalidInput when g is not invertible.
    """
    acted, singular = _acted(as_matrix(g, square=True, name="g")[None], tensor)
    if singular[0]:
        raise InvalidInput("tensor action needs an invertible map")
    return StructureMatrix(acted[0], tensor.kind, tensor.symmetry)


def _acted(g, tensor: StructureMatrix):
    """The matrices of action(g, T) for the ``(P, n, n)`` stack of maps
    ``g``, which may overflow to non-finite entries, and the mask of the
    singular maps, whose rows hold T."""
    if g.shape[-2:] != tensor.matrix.shape:
        raise ShapeMismatch(f"map {g.shape[-2:]} vs tensor {tensor.matrix.shape}")
    g_inv, singular = _inverted(g)
    g = _masked(g, singular.nonzero()[0])
    if tensor.kind == "1,1":
        return g @ tensor.matrix @ g_inv, singular
    return np.swapaxes(g_inv, -1, -2) @ tensor.matrix @ g_inv, singular


def algebra_action(w, tensor: StructureMatrix):
    """algebra(W, T) for every matrix W of the stack ``w``: zero exactly
    when W lies in the isotropy algebra of the model tensor."""
    t = tensor.matrix
    if tensor.kind == "1,1":
        return w @ t - t @ w
    return np.swapaxes(w, -1, -2) @ t + t @ w


def in_isotropy(g, model: StructureMatrix, tol: Tolerance = DEFAULT_TOL):
    """True iff the action of g fixes the model tensor within tol.

    Acceptance is ``|action(g, T) - T| <= rtol |T| + atol``; an action
    that overflows gives an inf or NaN residual, which is not accepted.  A
    singular g lies in no isotropy group: ``(False, inf)``.
    """
    acted, singular = _acted(as_matrix(g, square=True, name="g")[None], model)
    if singular[0]:
        return False, np.inf
    resid = fro(acted[0] - model.matrix)
    return tol.accepts(resid, fro(model.matrix)), resid


def check_cocycle(atlas: ChartAtlas, tol: Tolerance = DEFAULT_TOL) -> Report:
    """Verify T_aa = Id, sampled invertibility, and the triple condition.

    For every declared triple (a, b, c) and each of its sample points the
    residual |T_ac(x) - T_ab(x) T_bc(x)| is measured and accepted at the
    scale |T_ac(x)| of that sample; a triple passes when every
    sample does, and the report keeps its worst residual (``report.worst``)
    and the first sample attaining it.  A single-chart atlas passes
    vacuously.  A transition that cannot be evaluated at a sample fails
    there with residual inf.
    """
    return _cocycle(atlas, tol)[0]


def _cocycle(atlas: ChartAtlas, tol: Tolerance):
    """``check_cocycle``'s report, and the ``transitions_at`` result of each
    declared overlap: ``{(a, b): (points, stack, bad samples)}``.  Each
    transition is evaluated once at each distinct array of points (by its
    bytes), so a triple sampled where its overlaps are reads their stacks:
    each row of a stack has the bits of its sample alone."""
    report = Report(tol=tol)
    n = atlas.fiber_dim
    overlaps, evaluated = {}, {}

    def transitions_at(a, b, points):
        key = (a, b, points.shape, points.tobytes())
        if key not in evaluated:
            evaluated[key] = atlas.transitions_at(a, b, points)
        return evaluated[key]

    for (a, b), points in atlas.overlaps.items():
        points = np.atleast_2d(points)
        t, bad = transitions_at(a, b, points)
        overlaps[a, b] = points, t, bad
        s = np.linalg.svd(t, compute_uv=False)
        singular = s[:, -1] <= tol.rank_threshold(s[:, 0])
        residuals = np.zeros(len(points))
        for k in singular.nonzero()[0]:
            # the condition number, inf for an exactly singular transition
            residuals[k] = float(s[k, 0]) / float(s[k, -1]) if s[k, -1] else math.inf
        residuals[list(bad)] = math.inf
        report.add(f"invertible[{a},{b}]", not (bad or singular.any()),
                   worst(residuals), f"{len(points)} samples")

    # identity on the diagonal wherever a self-transition was declared; no
    # samples leave nothing to fail
    for (a, b), fn in atlas.transitions.items():
        if a == b:
            pts = atlas.overlaps.get((a, b), np.zeros((1, len(atlas.charts[0].lo))))
            resid = worst(fro_each(_evaluated(fn, np.atleast_2d(pts), n) - np.eye(n)))
            report.measured(f"identity_on_diagonal[{a}]", resid)

    if not atlas.triple_overlaps:
        report.note("no triple overlaps declared: cocycle condition vacuous")
    for (a, b, c, points) in atlas.triple_overlaps:
        # each sample is judged at its own scale |T_ac(x)|
        points = np.atleast_2d(points)
        lhs, bad_ac = transitions_at(a, c, points)
        t_ab, bad_ab = transitions_at(a, b, points)
        t_bc, bad_bc = transitions_at(b, c, points)
        residuals = fro_each(lhs - t_ab @ t_bc)
        residuals[[*bad_ac, *bad_ab, *bad_bc]] = math.inf
        report.measured(f"cocycle[{a},{b},{c}]", residuals, fro_each(lhs),
                        worst_at(residuals, points)[1])

    components = atlas.overlap_connectivity()
    if components > 1:
        report.note(f"overlap graph has {components} components; "
                    "chart cover is disconnected")
    return report, overlaps


def check_reduction(atlas: ChartAtlas, model: StructureMatrix,
                    tol: Tolerance = DEFAULT_TOL) -> Report:
    """Every sampled transition must lie in the model tensor's isotropy group.

    The report starts with the cocycle gate and then carries one entry per
    declared overlap with the worst isotropy residual over its samples, at
    the last sample attaining it; a transition that cannot be evaluated at
    a sample, or is singular there, fails there with residual inf.  Each
    overlap's transitions are the stack the cocycle gate evaluated.
    """
    report, overlaps = _cocycle(atlas, tol)
    if not report.passed:
        report.note("cocycle precondition failed; isotropy entries reported anyway")
    scale = fro(model.matrix)
    for (a, b), (points, g, bad) in overlaps.items():
        acted, singular = _acted(g, model)
        residuals = fro_each(acted - model.matrix)
        residuals[singular] = math.inf
        residuals[list(bad)] = math.inf
        # Tolerance.accepts is monotone in the residual: the worst sample decides
        resid, where = worst_at(residuals, points, last=True)
        report.measured(f"isotropy[{a},{b}]", resid, scale, where)
    return report


# ---------------------------------------------------------------------------
# locally modelled fields
# ---------------------------------------------------------------------------

@dataclass
class LocalTensorField:
    """Per-chart matrix-valued function of a declared tensor kind.

    An evaluator is called at one point ``x``; one whose ``vectorized``
    attribute is true, as the fields of ``calculus`` that declare it, also
    takes a ``(..., d)`` array of points and returns a value per point.
    """

    kind: str  # "1,1" | "2,0"
    evaluators: dict  # chart name -> callable x -> matrix

    def at(self, chart_name, x):
        """The field's value on ``chart_name`` at x; BadAtPoint unless finite."""
        value = np.asarray(self.evaluators[chart_name](x), dtype=float)
        if not np.all(np.isfinite(value)):
            raise BadAtPoint(x, "field not finite")
        return value


def rank_pattern(m, tol=DEFAULT_TOL):
    """Ranks of successive powers, a complete nilpotent conjugation invariant."""
    n = m.shape[0]
    out = []
    p = np.eye(n)
    for _ in range(n):
        p = p @ m
        r = kernel_and_image(p, tol)[2]
        out.append(r)
        if r == 0:
            break
    return tuple(out)


def _involution_signature(m, tol):
    """Dimensions of the +1 and -1 eigenspaces of an involution."""
    return tuple(b.shape[1] for b in involution_eigenbases(m, tol))


# each supported orbit: the defect that admits a value, as (residual,
# scale), and the value's complete invariant.  The entries look their
# functions up by name when called, so a wrapper bound to the module
# attribute (bench/tracing.py installs one) is what runs.
_ORBITS = {
    "signature": (lambda m: symmetry_defect(m, "symmetric"),
                  lambda m, tol: signature_of(m, tol)),
    "rank": (lambda m: symmetry_defect(m, "skew"), lambda m, tol: kernel_and_image(m, tol)[2]),
    "complex": (lambda m: square_defect(m, SQUARES["complex"]), lambda m, tol: None),
    "involution": (lambda m: square_defect(m, SQUARES["para_complex"]),
                   lambda m, tol: _involution_signature(m, tol)),
    "nilpotent": (lambda m: square_defect(m, SQUARES["tangent"]),
                  lambda m, tol: rank_pattern(m, tol)),
}


def _orbit_class(model: StructureMatrix, tol):
    """Classify the model tensor by the complete orbit invariant we support:
    a (2,0) form by its symmetry tag, a (1,1) tensor by the first of the
    complex, involution and nilpotent orbits that admits it."""
    m = model.matrix
    if model.kind == "2,0":
        label = "signature" if model.symmetry == "symmetric" else "rank"
        return (label, _ORBITS[label][1](m, tol))
    for label in ("complex", "involution", "nilpotent"):
        defect, invariant = _ORBITS[label]
        if tol.accepts(*defect(m)):
            return (label, invariant(m, tol))
    raise InvalidInput(
        "no complete orbit invariant for this (1,1) tensor; supported: "
        "complex, involutive, nilpotent-of-order-2")


def _same_orbit(values, model_class, tol):
    """(passed, residuals) for 'each matrix of the ``(P, n, n)`` stack
    ``values`` lies in the model tensor's orbit': the defect of a value the
    orbit does not admit, else ``|got - want|`` for a rank and 0 or 1 for
    any other invariant.  The defect is one stacked call, and the invariant
    is computed once for each distinct admitted value (by its bytes)."""
    label, want = model_class
    defect, invariant = _ORBITS[label]
    residuals, scales = defect(values)
    passed = np.zeros(len(values), dtype=bool)
    invariants = {}  # the invariant of each distinct admitted value
    for k in np.flatnonzero(tol.accepts(residuals, scales)):
        key = values[k].tobytes()
        if key not in invariants:
            invariants[key] = invariant(values[k], tol)
        got = invariants[key]
        passed[k] = got == want
        residuals[k] = abs(got - want) if label == "rank" else float(got != want)
    return passed, residuals


def check_locally_modelled(field: LocalTensorField, atlas: ChartAtlas,
                           model: StructureMatrix,
                           tol: Tolerance = DEFAULT_TOL) -> Report:
    """Is the field, chart by chart, in the orbit of the model tensor?

    Instead of solving for a trivializing map at each point (ill-conditioned),
    the check compares complete orbit invariants: signature for symmetric
    forms, rank for skew forms, rank pattern for nilpotent endomorphisms,
    eigenvalue structure for complex/para-complex ones.

    A chart's samples are evaluated in one call, each point as a one-point
    stack of its own, when its evaluator is ``vectorized``, and otherwise,
    or when that call raises ``BadAtPoint``, one sample at a time; either
    way the values are judged as one stack by ``_same_orbit``.  Taking each
    point as its own stack keeps the bits of the one-point evaluation: a
    matrix product over a block of points may sum in another order.  Charts
    that share an evaluator and the bytes of their samples, as the charts
    of ``reduce --field`` share one field, are evaluated and judged once.

    A field that cannot be evaluated at a sample (``BadAtPoint``: not
    finite there, or a pullback whose Jacobian is singular) fails its chart
    there with residual inf; each distinct reason is noted once, in order
    of first occurrence.  Raises InvalidInput when the model tensor has
    no implemented invariant.
    """
    if field.kind != model.kind:
        raise ShapeMismatch(f"field kind {field.kind} vs model kind {model.kind}")
    model_class = _orbit_class(model, tol)
    report = Report(tol=tol)
    report.note(f"orbit invariant: {model_class[0]}")
    reasons = {}  # the distinct BadAtPoint reasons, in order of first occurrence
    decided = {}  # (evaluator, samples) -> (passed, residuals, bad samples)
    for chart in atlas.charts:
        if chart.name not in field.evaluators:
            report.add(f"modelled[{chart.name}]", False, np.inf, "field missing")
            continue
        pts = chart.samples
        if pts.shape[0] == 0:
            report.add(f"modelled[{chart.name}]", True, 0.0, "no samples declared")
            continue
        evaluator = field.evaluators[chart.name]
        # charts with one evaluator and the same samples have the same values
        key = (id(evaluator), pts.shape, pts.tobytes())
        if key not in decided:
            values = None
            if getattr(evaluator, "vectorized", False):
                try:
                    values = np.asarray(evaluator(pts[:, None]), dtype=float)[:, 0]
                except BadAtPoint:
                    pass  # evaluated one sample at a time below, which finds each bad one
            if values is not None:
                finite = _finite_each(values)
                bad = dict.fromkeys(np.flatnonzero(~finite).tolist(), "field not finite")
                values = values[finite]
            else:
                bad, rows = {}, []  # the samples that cannot be evaluated, and the values
                for k, x in enumerate(pts):
                    try:
                        rows.append(field.at(chart.name, x))
                    except BadAtPoint as exc:
                        bad[k] = exc.reason
                values = np.array(rows)
            good = [k for k in range(len(pts)) if k not in bad]
            passed, residuals = np.zeros(len(pts), dtype=bool), np.full(len(pts), math.inf)
            if good:
                passed[good], residuals[good] = _same_orbit(values, model_class, tol)
            decided[key] = passed, residuals, bad
        passed, residuals, bad = decided[key]
        reasons.update(dict.fromkeys(bad.values()))
        # the entry keeps the last failing sample attaining the worst residual
        failing = np.flatnonzero(~passed)
        resid, where = worst_at(residuals[failing], pts[failing], last=True)
        report.add(f"modelled[{chart.name}]", not len(failing), resid,
                   where or f"{pts.shape[0]} samples")
    for reason in reasons:
        report.note(reason)
    return report
