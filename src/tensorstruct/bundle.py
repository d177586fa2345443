"""Chart atlases with sampled transition functions and isotropy checks.

Transition functions are evaluable matrix-valued maps sampled at declared
overlap points; triple overlaps carry their own shared sample sets.  The
tensor action convention is the single source of truth here:

    kind (1,1):  action(g, T) = g T g^-1       (isotropy = commutation)
    kind (2,0):  action(g, S) = g^-T S g^-1    (isotropy = congruence
                                                invariance of the form)

Sample-set density is the caller's responsibility; reports record how many
points each verdict rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    MissingTransition,
    NonFiniteTransition,
    ShapeMismatch,
    Singular,
    SingularJacobianAtPoint,
    UnsupportedKind,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    fro,
    involution_eigenbases,
    kernel_and_image,
    signature_of,
)
from .report import Report

__all__ = [
    "StructureMatrix",
    "IsotropyGroupSpec",
    "Chart",
    "ConstantTransition",
    "AffineTransition",
    "ChartAtlas",
    "LocalTensorField",
    "tensor_action",
    "in_isotropy",
    "check_cocycle",
    "check_reduction",
    "check_locally_modelled",
]


@dataclass(frozen=True)
class StructureMatrix:
    """Square matrix with a role tag: endomorphism, symmetric or skew form."""

    matrix: np.ndarray
    kind: str  # "1,1" | "2,0"
    symmetry: str = "symmetric"  # only meaningful for kind "2,0"

    def __post_init__(self):
        object.__setattr__(self, "matrix", as_matrix(self.matrix, square=True))
        if self.kind not in ("1,1", "2,0"):
            raise ValueError(f"unknown tensor kind {self.kind!r}")
        if self.symmetry not in ("symmetric", "skew"):
            raise ValueError(f"unknown symmetry tag {self.symmetry!r}")

    @property
    def dim(self):
        return self.matrix.shape[0]


@dataclass(frozen=True)
class IsotropyGroupSpec:
    """Model tensor whose isotropy group the transitions should live in."""

    model: StructureMatrix

    @property
    def dim(self):
        return self.model.dim


@dataclass(frozen=True)
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


class ConstantTransition:
    """x -> T0."""

    def __init__(self, matrix):
        self.matrix = as_matrix(matrix, square=True)

    def __call__(self, x):
        return self.matrix


class AffineTransition:
    """x -> T0 + sum_i x_i T_i."""

    def __init__(self, base, coefficients):
        self.base = as_matrix(base, square=True)
        self.coefficients = [as_matrix(c, square=True) for c in coefficients]

    def __call__(self, x):
        out = self.base.copy()
        for xi, ci in zip(np.atleast_1d(x), self.coefficients):
            out += xi * ci
        return out


def _finite(value, a, b, x):
    """T_ab(x) as a float array; NonFiniteTransition unless it is finite."""
    m = np.asarray(value, dtype=float)
    if not np.isfinite(m).all():
        raise NonFiniteTransition(x, f"transition {a}->{b} not finite at {x}")
    return m


@dataclass
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

    def transition_at(self, a, b, x):
        """Evaluate T_ab(x); T_aa is the identity, T_ba the inverse of T_ab.

        Raises MissingTransition when neither T_ab nor T_ba is declared, and
        NonFiniteTransition when the declared one, or its inverse, is not
        finite at x.
        """
        if a == b:
            return np.eye(self.fiber_dim)
        if (a, b) in self.transitions:
            return _finite(self.transitions[(a, b)](x), a, b, x)
        if (b, a) in self.transitions:
            m = _finite(self.transitions[(b, a)](x), b, a, x)
            try:
                return _finite(np.linalg.inv(m), a, b, x)
            except np.linalg.LinAlgError as exc:
                raise Singular(f"transition {b}->{a} not invertible at {x}") from exc
        raise MissingTransition(f"no transition declared between {a!r} and {b!r}")

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
    in coordinates.  Raises Singular when g is not invertible.
    """
    return StructureMatrix(_acted(g, tensor), tensor.kind, tensor.symmetry)


def _acted(g, tensor: StructureMatrix):
    """The matrix of action(g, T), which may overflow to non-finite entries."""
    g = as_matrix(g, square=True, name="g")
    if g.shape != tensor.matrix.shape:
        raise ShapeMismatch(f"map {g.shape} vs tensor {tensor.matrix.shape}")
    try:
        g_inv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise Singular("tensor action needs an invertible map") from exc
    if tensor.kind == "1,1":
        return g @ tensor.matrix @ g_inv
    return g_inv.T @ tensor.matrix @ g_inv


def in_isotropy(g, spec: IsotropyGroupSpec, tol: Tolerance = DEFAULT_TOL):
    """True iff the action of g fixes the model tensor within tol.

    Acceptance is ``|action(g, T) - T| <= rtol |T| + atol``; an action
    that overflows gives an inf or NaN residual, which is not accepted.
    """
    resid = fro(_acted(g, spec.model) - spec.model.matrix)
    return tol.accepts(resid, fro(spec.model.matrix)), resid


def _location(x):
    """A worst sample's location, ``x`` to 3 digits; "" when there is none."""
    return "" if x is None else np.array2string(np.asarray(x), precision=3)


def _worse(resid, worst):
    """Whether ``resid`` beats ``worst``: larger, or the first NaN."""
    return resid > worst or (math.isnan(resid) and not math.isnan(worst))


def check_cocycle(atlas: ChartAtlas, tol: Tolerance = DEFAULT_TOL) -> Report:
    """Verify T_aa = Id, sampled invertibility, and the triple condition.

    For every declared triple (a, b, c) and each of its sample points the
    residual |T_ac(x) - T_ab(x) T_bc(x)| is measured and accepted at the
    scale max(1, |T_ac(x)|) of that sample; a triple passes when every
    sample does, and the report keeps its worst residual.  A single-chart
    atlas passes vacuously.  A transition that is not finite at a sample
    fails there with residual inf; a NaN residual is the worst.
    """
    report = Report()
    n = atlas.fiber_dim

    for (a, b), points in atlas.overlaps.items():
        worst = 0.0
        ok = True
        for x in np.atleast_2d(points):
            try:
                t = atlas.transition_at(a, b, x)
            except NonFiniteTransition:
                ok, worst = False, np.inf
                continue
            s = np.linalg.svd(t, compute_uv=False)
            if s[-1] <= tol.rank_threshold(s[0]):
                ok = False
                worst = max(worst, float(s[0] / max(s[-1], np.finfo(float).tiny)))
        report.add(f"invertible[{a},{b}]", ok, worst if not ok else 0.0,
                   f"{len(np.atleast_2d(points))} samples")

    # identity on the diagonal wherever a self-transition was declared; a
    # NaN residual is the worst, and no samples leave nothing to fail
    for (a, b), fn in atlas.transitions.items():
        if a == b:
            pts = atlas.overlaps.get((a, b), np.zeros((1, len(atlas.charts[0].lo))))
            worst = float(np.max([fro(np.asarray(fn(x)) - np.eye(n))
                                  for x in np.atleast_2d(pts)], initial=0.0))
            report.add(f"identity_on_diagonal[{a}]", tol.accepts(worst, 1.0), worst)

    if not atlas.triple_overlaps:
        report.note("no triple overlaps declared: cocycle condition vacuous")
    for (a, b, c, points) in atlas.triple_overlaps:
        # each sample is judged at its own scale |T_ac(x)|; the entry keeps
        # the worst absolute residual and the first sample attaining it
        ok = True
        worst = 0.0
        at = None
        for x in np.atleast_2d(points):
            try:
                lhs = atlas.transition_at(a, c, x)
                rhs = atlas.transition_at(a, b, x) @ atlas.transition_at(b, c, x)
            except NonFiniteTransition:
                resid, good = np.inf, False
            else:
                resid = fro(lhs - rhs)
                good = tol.accepts(resid, max(1.0, fro(lhs)))
            ok = ok and good
            if _worse(resid, worst):
                worst, at = resid, x
        report.add(f"cocycle[{a},{b},{c}]", ok, worst, _location(at))

    components = atlas.overlap_connectivity()
    if components > 1:
        report.note(f"overlap graph has {components} components; "
                    "chart cover is disconnected")
    return report


def check_reduction(atlas: ChartAtlas, spec: IsotropyGroupSpec,
                    tol: Tolerance = DEFAULT_TOL) -> Report:
    """Every sampled transition must lie in the model tensor's isotropy group.

    The report starts with the cocycle gate and then carries one entry per
    declared overlap with the worst isotropy residual over its samples; a
    transition that is not finite at a sample fails there with residual
    inf.
    """
    report = check_cocycle(atlas, tol)
    if not report.passed:
        report.note("cocycle precondition failed; isotropy entries reported anyway")
    for (a, b), points in atlas.overlaps.items():
        # the location is the last sample attaining the worst residual
        worst = 0.0
        ok = True
        at = None
        for x in np.atleast_2d(points):
            try:
                inside, resid = in_isotropy(atlas.transition_at(a, b, x), spec, tol)
            except NonFiniteTransition:
                inside, resid = False, np.inf
            if resid >= worst or math.isnan(resid):
                worst, at = resid, x
            ok = ok and inside
        report.add(f"isotropy[{a},{b}]", ok, worst, _location(at))
    return report


# ---------------------------------------------------------------------------
# locally modelled fields
# ---------------------------------------------------------------------------

@dataclass
class LocalTensorField:
    """Per-chart matrix-valued function of a declared tensor kind."""

    kind: str  # "1,1" | "2,0"
    evaluators: dict  # chart name -> callable x -> matrix
    symmetry: str = "symmetric"

    def at(self, chart_name, x):
        value = np.asarray(self.evaluators[chart_name](x), dtype=float)
        if not np.all(np.isfinite(value)):
            raise ValueError(f"field not finite on {chart_name} at {x}")
        return value


def _orbit_class(model: StructureMatrix, tol):
    """Classify the model tensor by the complete orbit invariant we support."""
    m = model.matrix
    n = m.shape[0]
    scale = max(fro(m) ** 2, 1.0)
    if model.kind == "2,0":
        if model.symmetry == "symmetric":
            return ("signature", signature_of(m, tol))
        return ("rank", kernel_and_image(m, tol)[2])
    if tol.accepts(fro(m @ m + np.eye(n)), scale):
        return ("complex", None)
    if tol.accepts(fro(m @ m - np.eye(n)), scale):
        # the signature: dimensions of the +1 and -1 eigenspaces
        return ("involution", tuple(b.shape[1] for b in involution_eigenbases(m, tol)))
    if tol.accepts(fro(m @ m), scale):
        return ("nilpotent", rank_pattern(m, tol))
    raise UnsupportedKind(
        "no complete orbit invariant for this (1,1) tensor; supported: "
        "complex, involutive, nilpotent-of-order-2")


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


def _same_orbit(value, model_class, tol):
    """(passed, residual) for 'value lies in the model tensor's orbit'."""
    label, invariant = model_class
    n = value.shape[0]
    scale = max(fro(value) ** 2, 1.0)
    if label == "signature":
        sym_resid = fro(value - value.T)
        if not tol.accepts(sym_resid, max(fro(value), 1.0)):
            return False, sym_resid
        got = signature_of(value, tol)
        return got == invariant, 0.0 if got == invariant else 1.0
    if label == "rank":
        skew_resid = fro(value + value.T)
        if not tol.accepts(skew_resid, max(fro(value), 1.0)):
            return False, skew_resid
        got = kernel_and_image(value, tol)[2]
        return got == invariant, float(abs(got - invariant))
    if label == "complex":
        resid = fro(value @ value + np.eye(n))
        return tol.accepts(resid, scale), resid
    if label == "involution":
        resid = fro(value @ value - np.eye(n))
        if not tol.accepts(resid, scale):
            return False, resid
        got = tuple(b.shape[1] for b in involution_eigenbases(value, tol))
        return got == invariant, 0.0 if got == invariant else 1.0
    if label == "nilpotent":
        resid = fro(value @ value)
        if not tol.accepts(resid, scale):
            return False, resid
        got = rank_pattern(value, tol)
        return got == invariant, 0.0 if got == invariant else 1.0
    raise UnsupportedKind(label)


def check_locally_modelled(field: LocalTensorField, atlas: ChartAtlas,
                           spec: IsotropyGroupSpec,
                           tol: Tolerance = DEFAULT_TOL) -> Report:
    """Is the field, chart by chart, in the orbit of the model tensor?

    Instead of solving for a trivializing map at each point (ill-conditioned),
    the check compares complete orbit invariants: signature for symmetric
    forms, rank for skew forms, rank pattern for nilpotent endomorphisms,
    eigenvalue structure for complex/para-complex ones.

    A field whose Jacobian is singular at a sample fails its chart there
    with residual inf and the note ``jacobian singular``.  Raises
    UnsupportedKind when the model tensor has no implemented invariant.
    """
    if field.kind != spec.model.kind:
        raise ShapeMismatch(
            f"field kind {field.kind} vs model kind {spec.model.kind}")
    model_class = _orbit_class(spec.model, tol)
    report = Report()
    report.note(f"orbit invariant: {model_class[0]}")
    singular = False
    for chart in atlas.charts:
        if chart.name not in field.evaluators:
            report.add(f"modelled[{chart.name}]", False, np.inf, "field missing")
            continue
        pts = chart.samples
        if pts.shape[0] == 0:
            report.add(f"modelled[{chart.name}]", True, 0.0, "no samples declared")
            continue
        # the location is the last failing sample attaining the worst residual
        ok = True
        worst = 0.0
        at = None
        for x in pts:
            try:
                value = field.at(chart.name, x)
            except SingularJacobianAtPoint:
                good, resid, singular = False, np.inf, True
            else:
                good, resid = _same_orbit(value, model_class, tol)
            if not good and resid >= worst:
                worst, at = resid, x
            ok = ok and good
        report.add(f"modelled[{chart.name}]", ok, worst,
                   _location(at) or f"{pts.shape[0]} samples")
    if singular:
        report.note("jacobian singular")
    return report
