"""The bundle checks against the per-sample reductions they replace.

The reference functions below are ``check_cocycle``, ``check_reduction``
and ``check_locally_modelled`` as they were before the bundle checks shared
one per-sample loop (now inside ``check_locally_modelled``) and one worst-residual rule
(``report.worst_index``): five reductions, each with its own running
maximum.  On random atlases and fields, with ties, all-zero residuals,
samples that cannot be evaluated, and inf and NaN residuals, the shared
path must give the same names, verdicts, residual bits, locations and
notes.  The one allowed difference is a NaN residual that a reference
reduction dropped: ``invertible``'s ``max(worst, cond)`` and
``modelled``'s ``resid >= worst`` both skip a NaN, where the shared rule
makes it the worst.

``reference_transition_at`` is ``ChartAtlas.transition_at`` as it was
before the checks evaluated each transition at all samples at once
(``ChartAtlas.transitions_at``); every row of a stack must have its bits,
and the stack must mark exactly the samples where it raises.

``reference_same_orbit`` is the one-value orbit decision that the
reference ``check_locally_modelled`` makes at each sample.  The check now
evaluates a chart's samples in one call when the field takes arrays of
points, and decides them as one stack; on the fields of ``calculus``
(polynomial, constant, pullbacks with singular Jacobians, values that
overflow) it must give the reference's entries and notes, bit for bit, for
every orbit of ``bundle._ORBITS``.
"""

import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tensorstruct import bundle, calculus, poly
from tensorstruct.bundle import (
    _ORBITS,
    AffineTransition,
    Chart,
    ChartAtlas,
    ConstantTransition,
    LocalTensorField,
    StructureMatrix,
    _orbit_class,
    check_cocycle,
    check_locally_modelled,
    check_reduction,
    in_isotropy,
)
from tensorstruct.errors import BadAtPoint, InvalidInput, ShapeMismatch
from tensorstruct.linalg import DEFAULT_TOL, Tolerance, fro
from tensorstruct.poly import Poly
from tensorstruct.report import Report

# ---------------------------------------------------------------------------
# the per-sample reductions
# ---------------------------------------------------------------------------


def _location(x):
    """A worst sample's location, ``x`` to 3 digits; "" when there is none."""
    return "" if x is None else np.array2string(np.asarray(x), precision=3)


def _worse(resid, worst):
    """Whether ``resid`` beats ``worst``: larger, or the first NaN."""
    return resid > worst or (math.isnan(resid) and not math.isnan(worst))


def reference_check_cocycle(atlas: ChartAtlas, tol: Tolerance = DEFAULT_TOL) -> Report:
    """Verify T_aa = Id, sampled invertibility, and the triple condition.

    For every declared triple (a, b, c) and each of its sample points the
    residual |T_ac(x) - T_ab(x) T_bc(x)| is measured and accepted at the
    scale |T_ac(x)| of that sample; a triple passes when every
    sample does, and the report keeps its worst residual.  A single-chart
    atlas passes vacuously.  A transition that cannot be evaluated at a
    sample (``BadAtPoint``) fails there with residual inf; a NaN residual
    is the worst.
    """
    report = Report()
    n = atlas.fiber_dim

    for (a, b), points in atlas.overlaps.items():
        worst = 0.0
        ok = True
        for x in np.atleast_2d(points):
            try:
                t = atlas.transition_at(a, b, x)
            except BadAtPoint:
                ok, worst = False, np.inf
                continue
            s = np.linalg.svd(t, compute_uv=False)
            if s[-1] <= tol.rank_threshold(s[0]):
                # the condition number, inf for an exactly singular transition
                ok = False
                worst = max(worst, float(s[0]) / float(s[-1]) if s[-1] else math.inf)
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
            except BadAtPoint:
                resid, good = np.inf, False
            else:
                resid = fro(lhs - rhs)
                good = tol.accepts(resid, fro(lhs))
            ok = ok and good
            if _worse(resid, worst):
                worst, at = resid, x
        report.add(f"cocycle[{a},{b},{c}]", ok, worst, _location(at))

    components = atlas.overlap_connectivity()
    if components > 1:
        report.note(f"overlap graph has {components} components; "
                    "chart cover is disconnected")
    return report


def reference_check_reduction(atlas: ChartAtlas, model: StructureMatrix,
                    tol: Tolerance = DEFAULT_TOL) -> Report:
    """Every sampled transition must lie in the model tensor's isotropy group.

    The report starts with the cocycle gate and then carries one entry per
    declared overlap with the worst isotropy residual over its samples; a
    transition that cannot be evaluated at a sample, or is singular there,
    fails there with residual inf.
    """
    report = reference_check_cocycle(atlas, tol)
    if not report.passed:
        report.note("cocycle precondition failed; isotropy entries reported anyway")
    for (a, b), points in atlas.overlaps.items():
        # the location is the last sample attaining the worst residual
        worst = 0.0
        ok = True
        at = None
        for x in np.atleast_2d(points):
            try:
                inside, resid = in_isotropy(atlas.transition_at(a, b, x), model, tol)
            except BadAtPoint:
                inside, resid = False, np.inf
            if resid >= worst or math.isnan(resid):
                worst, at = resid, x
            ok = ok and inside
        report.add(f"isotropy[{a},{b}]", ok, worst, _location(at))
    return report


def reference_same_orbit(value, model_class, tol):
    """(passed, residual) for 'value lies in the model tensor's orbit': the
    defect of a value the orbit does not admit, else ``|got - want|`` for
    a rank and 0 or 1 for any other invariant."""
    label, want = model_class
    defect, invariant = _ORBITS[label]
    resid, scale = defect(value)
    if not tol.accepts(resid, scale):
        return False, resid
    got = invariant(value, tol)
    if label == "rank":
        return got == want, float(abs(got - want))
    return got == want, 0.0 if got == want else 1.0


def reference_check_locally_modelled(field: LocalTensorField, atlas: ChartAtlas,
                           model: StructureMatrix,
                           tol: Tolerance = DEFAULT_TOL) -> Report:
    """Is the field, chart by chart, in the orbit of the model tensor?

    Instead of solving for a trivializing map at each point (ill-conditioned),
    the check compares complete orbit invariants: signature for symmetric
    forms, rank for skew forms, rank pattern for nilpotent endomorphisms,
    eigenvalue structure for complex/para-complex ones.

    A field that cannot be evaluated at a sample (``BadAtPoint``: not
    finite there, or a pullback whose Jacobian is singular) fails its chart
    there with residual inf; each distinct reason is noted once, in order
    of first occurrence.  Raises InvalidInput when the model tensor has
    no implemented invariant.
    """
    if field.kind != model.kind:
        raise ShapeMismatch(f"field kind {field.kind} vs model kind {model.kind}")
    model_class = _orbit_class(model, tol)
    report = Report()
    report.note(f"orbit invariant: {model_class[0]}")
    reasons = {}  # the distinct BadAtPoint reasons, in order of first occurrence
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
            except BadAtPoint as exc:
                good, resid = False, np.inf
                reasons.setdefault(exc.reason)
            else:
                good, resid = reference_same_orbit(value, model_class, tol)
            if not good and resid >= worst:
                worst, at = resid, x
            ok = ok and good
        report.add(f"modelled[{chart.name}]", ok, worst,
                   _location(at) or f"{pts.shape[0]} samples")
    for reason in reasons:
        report.note(reason)
    return report


def _finite(value, a, b, x):
    """T_ab(x) as a float array; BadAtPoint unless it is finite."""
    m = np.asarray(value, dtype=float)
    if not np.isfinite(m).all():
        raise BadAtPoint(x, f"transition {a}->{b} not finite")
    return m


def reference_transition_at(atlas, a, b, x):
    """Evaluate T_ab(x): the declared T_ab, else the inverse of the
    declared T_ba, else the identity when a == b.

    Raises InvalidInput when neither T_ab nor T_ba is declared, and
    BadAtPoint when the declared one, or its inverse, is not finite at x,
    or the declared T_ba is singular there.
    """
    if (a, b) in atlas.transitions:
        return _finite(atlas.transitions[(a, b)](x), a, b, x)
    if (b, a) in atlas.transitions:
        m = _finite(atlas.transitions[(b, a)](x), b, a, x)
        try:
            return _finite(np.linalg.inv(m), a, b, x)
        except np.linalg.LinAlgError as exc:
            raise BadAtPoint(x, f"transition {b}->{a} not invertible") from exc
    if a == b:
        return np.eye(atlas.fiber_dim)
    raise InvalidInput(f"no transition declared between {a!r} and {b!r}")


# ---------------------------------------------------------------------------
# random atlases and fields
# ---------------------------------------------------------------------------

SAMPLES = np.repeat(np.arange(4.0), 2).reshape(4, 2)  # sample k is the point x = (k, k)

HUGE = 1.5e308
# transitions: few distinct values, so that residuals tie and are often 0.
# 0 is singular; 1e-320 has an infinite inverse and moves a form to NaN;
# 1e-200 and 1e200 overflow the action; inf and NaN cannot be evaluated;
# the huge 2x2 matrix is finite, but both its singular values overflow, so
# its condition number is NaN
TRANSITIONS = {
    1: [[[1.0]], [[1.0]], [[2.0]], [[-2.0]], [[0.5]], [[0.0]], [[1e-320]], [[1e-200]],
        [[1e200]], [[np.inf]], [[np.nan]]],
    2: [np.eye(2), np.eye(2), 2 * np.eye(2), -np.eye(2), [[0.0, -1.0], [1.0, 0.0]],
        np.diag([2.0, 0.5]), [[1.0, 0.0], [0.0, 0.0]], np.diag([1e-320, 1.0]),
        [[HUGE, HUGE], [-HUGE, HUGE]], 1e200 * np.eye(2), [[np.inf, 0.0], [0.0, 1.0]],
        [[np.nan, 0.0], [0.0, 1.0]]],
}
MODELS = {
    1: [StructureMatrix([[1.0]], "2,0"), StructureMatrix([[-1.0]], "2,0"),
        StructureMatrix([[0.0]], "2,0", "skew"), StructureMatrix([[1.0]], "1,1"),
        StructureMatrix([[0.0]], "1,1")],
    2: [StructureMatrix(np.eye(2), "2,0"), StructureMatrix(np.diag([1.0, -1.0]), "2,0"),
        StructureMatrix([[0.0, 1.0], [-1.0, 0.0]], "2,0", "skew"),
        StructureMatrix([[0.0, -1.0], [1.0, 0.0]], "1,1"),
        StructureMatrix(np.diag([1.0, -1.0]), "1,1"),
        StructureMatrix([[0.0, 1.0], [0.0, 0.0]], "1,1")],
}
# field values: in and out of each model's orbit, values whose square
# overflows to inf, and values that cannot be evaluated
FIELD_VALUES = {
    1: [[[1.0]], [[-1.0]], [[0.0]], [[2.0]], [[1e200]], [[np.nan]], [[np.inf]]],
    2: [np.eye(2), -np.eye(2), [[0.0, -1.0], [1.0, 0.0]], [[0.0, 1.0], [-1.0, 0.0]],
        np.diag([1.0, -1.0]), [[0.0, 1.0], [0.0, 0.0]], np.zeros((2, 2)),
        [[0.0, -3.0], [3.0, 0.0]], [[1e200, 1e200], [-1e200, 1e200]],
        [[0.0, -1e200], [1e200, 0.0]], [[np.nan, 0.0], [0.0, 0.0]],
        [[np.inf, 0.0], [0.0, 1.0]]],
}
# the coefficients of an affine transition, T0 + x_0 s_0 E_0 + x_1 s_1 E_1
# with T0 a finite value above and E_i a unit pattern: at x = (k, k) it
# takes 1e200, 1e-320, singular values, inf (1e308 + 1e308) and NaN
# (inf - inf), from finite data
SCALES = [0.0, 1.0, -1.0, 0.5, 1e-320, 1e200, 1e308, -1e308]
PATTERNS = {1: [[[1.0]], [[1.0]]],
            2: [np.eye(2), [[0.0, -1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]}
TOLS = [DEFAULT_TOL, Tolerance(0.0, 1e-15), Tolerance(1e-16, 1e-14)]


def tabulated(values):
    """An evaluator taking ``values[k]`` at the sample x = k."""
    return lambda x: values[int(x[0])]


def draw(rng, pool, size=len(SAMPLES)):
    """One of ``pool`` per sample; about half the draws keep to its first
    two entries, so that residuals tie and are often 0."""
    top = 2 if rng.uniform() < 0.5 else len(pool)
    return [pool[int(rng.integers(0, top))] for _ in range(size)]


def declared(rng, dim):
    """A transition: tabulated values, or a ``ConstantTransition`` or an
    ``AffineTransition`` from the finite values, which the checks evaluate
    as stacks."""
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return tabulated(draw(rng, TRANSITIONS[dim]))
    finite = [m for m in TRANSITIONS[dim] if np.isfinite(m).all()]
    [base] = draw(rng, finite, 1)
    if kind == 1:
        return ConstantTransition(base)
    return AffineTransition(base, [s * np.asarray(e) for s, e in zip(
        draw(rng, SCALES, 2), draw(rng, PATTERNS[dim], 2))])


def points(rng):
    """0 to 4 of the samples, repeats allowed."""
    return SAMPLES[rng.integers(0, len(SAMPLES), size=int(rng.integers(0, 5)))]


def random_atlas(rng, dim, charts):
    """Charts with random samples; each ordered pair of charts, a chart
    with itself included, declares a transition or not; overlaps and
    triples are sampled wherever their transitions exist."""
    names = "abc"[:charts]
    atlas = ChartAtlas(dim, [Chart(name, [-1.0, -1.0], [8.0, 8.0], points(rng))
                             for name in names])
    for u in names:
        for w in names:
            if rng.uniform() < (0.2 if u == w else 0.6):
                atlas.transitions[(u, w)] = declared(rng, dim)
    for u in names:
        for w in names:
            if atlas.has_transition(u, w) and rng.uniform() < 0.7:
                atlas.overlaps[(u, w)] = points(rng)
    for _ in range(int(rng.integers(0, 4))):
        a, b, c = (str(rng.choice(list(names))) for _ in range(3))
        if all(atlas.has_transition(u, w) for u, w in ((a, b), (b, c), (a, c))):
            atlas.triple_overlaps.append((a, b, c, points(rng)))
    return atlas


def random_field(rng, atlas, model):
    """A field of the model's kind on some of the charts."""
    pool = FIELD_VALUES[atlas.fiber_dim]
    return LocalTensorField(model.kind, {chart.name: tabulated(draw(rng, pool))
                                         for chart in atlas.charts if rng.uniform() < 0.8})


def outcome(check, *args):
    """The check's report, or the type and message of what it raised."""
    try:
        with np.errstate(all="ignore"):
            return check(*args)
    except Exception as exc:  # compared, not hidden: both sides must raise alike
        return type(exc), str(exc)


def bits(value):
    return struct.pack("<d", value)


def agree(report, reference):
    """Assert that the shared path gives the reference's entries and notes,
    but for NaN residuals the reference dropped; return their names."""
    if not isinstance(reference, Report):
        assert report == reference
        return []
    assert report.notes == reference.notes
    assert [e.name for e in report.entries] == [e.name for e in reference.entries]
    dropped = []
    for got, want in zip(report.entries, reference.entries):
        if math.isnan(got.residual) and not math.isnan(want.residual):
            # the reduction skipped a NaN; the verdict did not
            assert got.name.startswith(("invertible[", "modelled["))
            assert not got.passed and not want.passed
            if got.name.startswith("invertible["):
                assert got.location == want.location
            dropped.append(got.name)
        else:
            assert (got.passed, bits(got.residual), got.location) == (
                want.passed, bits(want.residual), want.location), got.name
    return dropped


def compare(seed, dim, charts, tol):
    """The three checks and their references on one random atlas, model
    and field; the names of the entries whose NaN the reference dropped."""
    rng = np.random.default_rng(seed)
    atlas = random_atlas(rng, dim, charts)
    model = MODELS[dim][int(rng.integers(0, len(MODELS[dim])))]
    field = random_field(rng, atlas, model)
    dropped = []
    for check, reference, args in [
            (check_cocycle, reference_check_cocycle, (atlas, tol)),
            (check_reduction, reference_check_reduction, (atlas, model, tol)),
            (check_locally_modelled, reference_check_locally_modelled,
             (field, atlas, model, tol))]:
        dropped += agree(outcome(check, *args), outcome(reference, *args))
    return dropped


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2]),
       charts=st.integers(1, 3), tol=st.sampled_from(TOLS))
def test_bundle_checks_match_the_per_sample_reductions(seed, dim, charts, tol):
    compare(seed, dim, charts, tol)


def test_transitions_at_stacks_the_per_sample_transitions():
    """Row k of ``transitions_at`` has the bits of ``transition_at`` and of
    the reference at sample k, and the samples it marks are exactly those
    where they raise, for the same reason."""
    for seed in range(200):
        rng = np.random.default_rng(seed)
        dim = 1 + seed % 2
        atlas = random_atlas(rng, dim, 1 + seed % 3)
        for a, b in itertools.product(atlas.chart_names(), repeat=2):
            xs = points(rng)
            if not atlas.has_transition(a, b):
                with pytest.raises(InvalidInput, match="no transition declared between"):
                    atlas.transitions_at(a, b, xs)
                continue
            with np.errstate(all="ignore"):
                stack, bad = atlas.transitions_at(a, b, xs)
                assert stack.shape == (len(xs), dim, dim)
                assert set(bad) <= set(range(len(xs)))
                for k, x in enumerate(xs):
                    for evaluate in (atlas.transition_at, reference_transition_at.__get__(atlas)):
                        try:
                            want = evaluate(a, b, x)
                        except BadAtPoint as exc:
                            assert bad.get(k) == exc.reason and exc.point is x
                        else:
                            assert k not in bad and stack[k].tobytes() == want.tobytes()


def test_the_random_atlases_reach_every_path(monkeypatch):
    """The draws above include ties, all-zero residuals, samples that
    cannot be evaluated, inf and NaN residuals, and the NaN condition
    numbers the reference ``invertible`` reduction dropped."""
    seen = []  # every residual array the bundle checks reduce
    bad = []  # the samples each stack of transitions could not evaluate

    def spied_worst(residuals):
        seen.append(list(residuals))
        return worst(residuals)

    def spied_worst_at(residuals, points, last=False):
        seen.append(list(residuals))
        return worst_at(residuals, points, last)

    def spied_transitions_at(atlas, a, b, xs):
        stack, failed = transitions_at(atlas, a, b, xs)
        bad.append(failed)
        return stack, failed

    worst, worst_at, transitions_at = bundle.worst, bundle.worst_at, ChartAtlas.transitions_at
    monkeypatch.setattr(bundle, "worst", spied_worst)
    monkeypatch.setattr(bundle, "worst_at", spied_worst_at)
    monkeypatch.setattr(ChartAtlas, "transitions_at", spied_transitions_at)
    dropped = set()
    for seed in range(150):
        names = compare(seed, 1 + seed % 2, 1 + seed % 3, DEFAULT_TOL)
        dropped.update(name.partition("[")[0] for name in names)
    numbers = [r for r in seen if r and not any(map(math.isnan, r))]
    assert any(max(r) > 0 and r.count(max(r)) > 1 for r in numbers)  # a tie
    assert any(len(r) > 1 and not any(r) for r in numbers)  # all zero
    assert any(bad)
    assert any(math.inf in r for r in numbers)
    assert any(any(map(math.isnan, r)) for r in seen)
    assert "invertible" in dropped


def test_a_nan_orbit_residual_is_the_worst_of_its_chart(monkeypatch):
    """A finite field value gives the orbit decision no NaN residual
    (numpy's fused products keep an overflowing square at inf), so one is
    put in by hand, in the one-value decision of the reference and in the
    stacked decision of the check.  The reference drops it; the shared rule
    reports it at the last sample giving it."""
    def same_orbit(value, model_class, tol):
        resid = {2.0: math.nan, 3.0: 5.0}.get(float(value[0, 0]), 0.0)
        return resid == 0.0, resid

    def same_orbit_stacked(values, model_class, tol):
        passed, residuals = zip(*(same_orbit(v, model_class, tol) for v in values))
        return np.array(passed), np.array(residuals)

    monkeypatch.setattr(bundle, "_same_orbit", same_orbit_stacked)
    monkeypatch.setitem(globals(), "reference_same_orbit", same_orbit)
    atlas = ChartAtlas(1, [Chart("a", [-1.0, -1.0], [8.0, 8.0], SAMPLES)])
    model = StructureMatrix([[1.0]], "2,0")
    at = [np.array2string(x, precision=3) for x in SAMPLES]
    # values at the samples; (residual, location) of the shared rule and of
    # the reference
    for values, shared, reference in [
            ([1.0, 3.0, 3.0, 1.0], (5.0, at[2]), (5.0, at[2])),
            ([1.0, 2.0, 3.0, 2.0], (math.nan, at[3]), (5.0, at[2])),
            ([2.0, 1.0, 1.0, 1.0], (math.nan, at[0]), (0.0, "4 samples"))]:
        field = LocalTensorField("2,0", {"a": tabulated([[[v]] for v in values])})
        for check, (residual, where) in [(check_locally_modelled, shared),
                                         (reference_check_locally_modelled, reference)]:
            [entry] = check(field, atlas, model).entries
            assert not entry.passed
            assert (bits(entry.residual), entry.location) == (bits(residual), where)


# ---------------------------------------------------------------------------
# fields that take arrays of points
# ---------------------------------------------------------------------------

P2 = np.diag([1.0, -1.0])
S2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
C2 = np.array([[0.0, -1.0], [1.0, 0.0]])
N2 = np.array([[0.0, 1.0], [0.0, 0.0]])
# one model per orbit of bundle._ORBITS, by label
ORBIT_MODELS = {"signature": StructureMatrix(P2, "2,0"),
                "rank": StructureMatrix(S2, "2,0", "skew"),
                "complex": StructureMatrix(C2, "1,1"),
                "involution": StructureMatrix(P2, "1,1"),
                "nilpotent": StructureMatrix(N2, "1,1")}
# constant values in and out of those orbits; 1e200 C2 squares to inf
CONSTANTS = [np.eye(2), P2, S2, C2, N2, np.zeros((2, 2)), 3.0 * C2, 1e200 * C2]
# sample coordinates: x_0 = -1 makes the Jacobian of FOLD singular, and a
# quadratic term overflows to inf at 1e160
COORDS = [-1.0, -0.5, 0.0, 0.25, 1.0, 1e160]
# (x_0^2 / 2 + x_0, x_1), whose Jacobian diag(x_0 + 1, 1) is singular at x_0 = -1
FOLD = calculus.PolyMap([Poly(2, {(2, 0): 0.5, (1, 0): 1.0}), Poly.coordinate(2, 1)])


def random_poly(rng):
    """A polynomial of degree at most 2 in 2 variables, about half its terms drawn."""
    return Poly(2, {(i, j): rng.normal() for i in range(3) for j in range(3 - i)
                    if rng.uniform() < 0.5})


def negated(p):
    return Poly(p.dim, {e: -c for e, c in p.coeffs.items()})


def array_fields(rng):
    """(kind, field) for fields of ``calculus`` that take arrays of points:
    constant, polynomial (skew, near a structure and arbitrary), pullback
    metrics and endomorphisms, through a random diffeomorphism and through
    ``FOLD``, and the round sphere."""
    [c] = draw(rng, CONSTANTS, 1)
    [t0] = draw(rng, [P2, C2, N2, 3.0 * C2, np.eye(2)], 1)
    diffeo = calculus.random_quadratic_diffeo(2, rng)
    p = random_poly(rng)
    zero = Poly(2, {})
    # C2 plus x_0 times a random matrix: a structure where x_0 = 0 only
    near = [[Poly(2, {(0, 0): C2[i, j], (1, 0): 1e-3 * rng.normal()}) for j in range(2)]
            for i in range(2)]
    return [
        ("2,0", calculus.TensorFieldOnChart.constant(c, "2,0")),
        ("1,1", calculus.TensorFieldOnChart.constant(c, "1,1")),
        ("2,0", calculus.TensorFieldOnChart.from_polys([[zero, p], [negated(p), zero]], "2,0")),
        ("1,1", calculus.TensorFieldOnChart.from_polys(near, "1,1")),
        ("1,1", calculus.TensorFieldOnChart.from_polys(
            [[random_poly(rng) for _ in range(2)] for _ in range(2)], "1,1")),
        ("2,0", calculus.pullback_metric(diffeo, P2)),
        ("2,0", calculus.pullback_metric(FOLD, np.eye(2))),
        ("1,1", calculus.pullback_endomorphism(diffeo, t0)),
        ("1,1", calculus.pullback_endomorphism(FOLD, t0)),
        ("2,0", calculus.sphere_stereographic_metric()),
    ]


def array_atlas(rng):
    """Three charts, each with 0 to 6 samples drawn from ``COORDS`` x
    ``COORDS``, or, for about half the later charts, a copy of the
    previous chart's samples."""
    charts = []
    for name in "abc":
        count = int(rng.integers(0, 7))
        pts = np.array(draw(rng, COORDS, 2 * count)).reshape(count, 2)
        if charts and rng.uniform() < 0.5:
            pts = charts[-1].samples.copy()
        charts.append(Chart(name, [-2.0, -2.0], [2.0, 2.0], pts))
    return ChartAtlas(2, charts)


def test_fields_on_point_arrays_match_the_per_sample_reference():
    """Every array-taking field, against the model of every orbit and under
    each tolerance: the same entries (name, verdict, residual bits,
    location) and notes, in order, as the per-sample reference.  The draws
    reach singular Jacobians, values that are not finite, admitted values
    with a wrong invariant and values the orbit does not admit."""
    notes, outcomes = set(), set()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        atlas = array_atlas(rng)
        for kind, field in array_fields(rng):
            local = LocalTensorField(kind, {chart.name: field for chart in atlas.charts})
            for model in ORBIT_MODELS.values():
                if model.kind != kind:
                    continue
                for tol in TOLS:
                    got = outcome(check_locally_modelled, local, atlas, model, tol)
                    want = outcome(reference_check_locally_modelled, local, atlas, model, tol)
                    assert agree(got, want) == []
                    notes.update(got.notes)
                    outcomes.update((e.passed, e.residual > 0, math.isinf(e.residual))
                                    for e in got.entries)
    assert {f"orbit invariant: {label}" for label in _ORBITS} <= notes
    assert {"jacobian singular", "field not finite"} <= notes
    # passing entries, failing ones with finite and with infinite residuals
    assert {(True, False, False), (False, True, False), (False, True, True)} <= outcomes


def test_a_constant_field_is_evaluated_and_classified_once_per_chart(monkeypatch):
    """The ``reduce --field`` case: one constant field on every chart of an
    atlas.  Each chart's samples take one polynomial evaluation and one
    orbit invariant, where the per-sample reference took one of each per
    sample; charts that share their samples share both."""
    calls = {"eval": 0, "invariant": 0}
    evaluate, signature_of = poly.PolyArray.__call__, bundle.signature_of

    def counted_eval(self, points):
        calls["eval"] += 1
        return evaluate(self, points)

    def counted_signature(m, tol):
        calls["invariant"] += 1
        return signature_of(m, tol)

    monkeypatch.setattr(poly.PolyArray, "__call__", counted_eval)
    monkeypatch.setattr(bundle, "signature_of", counted_signature)
    rng = np.random.default_rng(0)
    field = calculus.TensorFieldOnChart.constant([[2.0, 1.0], [1.0, -3.0]], "2,0")
    model = ORBIT_MODELS["signature"]
    own = [rng.uniform(-1.0, 1.0, size=(6, 2)) for _ in "abcd"]
    shared = [own[0].copy() for _ in "abcd"]
    # one invariant for the model, then one per distinct sample array
    for samples, distinct in [(own, 4), (shared, 1)]:
        atlas = ChartAtlas(2, [Chart(name, [-1.0, -1.0], [1.0, 1.0], pts)
                               for name, pts in zip("abcd", samples)])
        local = LocalTensorField("2,0", {chart.name: field for chart in atlas.charts})
        calls.update(eval=0, invariant=0)
        report = check_locally_modelled(local, atlas, model)
        assert report.passed and len(report.entries) == 4
        assert calls == {"eval": distinct, "invariant": 1 + distinct}
        calls.update(eval=0, invariant=0)
        assert agree(report, reference_check_locally_modelled(local, atlas, model)) == []
        assert calls == {"eval": 24, "invariant": 1 + 24}
