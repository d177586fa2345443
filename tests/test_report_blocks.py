"""Tower checks that fill report blocks against the per-entry checks they
replace.

The reference functions below are the tower checks as they were before
reports held blocks: one ``Report.add``, with an f-string name and its own
``Tolerance.accepts``, per entry.  The block-filling checks must give the
same names, verdicts, residual bits, locations and notes, and the same
``--json`` bytes and text output.
"""

import contextlib
import io
import struct
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from tensorstruct import limits
from tensorstruct.bundle import algebra_action, in_isotropy
from tensorstruct.cli import _emit
from tensorstruct.errors import ShapeMismatch
from tensorstruct.limits import (
    BondingSystem,
    CoherentSequence,
    ConnectionFormSequence,
    LevelForm,
    LevelTuple,
    _carry,
    check_coherent,
    check_connection_coherence,
    tuple_membership,
    validate_bonding,
)
from tensorstruct.linalg import DEFAULT_TOL, Tolerance, fro, rank_of
from tensorstruct.report import Report
from tensorstruct.report import worst as _worst
from tensorstruct.structures import StructureMatrix

# ---------------------------------------------------------------------------
# the per-entry checks
# ---------------------------------------------------------------------------


def _coherence_residual(variance, kind, lam, a_i, a_j):
    """Defect of the variance/kind intertwining law between levels i < j,
    joined by the composite map ``lam`` = map(i, j)."""
    if variance == "projective":
        if kind == "1,1":
            return fro(a_i @ lam - lam @ a_j)
        return fro(a_j - lam.T @ a_i @ lam)
    if kind == "1,1":
        return fro(lam @ a_i - a_j @ lam)
    return fro(a_i - lam.T @ a_j @ lam)


def _norms(stack):
    """``fro`` of each matrix of ``stack``, one matrix at a time."""
    return np.array([fro(m) for m in stack])


def per_entry_validate_bonding(b: BondingSystem, tol: Tolerance = DEFAULT_TOL) -> Report:
    """Composition laws, identity maps, surjectivity/injectivity, sections."""
    report = Report()
    n = b.levels
    report.note(f"{n} levels supplied; all checks quantify over them")
    maps = b.map_table()

    for i in range(n):
        res = fro(maps[i][i] - np.eye(b.dims[i]))
        report.add(f"identity_at[{i}]", tol.accepts(res, 1.0), res)

    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                if b.variance == "projective":
                    lhs = maps[i][j] @ maps[j][k]
                else:
                    lhs = maps[j][k] @ maps[i][j]
                res = fro(lhs - maps[i][k])
                # the scale is at least 1, so a residual accepted at scale 1
                # is accepted at it too: compute it only when that fails
                report.add(f"composition[{i},{j},{k}]",
                           tol.accepts(res) or tol.accepts(res, max(fro(lhs), 1.0)),
                           res)

    for i in range(n - 1):
        m = b.maps[i]
        full = rank_of(m, tol) == min(m.shape)
        name = "surjective" if b.variance == "projective" else "injective"
        report.add(f"{name}[{i}->{i + 1}]", full, 0.0 if full else 1.0)

    if b.variance == "direct" and b.projections is not None:
        projs = b.projection_table()
        for i in range(n - 1):
            for j in range(i + 1, n):
                sec = fro(projs[i][j] @ maps[i][j] - np.eye(b.dims[i]))
                report.add(f"section[{i},{j}]", tol.accepts(sec, 1.0), sec)
        for i in range(n):
            for j in range(i, n):
                for k in range(j, n):
                    lhs = projs[i][j] @ projs[j][k]
                    res = fro(lhs - projs[i][k])
                    report.add(f"projection_composition[{i},{j},{k}]",
                               tol.accepts(res)
                               or tol.accepts(res, max(fro(lhs), 1.0)), res)
    return report


def per_entry_check_coherent(seq: CoherentSequence, tol: Tolerance = DEFAULT_TOL) -> Report:
    """Per-pair residual of the variance/kind-appropriate intertwining law."""
    report = Report()
    n = seq.bonding.levels
    maps = seq.bonding.map_table()
    for i in range(n):
        for j in range(i + 1, n):
            res = _coherence_residual(seq.bonding.variance, seq.kind, maps[i][j],
                                      seq.levels[i], seq.levels[j])
            scale = max(fro(seq.levels[i]), fro(seq.levels[j]), 1.0)
            report.add(f"coherent[{i},{j}]", tol.accepts(res, scale), res)
    return report


def per_entry_tuple_membership(a: LevelTuple, tol: Tolerance = DEFAULT_TOL,
                               isotropy_models=None) -> Report:
    """Intertwining constraint, invertibility, optional per-level isotropy."""
    report = Report()
    maps = a.bonding.map_table()
    # intertwining: the (1,1) coherence law of the entries
    for i in range(a.level):
        for j in range(i + 1, a.level):
            res = _coherence_residual(a.bonding.variance, "1,1", maps[i][j],
                                      a.entries[i], a.entries[j])
            scale = max(fro(a.entries[i]), fro(a.entries[j]), 1.0)
            report.add(f"intertwines[{i},{j}]", tol.accepts(res, scale), res)
    for lvl, m in enumerate(a.entries):
        ok = rank_of(m, tol) == m.shape[0]
        report.add(f"invertible[{lvl}]", ok, 0.0 if ok else 1.0)
    if isotropy_models is not None:
        if len(isotropy_models) < a.level:
            raise ShapeMismatch(f"{len(isotropy_models)} isotropy models for "
                                f"{a.level} entries")
        for lvl, (entry, model) in enumerate(zip(a.entries, isotropy_models)):
            inside, res = in_isotropy(entry, model, tol)
            report.add(f"isotropy[{lvl}]", inside, res)
    return report


def per_entry_connection_coherence(seq: ConnectionFormSequence, sample_points,
                                   tol: Tolerance = DEFAULT_TOL) -> Report:
    """Levelwise adaptedness plus the cross-level pullback relations."""
    report = Report()
    b = seq.bonding
    n = b.levels
    variance = b.variance
    base_level = n - 1 if variance == "projective" else 0
    dim = b.dims[base_level]
    pts = np.atleast_2d(np.asarray(sample_points, dtype=float))
    if pts.shape[1] != dim:
        raise ShapeMismatch(f"sample points have dim {pts.shape[1]}, want {dim}")

    maps = b.map_table()
    if len(seq.forms) < n or len(seq.models) < n:
        raise ShapeMismatch(f"need a form and a model for each of the {n} levels")
    forms = seq.forms[:n]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    morphisms = [seq.morphism(i, j) for i, j in pairs]
    # one row per sample point and tangent direction, points outermost
    xs = np.repeat(pts, dim, axis=0)
    vs = np.tile(np.eye(dim), (len(pts), 1))
    # the composites that carry sample data from its level to every level;
    # points matter only to forms with x-dependence
    onto = [maps[lvl][n - 1] if variance == "projective" else maps[0][lvl]
            for lvl in range(n)]
    moved_v = [_carry(lam, vs) for lam in onto]
    moved_x = ([_carry(lam, xs) for lam in onto]
               if any(form.linear is not None for form in forms) else [None] * n)
    # each level's form on its own data; adaptedness is sampled there
    values = [form.at(x, v) for form, x, v in zip(forms, moved_x, moved_v)]
    adapted = [_worst(_norms(algebra_action(w, model)))
               for w, model in zip(values, seq.models)]
    coherent = []
    for (i, j), (left, right) in zip(pairs, morphisms):
        # the upper level's data for projective towers, the lower's for direct
        src, dst = (j, i) if variance == "projective" else (i, j)
        lam = maps[i][j]
        x = None if forms[dst].linear is None else _carry(lam, moved_x[src])
        lhs = forms[dst].at(x, _carry(lam, moved_v[src]))
        coherent.append(_worst(_norms(lhs - left @ values[src] @ right)))

    for lvl, (model, worst) in enumerate(zip(seq.models, adapted)):
        report.add(f"adapted[{lvl}]", tol.accepts(worst, max(fro(model.matrix), 1.0)),
                   worst)
    for (i, j), worst in zip(pairs, coherent):
        report.add(f"coherent[{i},{j}]", tol.accepts(worst, 1.0), worst)
    report.note(f"{pts.shape[0]} sample points, {dim} tangent directions")
    return report


# ---------------------------------------------------------------------------
# random towers, with failing laws and overflow
# ---------------------------------------------------------------------------

# 30 makes composites large enough that some composition laws pass only at
# their relative scale max(|lhs|, 1) under the tighter tolerances; 1e80 and
# 1e160 overflow products and norms to inf, and differences to NaN
GAINS = [1.0, 30.0, 1e80, 1e160]
TOLS = [DEFAULT_TOL, Tolerance(0.0, 1e-15), Tolerance(1e-16, 1e-14)]


def random_tower(rng, depth, variance, explicit, gain, low=1, flipped=False):
    """Nondecreasing dims from ``low`` or more (0 gives zero-dimensional
    levels); padding maps, or dense random maps (and, for direct towers,
    dense random projections) scaled by ``gain``, with negative strides
    when ``flipped``."""
    dims = list(np.cumsum([int(rng.integers(low, 3))]
                          + [int(rng.integers(0, 2)) for _ in range(depth - 1)]))
    if not explicit:
        return BondingSystem.padded(dims, variance)

    def draw(shape):
        m = gain * rng.normal(size=shape)
        return m[::-1, ::-1].copy()[::-1, ::-1] if flipped else m

    pairs = list(zip(dims, dims[1:]))
    if variance == "projective":
        return BondingSystem(dims, variance, [draw((a, b)) for a, b in pairs])
    return BondingSystem(dims, variance, [draw((b, a)) for a, b in pairs],
                         [draw((a, b)) for a, b in pairs])


def random_matrices(rng, dims, gain, style):
    """One matrix per level: zeros (every coherence law holds), random, or
    near ``gain`` times the identity, whose (1,1) coherence residuals are
    the noise's and fall on either side of the pair's scaled tolerance."""
    if style == "zero":
        return [np.zeros((d, d)) for d in dims]
    if style == "random":
        return [gain * rng.normal(size=(d, d)) for d in dims]
    return [gain * (np.eye(d) + 10 ** rng.uniform(-17, -8) * rng.normal(size=(d, d)))
            for d in dims]


def observed(report):
    """Everything a reader of the report sees: each entry with its residual
    as 8 bytes (so -0.0 and NaN compare by their bits), the notes, the
    ``--json`` bytes, the text output and the exit status."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = _emit(report, False)
    rows = [(e.name, e.passed, struct.pack("<d", e.residual), e.location)
            for e in report.entries]
    return rows, report.notes, report.to_json(), out.getvalue(), status


# depths of 12 or more make groups of a composition law up to 16 products long
towers = dict(depth=st.integers(1, 9) | st.integers(12, 16), variance=st.sampled_from(["projective", "direct"]),
              explicit=st.booleans(), seed=st.integers(0, 2**32 - 1),
              gain=st.sampled_from(GAINS), tol=st.sampled_from(TOLS))


@settings(max_examples=80, deadline=None)
@given(**towers, kind=st.sampled_from(["1,1", "2,0"]),
       style=st.sampled_from(["zero", "random", "near"]), models=st.booleans(),
       low=st.sampled_from([1, 0]), flipped=st.booleans())
def test_tower_checks_match_the_per_entry_checks(depth, variance, explicit, seed, gain,
                                                 tol, kind, style, models, low, flipped):
    # ``low`` 0 draws zero-dimensional levels, whose laws have empty
    # stacks; ``flipped`` maps have negative strides, which the tower must
    # store C-contiguous, since on such strides ``@`` and BLAS may sum in
    # different orders
    rng = np.random.default_rng(seed)
    b = random_tower(rng, depth, variance, explicit, gain, low, flipped)
    seq = CoherentSequence(b, random_matrices(rng, b.dims, gain, style), kind)
    level = int(rng.integers(0, depth + 1))
    tup = LevelTuple(b, random_matrices(rng, b.dims[:level], gain, style))
    isotropy = ([StructureMatrix(rng.normal(size=(d, d)), str(rng.choice(["1,1", "2,0"])))
                 for d in b.dims[:level]] if models else None)
    with np.errstate(all="ignore"):
        bonding, coherent, membership = (validate_bonding(b, tol), check_coherent(seq, tol),
                                         tuple_membership(tup, tol, isotropy))
        references = (per_entry_validate_bonding(b, tol), per_entry_check_coherent(seq, tol),
                      per_entry_tuple_membership(tup, tol, isotropy))
    for report, reference in zip((bonding, coherent, membership), references):
        assert observed(report) == observed(reference)
    # the report ``tower check`` writes: the sequence's entries prefixed
    bonding.extend(coherent, prefix="sequence/")
    references[0].extend(references[1], prefix="sequence/")
    assert observed(bonding) == observed(references[0])


@settings(max_examples=80, deadline=None)
@given(**towers, linear=st.booleans(), override=st.booleans(), poison=st.booleans(),
       scale=st.sampled_from([1.0, 1e3, 1e160]), size=st.sampled_from([1.0, 1e-10, 1e-11]),
       points=st.integers(0, 2), bound=st.sampled_from([limits._GROUP_BYTES, 1, 2048]))
def test_connection_check_matches_the_per_entry_check(depth, variance, explicit, seed, gain,
                                                      tol, linear, override, poison, scale,
                                                      size, points, bound):
    # forms of ``size`` 1e-10 or 1e-11 give residuals on either side of
    # the tolerance; a ``poison`` entry 1e308 in the morphism's left factor
    # overflows that pair's image, so its residual is inf, and now and then
    # NaN (inf - inf in a product); a ``bound`` of 1 or 2048 bytes splits a
    # destination level's pairs into groups of one or a few
    rng = np.random.default_rng(seed)
    b = random_tower(rng, depth, variance, explicit, min(gain, 1e80))
    forms = []
    for d in b.dims:
        coeffs = size * rng.normal(size=(d, d, d))
        forms.append(LevelForm(coeffs, rng.normal(size=(d, d, d, d)) if linear else None))
    models = [StructureMatrix(rng.normal(size=(d, d)), str(rng.choice(["1,1", "2,0"])))
              for d in b.dims]
    morphisms = None
    if override and depth > 1:
        lo, hi = b.dims[0], b.dims[-1]
        shape = (hi, lo) if variance == "direct" else (lo, hi)
        left = rng.normal(size=shape)
        if poison:
            left[0, 0] = 1e308
        morphisms = {(0, depth - 1): (left, rng.normal(size=shape[::-1]))}
    seq = ConnectionFormSequence(b, forms, models, morphisms)
    base = b.dims[-1] if variance == "projective" else b.dims[0]
    pts = scale * rng.normal(size=(points, base))
    with np.errstate(all="ignore"), mock.patch.object(limits, "_GROUP_BYTES", bound):
        report = check_connection_coherence(seq, pts, tol)
        reference = per_entry_connection_coherence(seq, pts, tol)
    assert observed(report) == observed(reference)


def test_a_nan_row_is_the_worst_of_its_pair_in_a_group():
    """On a direct tower of three 1-dimensional levels the forms are
    W(x)(v) = x v, x v and 2 x v, and the override of levels (1, 2) is
    L = 2, so pair (1, 2)'s rows at x = 1 and x = 1e308 read 2 - 2 and
    inf - inf: the NaN of the second row is its residual.  Pair (0, 2),
    with the default morphism, reads 2 - 1 and inf - 1e308, so inf.  Both
    pairs have destination level 2 and share one group."""
    b = BondingSystem.padded([1, 1, 1], "direct")
    forms = [LevelForm([[[0.0]]], [[[[c]]]]) for c in (1.0, 1.0, 2.0)]
    models = [StructureMatrix([[1.0]], "1,1")] * 3
    seq = ConnectionFormSequence(b, forms, models, {(1, 2): ([[2.0]], [[1.0]])})
    points = [[1.0], [1e308]]
    with np.errstate(all="ignore"):
        report = check_connection_coherence(seq, points)
        reference = per_entry_connection_coherence(seq, points)
    assert observed(report) == observed(reference)
    rows = {e.name: (e.passed, e.residual) for e in report.entries}
    assert rows["coherent[0,1]"] == (True, 0.0) and rows["coherent[0,2]"] == (False, np.inf)
    assert not rows["coherent[1,2]"][0] and np.isnan(rows["coherent[1,2]"][1])


def test_the_random_towers_reach_every_path():
    """The draws above include laws that pass only at the relative scale,
    failing laws, inf and NaN residuals, and zero-dimensional levels."""
    assert any(random_tower(np.random.default_rng(seed), 12, "direct", True, 1.0, 0).dims[0]
               == 0 for seed in range(40))
    relative = failing = infinite = nan = False
    for seed in range(40):
        rng = np.random.default_rng(seed)
        for gain, tol in [(30.0, Tolerance(0.0, 1e-15)), (1e160, DEFAULT_TOL)]:
            b = random_tower(rng, 8, ["projective", "direct"][seed % 2], True, gain)
            with np.errstate(all="ignore"):
                entries = validate_bonding(b, tol).entries
            for e in entries:
                relative |= e.passed and not tol.accepts(e.residual)
                failing |= not e.passed
                infinite |= e.residual == np.inf
                nan |= np.isnan(e.residual)
    assert relative and failing and infinite and nan


def test_each_scale_decides_a_verdict_at_the_edge():
    """Residuals placed between the tolerance at the scale a check uses and
    at a scale one could mistake for it."""
    # coherent[0,1] is 5e-4: accepted at max(fro(A_0), fro(A_1), 1) = 1e6
    # but not at max(fro(A_0), 1) = 1
    b = BondingSystem.padded([1, 2], "direct")
    levels = [np.eye(1), np.array([[1.0, 0.0], [5e-4, 1e6]])]
    seq = CoherentSequence(b, levels, "1,1")
    tup = LevelTuple(b, levels)
    for report, reference in [(check_coherent(seq), per_entry_check_coherent(seq)),
                              (tuple_membership(tup), per_entry_tuple_membership(tup))]:
        assert observed(report) == observed(reference)
        assert report.entries[0].residual == 5e-4 and report.entries[0].passed
    # adapted[0] is 1.5e-9: accepted at max(fro(T), 1) = 1, not at fro(T);
    # coherent[0,1] is 2.5e-9: accepted at scale 2, not at the scale 1 used
    b = BondingSystem.padded([1, 1], "direct")
    forms = [LevelForm([[[0.0]]]), LevelForm([[[2.5e-9]]])]
    small = LevelForm([[[0.0, 1.5e-6], [0.0, 0.0]], np.zeros((2, 2))])
    for seq, points, verdicts in [
            (ConnectionFormSequence(b, forms, [StructureMatrix([[1.0]], "1,1")] * 2), [[1.0]],
             {"adapted[0]": True, "adapted[1]": True, "coherent[0,1]": False}),
            (ConnectionFormSequence(BondingSystem.padded([2], "direct"), [small],
                                    [StructureMatrix(np.diag([1e-3, 0.0]), "1,1")]),
             [[1.0, 0.0]], {"adapted[0]": True})]:
        report = check_connection_coherence(seq, points)
        assert observed(report) == observed(per_entry_connection_coherence(seq, points))
        assert {e.name: e.passed for e in report.entries} == verdicts
