"""Composite tables of towers against the per-pair loops they replace.

The reference functions below compose every map from the consecutive ones
for each pair and triple they touch, exactly as the checks did before the
composite tables existed.  The tables must give the same matrices bit for
bit, and the checks the same reports entry for entry.
"""

import json
import struct
from collections import Counter
from dataclasses import FrozenInstanceError
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tensorstruct.cli import run
from tensorstruct.limits import (
    BondingSystem,
    CoherentSequence,
    ConnectionFormSequence,
    LevelForm,
    LevelTuple,
    _GROUP_BYTES,
    check_coherent,
    check_connection_coherence,
    tuple_membership,
    validate_bonding,
)
from tensorstruct.errors import ShapeMismatch
from tensorstruct.structures import StructureMatrix
from tensorstruct.linalg import DEFAULT_TOL, Tolerance, fro, rank_of
from tensorstruct.report import Report

# ---------------------------------------------------------------------------
# per-pair reference loops
# ---------------------------------------------------------------------------


def naive_map(b, i, j):
    if i == j:
        return np.eye(b.dims[i])
    out = b.maps[i]
    for k in range(i + 1, j):
        out = out @ b.maps[k] if b.variance == "projective" else b.maps[k] @ out
    return out


def naive_projection(b, i, j):
    out = np.eye(b.dims[j])
    for k in range(j - 1, i - 1, -1):
        out = b.projections[k] @ out
    return out


def naive_validate_bonding(b, tol=DEFAULT_TOL):
    report = Report()
    n = b.levels
    report.note(f"{n} levels supplied; all checks quantify over them")
    for i in range(n):
        res = fro(naive_map(b, i, i) - np.eye(b.dims[i]))
        report.add(f"identity_at[{i}]", tol.accepts(res, 1.0), res)
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                if b.variance == "projective":
                    lhs = naive_map(b, i, j) @ naive_map(b, j, k)
                else:
                    lhs = naive_map(b, j, k) @ naive_map(b, i, j)
                res = fro(lhs - naive_map(b, i, k))
                report.add(f"composition[{i},{j},{k}]",
                           tol.accepts(res, max(fro(lhs), 1.0)), res)
    for i in range(n - 1):
        m = b.maps[i]
        full = rank_of(m, tol) == min(m.shape)
        name = "surjective" if b.variance == "projective" else "injective"
        report.add(f"{name}[{i}->{i + 1}]", full, 0.0 if full else 1.0)
    if b.variance == "direct" and b.projections is not None:
        for i in range(n - 1):
            for j in range(i + 1, n):
                sec = fro(naive_projection(b, i, j) @ naive_map(b, i, j) - np.eye(b.dims[i]))
                report.add(f"section[{i},{j}]", tol.accepts(sec, 1.0), sec)
        for i in range(n):
            for j in range(i, n):
                for k in range(j, n):
                    lhs = naive_projection(b, i, j) @ naive_projection(b, j, k)
                    res = fro(lhs - naive_projection(b, i, k))
                    report.add(f"projection_composition[{i},{j},{k}]",
                               tol.accepts(res, max(fro(lhs), 1.0)), res)
    return report


def naive_coherence_residual(b, kind, i, j, a_i, a_j):
    lam = naive_map(b, i, j)
    if b.variance == "projective":
        if kind == "1,1":
            return fro(a_i @ lam - lam @ a_j)
        return fro(a_j - lam.T @ a_i @ lam)
    if kind == "1,1":
        return fro(lam @ a_i - a_j @ lam)
    return fro(a_i - lam.T @ a_j @ lam)


def naive_check_coherent(seq, tol=DEFAULT_TOL):
    report = Report()
    n = seq.bonding.levels
    for i in range(n):
        for j in range(i + 1, n):
            res = naive_coherence_residual(seq.bonding, seq.kind, i, j,
                                           seq.levels[i], seq.levels[j])
            scale = max(fro(seq.levels[i]), fro(seq.levels[j]), 1.0)
            report.add(f"coherent[{i},{j}]", tol.accepts(res, scale), res)
    return report


def naive_tuple_membership(a, tol=DEFAULT_TOL):
    report = Report()
    for i in range(a.level):
        for j in range(i + 1, a.level):
            res = naive_coherence_residual(a.bonding, "1,1", i, j,
                                           a.entries[i], a.entries[j])
            scale = max(fro(a.entries[i]), fro(a.entries[j]), 1.0)
            report.add(f"intertwines[{i},{j}]", tol.accepts(res, scale), res)
    for lvl, m in enumerate(a.entries):
        ok = rank_of(m, tol) == m.shape[0]
        report.add(f"invertible[{lvl}]", ok, 0.0 if ok else 1.0)
    return report


def naive_morphism(seq, i, j):
    if seq.morphisms and (i, j) in seq.morphisms:
        return seq.morphisms[(i, j)]
    lam = naive_map(seq.bonding, i, j)
    if seq.bonding.variance == "projective":
        return lam, lam.T
    return lam, naive_projection(seq.bonding, i, j)


def naive_algebra_residual(w, kind, model):
    if kind == "1,1":
        return fro(w @ model - model @ w)
    return fro(w.T @ model + model @ w)


def naive_connection_coherence(seq, pts, tol=DEFAULT_TOL):
    report = Report()
    b = seq.bonding
    n = b.levels
    projective = b.variance == "projective"
    tangents = list(np.eye(b.dims[n - 1 if projective else 0]))
    for lvl in range(n):
        kind, model = seq.models[lvl].kind, seq.models[lvl].matrix
        worst = 0.0
        for x in pts:
            for v in tangents:
                lam = naive_map(b, lvl, n - 1) if projective else naive_map(b, 0, lvl)
                w = seq.forms[lvl](lam @ x, lam @ v)
                worst = max(worst, naive_algebra_residual(w, kind, model))
        report.add(f"adapted[{lvl}]", tol.accepts(worst, max(fro(model), 1.0)), worst)
    for i in range(n):
        for j in range(i + 1, n):
            left, right = naive_morphism(seq, i, j)
            worst = 0.0
            for x in pts:
                for v in tangents:
                    lam = naive_map(b, i, j)
                    if projective:
                        x_j = naive_map(b, j, n - 1) @ x
                        v_j = naive_map(b, j, n - 1) @ v
                        lhs = seq.forms[i](lam @ x_j, lam @ v_j)
                        rhs = left @ seq.forms[j](x_j, v_j) @ right
                    else:
                        x_i = naive_map(b, 0, i) @ x
                        v_i = naive_map(b, 0, i) @ v
                        lhs = seq.forms[j](lam @ x_i, lam @ v_i)
                        rhs = left @ seq.forms[i](x_i, v_i) @ right
                    worst = max(worst, fro(lhs - rhs))
            report.add(f"coherent[{i},{j}]", tol.accepts(worst, 1.0), worst)
    report.note(f"{pts.shape[0]} sample points, {len(tangents)} tangent directions")
    return report


# ---------------------------------------------------------------------------
# the per-sample connection check, as it was before the sample-at-once one
# ---------------------------------------------------------------------------


def per_sample_form(form, x, v):
    """``LevelForm.__call__`` before ``LevelForm.at``: one tangent at a time."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if len(v) > len(form.stack):
        raise ShapeMismatch(f"tangent has {len(v)} components, form has "
                            f"{len(form.stack)} coefficient matrices")
    mats = form.stack[: len(v)]
    if form.linear is not None:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        mats = np.stack([mat + sum(xb * mb for xb, mb in zip(x, row))
                         for mat, row in zip(mats, form.linear)])
    # the one BLAS product np.tensordot(v, mats, axes=1) makes
    n = mats.shape[1]
    return np.dot(v.reshape(1, -1), mats.reshape(len(v), n * n)).reshape(n, n)


def _algebra_residual(w, kind, model):
    if kind == "1,1":
        return fro(w @ model - model @ w)
    return fro(w.T @ model + model @ w)


def per_sample_connection_coherence(seq: ConnectionFormSequence, sample_points,
                                    tol: Tolerance = DEFAULT_TOL) -> Report:
    """``check_connection_coherence`` with one pass per sample point and
    tangent direction; its running ``max`` drops NaN residuals."""
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
    models = [(model.kind, model.matrix) for model in seq.models[:n]]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    morphisms = [seq.morphism(i, j) for i, j in pairs]
    # the composites that carry sample data from its level to every level
    onto = [maps[lvl][n - 1] if variance == "projective" else maps[0][lvl]
            for lvl in range(n)]
    adapted = [0.0] * n
    coherent = [0.0] * len(pairs)
    for x in pts:
        for v in np.eye(dim):
            # the sample on every level and each level's form value there;
            # adaptedness is sampled on each level's own data
            moved = [(lam @ x, lam @ v) for lam in onto]
            values = [per_sample_form(form, *xv) for form, xv in zip(seq.forms, moved)]
            for lvl, (kind, model) in enumerate(models):
                adapted[lvl] = max(adapted[lvl], _algebra_residual(values[lvl], kind, model))
            for p, ((i, j), (left, right)) in enumerate(zip(pairs, morphisms)):
                lam = maps[i][j]
                if variance == "projective":
                    x_j, v_j = moved[j]
                    lhs = per_sample_form(seq.forms[i], lam @ x_j, lam @ v_j)
                    rhs = left @ values[j] @ right
                else:
                    x_i, v_i = moved[i]
                    lhs = per_sample_form(seq.forms[j], lam @ x_i, lam @ v_i)
                    rhs = left @ values[i] @ right
                coherent[p] = max(coherent[p], fro(lhs - rhs))

    for lvl, (_, model) in enumerate(models):
        report.add(f"adapted[{lvl}]",
                   tol.accepts(adapted[lvl], max(fro(model), 1.0)), adapted[lvl])
    for (i, j), worst in zip(pairs, coherent):
        report.add(f"coherent[{i},{j}]", tol.accepts(worst, 1.0), worst)
    report.note(f"{pts.shape[0]} sample points, {dim} tangent directions")
    return report


# ---------------------------------------------------------------------------
# random towers
# ---------------------------------------------------------------------------


def random_tower(rng, depth, variance, explicit, gain=1.0):
    """Nondecreasing dims; padding maps, or dense random maps (and, for
    direct towers, dense random projections) of entries ``gain`` times
    standard normal."""
    dims = list(np.cumsum([int(rng.integers(1, 3))]
                          + [int(rng.integers(0, 2)) for _ in range(depth - 1)]))
    if not explicit:
        return BondingSystem.padded(dims, variance)
    pairs = list(zip(dims, dims[1:]))
    if variance == "projective":
        return BondingSystem(dims, variance, [gain * rng.normal(size=(a, b)) for a, b in pairs])
    return BondingSystem(dims, variance, [gain * rng.normal(size=(b, a)) for a, b in pairs],
                         [gain * rng.normal(size=(a, b)) for a, b in pairs])


def entries(report):
    return [(e.name, e.passed, e.residual, e.location) for e in report.entries], report.notes


def entry_bits(report):
    """``entries`` with each residual as its 8 bytes, so -0.0 and NaN compare
    by their bits."""
    return ([(e.name, e.passed, struct.pack("<d", e.residual), e.location)
             for e in report.entries], report.notes)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


towers = dict(depth=st.integers(1, 12), variance=st.sampled_from(["projective", "direct"]),
              explicit=st.booleans(), seed=st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(**towers)
def test_tables_equal_composites_bit_for_bit(depth, variance, explicit, seed):
    b = random_tower(np.random.default_rng(seed), depth, variance, explicit)
    maps = b.map_table()
    for i in range(b.levels):
        for j in range(b.levels):
            if j < i:
                assert maps[i][j] is None
                continue
            assert same_bits(maps[i][j], b.map(i, j))
            assert same_bits(maps[i][j], naive_map(b, i, j))
    if variance == "direct":
        projs = b.projection_table()
        for i in range(b.levels):
            for j in range(i, b.levels):
                assert same_bits(projs[i][j], b.projection(i, j))
                assert same_bits(projs[i][j], naive_projection(b, i, j))


@settings(max_examples=30, deadline=None)
@given(**towers, layout=st.sampled_from(["F", "negative"]))
def test_tower_reports_do_not_depend_on_the_strides_of_the_maps(depth, variance, explicit,
                                                                 seed, layout):
    # the same values passed in F order or with negative strides give the
    # report of the C-ordered maps, bit for bit
    b = random_tower(np.random.default_rng(seed), depth, variance, True, gain=30.0)
    relaid = (np.asfortranarray if layout == "F"
              else lambda m: m[::-1, ::-1].copy()[::-1, ::-1])
    c = BondingSystem(b.dims, variance, [relaid(m) for m in b.maps],
                      None if b.projections is None else [relaid(p) for p in b.projections])
    assert all(m.flags.c_contiguous for m in c.maps + (c.projections or []))
    assert entry_bits(validate_bonding(c)) == entry_bits(validate_bonding(b))


# tolerances at which large composites pass some composition laws only at
# their relative scale max(|lhs|, 1), and fail others
TOLS = [DEFAULT_TOL, Tolerance(0.0, 1e-15), Tolerance(1e-16, 1e-14)]


@settings(max_examples=40, deadline=None)
@given(**towers, kind=st.sampled_from(["1,1", "2,0"]), gain=st.sampled_from([1.0, 30.0]),
       tol=st.sampled_from(TOLS))
def test_tower_checks_match_the_per_pair_loops(depth, variance, explicit, seed, kind,
                                                gain, tol):
    rng = np.random.default_rng(seed)
    b = random_tower(rng, depth, variance, explicit, gain)
    # names, verdicts, residuals and locations, entry for entry
    assert entries(validate_bonding(b, tol)) == entries(naive_validate_bonding(b, tol))

    seq = CoherentSequence(b, [rng.normal(size=(d, d)) for d in b.dims], kind)
    assert entries(check_coherent(seq)) == entries(naive_check_coherent(seq))

    level = int(rng.integers(0, depth + 1))
    tup = LevelTuple(b, [rng.normal(size=(d, d)) for d in b.dims[:level]])
    assert entries(tuple_membership(tup)) == entries(naive_tuple_membership(tup))


@pytest.mark.parametrize("variance", ["projective", "direct"])
@pytest.mark.parametrize("tol", TOLS)
def test_composition_laws_keep_their_verdicts_at_the_relative_scale(variance, tol):
    b = random_tower(np.random.default_rng(0), 8, variance, True, gain=30.0)
    report = validate_bonding(b, tol)
    assert entries(report) == entries(naive_validate_bonding(b, tol))
    laws = [e for e in report.entries if "composition[" in e.name]
    # some laws pass only at the relative scale, so both tests are exercised
    assert any(e.passed and not tol.accepts(e.residual) for e in laws)


@settings(max_examples=30, deadline=None)
@given(**towers, linear=st.booleans(), override=st.booleans())
def test_connection_check_matches_the_per_pair_loop(depth, variance, explicit, seed,
                                                     linear, override):
    rng = np.random.default_rng(seed)
    b = random_tower(rng, depth, variance, explicit)
    forms = []
    for d in b.dims:
        coeffs = [rng.normal(size=(d, d)) for _ in range(d)]
        lin = [[rng.normal(size=(d, d)) for _ in range(d)] for _ in range(d)] if linear else None
        forms.append(LevelForm(coeffs, lin))
    models = [StructureMatrix(kind=str(rng.choice(["1,1", "2,0"])), matrix=rng.normal(size=(d, d)))
              for d in b.dims]
    morphisms = None
    if override and depth > 1:
        lo, hi = b.dims[0], b.dims[-1]
        shape = (hi, lo) if variance == "direct" else (lo, hi)
        morphisms = {(0, depth - 1): (rng.normal(size=shape), rng.normal(size=shape[::-1]))}
    seq = ConnectionFormSequence(b, forms, models, morphisms)
    base = b.dims[-1] if variance == "projective" else b.dims[0]
    pts = rng.normal(size=(int(rng.integers(1, 3)), base))
    assert entries(check_connection_coherence(seq, pts)) == \
        entries(naive_connection_coherence(seq, pts))


def random_forms(rng, dims, linear, extra, zeros):
    """One form per level with ``extra`` more coefficient matrices than the
    level's dimension; ``linear`` per level; with ``zeros``, about half the
    coefficients are 0.0 or -0.0."""
    forms = []
    for d, lin in zip(dims, linear):
        coeffs = rng.normal(size=(d + extra, d, d))
        if zeros:
            mask = rng.random(coeffs.shape) < 0.5
            coeffs[mask] = rng.choice([0.0, -0.0], size=mask.sum())
        forms.append(LevelForm(coeffs, rng.normal(size=(d + extra, d, d, d)) if lin else None))
    return forms


@settings(max_examples=60, deadline=None)
@given(**towers, gain=st.sampled_from([1.0, 30.0]), extra=st.integers(0, 2),
       zeros=st.booleans(), points=st.integers(1, 3), scale=st.sampled_from([1.0, 1e3]),
       data=st.data())
def test_connection_check_matches_the_per_sample_loop_bit_for_bit(
        depth, variance, explicit, seed, gain, extra, zeros, points, scale, data):
    rng = np.random.default_rng(seed)
    b = random_tower(rng, depth, variance, explicit, gain)
    linear = data.draw(st.lists(st.booleans(), min_size=depth, max_size=depth))
    forms = random_forms(rng, b.dims, linear, extra, zeros)
    models = [StructureMatrix(kind=data.draw(st.sampled_from(["1,1", "2,0"])),
                              matrix=rng.normal(size=(d, d)))
              for d in b.dims]
    pairs = [(i, j) for i in range(depth) for j in range(i + 1, depth)]
    overridden = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3)
                           if pairs else st.just([]))
    morphisms = {}
    for i, j in overridden:
        lo, hi = b.dims[i], b.dims[j]
        shape = (hi, lo) if variance == "direct" else (lo, hi)
        morphisms[(i, j)] = (rng.normal(size=shape), rng.normal(size=shape[::-1]))
    seq = ConnectionFormSequence(b, forms, models, morphisms or None)
    base = b.dims[-1] if variance == "projective" else b.dims[0]
    pts = scale * rng.normal(size=(points, base))
    assert entry_bits(check_connection_coherence(seq, pts)) == \
        entry_bits(per_sample_connection_coherence(seq, pts))


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 8), extra=st.integers(0, 2), rows=st.integers(0, 6),
       linear=st.booleans(), zeros=st.booleans(), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_level_form_at_is_the_tensordot_contraction_of_each_row(d, extra, rows, linear,
                                                                zeros, seed, data):
    rng = np.random.default_rng(seed)
    form = random_forms(rng, [d], [linear], extra, zeros)[0]
    k = data.draw(st.integers(1, d + extra))  # any tangent length the form allows
    xs, vs = rng.normal(size=(rows, d)), rng.normal(size=(rows, k))
    if zeros:
        vs[rng.random(vs.shape) < 0.5] = 0.0
    values = form.at(xs, vs)
    assert values.shape == (rows, d, d)
    for x, v, value in zip(xs, vs, values):
        mats = form.stack[:k]
        if linear:
            mats = np.stack([mat + sum(xb * mb for xb, mb in zip(x, row))
                             for mat, row in zip(mats, form.linear)])
        expected = np.tensordot(v, mats, axes=1)
        if d == 1 and k == 1:
            # tensordot multiplies two scalars here and at takes a dot
            # product, which adds the product to +0.0: a -0.0 value turns
            # +0.0 (every residual is a norm, so no report sees the sign)
            expected = expected + 0.0
        assert same_bits(value, expected)
        assert same_bits(value, form(x, v))


def test_level_form_rejects_a_tangent_longer_than_its_coefficients():
    form = LevelForm(np.zeros((2, 2, 2)))
    with pytest.raises(ShapeMismatch):
        form.at(np.zeros((1, 2)), np.zeros((1, 3)))


def overflowing_tower(variance):
    """Two one-dimensional levels whose form values overflow to inf, so the
    adaptedness of the level that sees the map and the coherence of the pair
    are inf - inf."""
    b = BondingSystem([1, 1], variance, [[[1e200]]],
                      [[[1.0]]] if variance == "direct" else None)
    forms = [LevelForm([[[1e200]]]), LevelForm([[[1e200]]])]
    return ConnectionFormSequence(b, forms, [StructureMatrix([[1.0]], "1,1")] * 2)


@pytest.mark.parametrize("variance", ["projective", "direct"])
def test_nan_residuals_fail_the_connection_check(variance):
    seq = overflowing_tower(variance)
    bad = 0 if variance == "projective" else 1
    with pytest.warns(RuntimeWarning):
        report = check_connection_coherence(seq, [[0.5]])
    got = {e.name: (e.passed, e.residual) for e in report.entries}
    assert not got[f"adapted[{bad}]"][0] and np.isnan(got[f"adapted[{bad}]"][1])
    assert got[f"adapted[{1 - bad}]"] == (True, 0.0)
    assert not got["coherent[0,1]"][0] and np.isnan(got["coherent[0,1]"][1])
    # the per-sample loop's running max dropped them: every entry passed
    with pytest.warns(RuntimeWarning):
        assert per_sample_connection_coherence(seq, [[0.5]]).passed


# ---------------------------------------------------------------------------
# composites are built once per check
# ---------------------------------------------------------------------------

DEPTH = 16


def guard_docs(variance):
    """A depth-16 tower document with explicit maps and a sequence, and a
    connection document on the same tower."""
    dims = [1 + k // 2 for k in range(DEPTH)]
    pads = [np.eye(b)[:a] for a, b in zip(dims, dims[1:])]  # (a, b)
    tower = {"variance": variance, "dims": dims}
    if variance == "projective":
        tower["maps"] = [p.tolist() for p in pads]
    else:
        tower["maps"] = [p.T.tolist() for p in pads]
        tower["projections"] = [p.tolist() for p in pads]
    seq = {"kind": "1,1", "levels": [np.eye(d).tolist() for d in dims]}
    base = dims[-1] if variance == "projective" else dims[0]
    conn = dict(tower,
                forms=[{"coeffs": [np.zeros((d, d)).tolist()] * d} for d in dims],
                models=[{"kind": "2,0", "matrix": np.eye(d).tolist()} for d in dims],
                sample_points=[[0.5] * base, [-0.25] * base])
    return dict(tower, sequence=seq), conn


@pytest.mark.parametrize("variance", ["projective", "direct"])
def test_checks_compose_each_map_once(variance, tmp_path, monkeypatch):
    calls = Counter()
    for name in ("map", "projection"):
        def counted(self, i, j, _original=getattr(BondingSystem, name), _name=name):
            calls[_name] += 1
            return _original(self, i, j)
        monkeypatch.setattr(BondingSystem, name, counted)

    tower, conn = guard_docs(variance)
    for command, doc in ((["tower", "check"], tower), (["connection", "check"], conn)):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        calls.clear()
        assert run([*command, str(path)]) == 0
        assert sum(calls.values()) <= DEPTH, (command, dict(calls))


@pytest.mark.parametrize("variance", ["projective", "direct"])
def test_checks_build_each_table_once_per_tower(variance, tmp_path, monkeypatch):
    # every law of a check reads the one table its tower keeps
    built = Counter()
    for name in ("_map_table", "_projection_table"):
        def counted(self, _build=getattr(BondingSystem, name).func, _name=name):
            built[_name] += 1
            return _build(self)
        table = cached_property(counted)
        table.__set_name__(BondingSystem, name)
        monkeypatch.setattr(BondingSystem, name, table)

    tower, conn = guard_docs(variance)
    want = {"_map_table": 1, "_projection_table": int(variance == "direct")}
    for command, doc in ((["tower", "check"], tower), (["connection", "check"], conn)):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        built.clear()
        assert run([*command, str(path)]) == 0
        assert {name: built[name] for name in want} == want, command


def test_a_tower_keeps_its_tables_and_its_fields():
    b = random_tower(np.random.default_rng(5), 6, "direct", True)
    assert b.map_table() is b.map_table()
    assert b.projection_table() is b.projection_table()
    assert b.map(1, 4) is b.map_table()[1][4]
    for name in ("dims", "variance", "maps", "projections"):
        with pytest.raises(FrozenInstanceError):
            setattr(b, name, getattr(b, name))
    # its maps and projections are read-only copies of what it was given,
    # so no write can leave a kept table stale
    for m in b.maps + b.projections:
        with pytest.raises(ValueError):
            m[0, 0] = 1.0
    given = [np.eye(2, 1), np.eye(3, 2)]
    c = BondingSystem([1, 2, 3], "direct", given)
    validate_bonding(c)
    given[0][1, 0] = 5.0
    assert c.maps[0][1, 0] == 0.0 and validate_bonding(c).passed


@pytest.mark.parametrize("variance", ["projective", "direct"])
def test_connection_check_evaluates_no_form_per_sample(variance, tmp_path, monkeypatch):
    calls = Counter()
    for name in ("__call__", "at"):
        def counted(self, *args, _original=getattr(LevelForm, name), _name=name):
            calls[_name] += 1
            return _original(self, *args)
        monkeypatch.setattr(LevelForm, name, counted)

    path = tmp_path / "doc.json"
    path.write_text(json.dumps(guard_docs(variance)[1]))
    assert run(["connection", "check", str(path)]) == 0
    # one evaluation over all samples per level, and one per destination
    # level of the pullback laws: each level's group of pairs fits in one
    # stack, at most DEPTH - 1 - i pairs into level i of 2 * 8 rows (the
    # projective tower's; the direct one's have 2)
    dims = [1 + k // 2 for k in range(DEPTH)]
    assert max((DEPTH - 1 - i) * 16 * d * d * 8 for i, d in enumerate(dims)) <= _GROUP_BYTES
    assert calls == {"at": DEPTH + DEPTH - 1}


@pytest.mark.parametrize("variance", ["projective", "direct"])
def test_json_reports_skip_the_python_encoder(variance, tmp_path, monkeypatch, capsys):
    # json.dumps(..., indent=...) builds its pure-Python encoder with
    # _make_iterencode on every call; the report writer must not
    calls = Counter()

    def counted(*args, _original=json.encoder._make_iterencode, **kwargs):
        calls["_make_iterencode"] += 1
        return _original(*args, **kwargs)

    monkeypatch.setattr(json.encoder, "_make_iterencode", counted)
    tower, conn = guard_docs(variance)
    for command, doc in ((["tower", "check"], tower), (["connection", "check"], conn)):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert run(["--json", *command, str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["passed"]
    assert calls["_make_iterencode"] == 0


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 8), linear=st.booleans(), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_level_form_is_the_tensordot_contraction(d, linear, seed, data):
    rng = np.random.default_rng(seed)
    coeffs = [rng.normal(size=(d, d)) for _ in range(d)]
    lin = [[rng.normal(size=(d, d)) for _ in range(d)] for _ in range(d)] if linear else None
    form = LevelForm(coeffs, lin)
    k = data.draw(st.integers(1, d))  # a tangent may be shorter than the level
    x, v = rng.normal(size=d), rng.normal(size=k)
    mats = form.stack[:k]
    if linear:
        mats = np.stack([mat + sum(xb * mb for xb, mb in zip(x, row))
                         for mat, row in zip(mats, lin)])
    assert same_bits(form(x, v), np.tensordot(v, mats, axes=1))


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 8), linear=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_level_form_is_the_sum_over_directions(d, linear, seed):
    rng = np.random.default_rng(seed)
    coeffs = [rng.normal(size=(d, d)) for _ in range(d)]
    lin = [[rng.normal(size=(d, d)) for _ in range(d)] for _ in range(d)] if linear else None
    form = LevelForm(coeffs, lin)
    assert all(np.shares_memory(c, form.stack) for c in form.coeffs)
    x, v = rng.normal(size=d), rng.normal(size=d)
    mats = [c + sum(xb * mb for xb, mb in zip(x, row)) for c, row in
            zip(coeffs, lin)] if linear else coeffs
    # the loop the stacked contraction replaces; only the summation order differs
    loop = np.zeros((d, d))
    for va, mat in zip(v, mats):
        loop = loop + va * mat
    bound = 4 * d * np.finfo(float).eps * sum(abs(va) * np.abs(m) for va, m in zip(v, mats))
    assert np.all(np.abs(form(x, v) - loop) <= bound)
