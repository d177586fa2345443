import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tensorstruct.errors import InvalidInput, ShapeMismatch
from tensorstruct.limits import (
    BondingSystem,
    CoherentSequence,
    ConnectionFormSequence,
    LevelForm,
    LevelTuple,
    check_coherent,
    check_connection_coherence,
    gEn_membership,
    limit_eval,
    theta_projection,
    tuple_compose,
    tuple_inverse,
    tuple_membership,
    tuple_project,
    validate_bonding,
)
from tensorstruct.linalg import Tolerance
from tensorstruct.structures import StructureMatrix

DIMS = [1, 2, 3, 4]


def padded_direct():
    return BondingSystem.padded(DIMS, "direct")


def padded_projective():
    return BondingSystem.padded(DIMS, "projective")


def diag_direct_sequence(bonding=None):
    # A_n = diag(1, 2, .., n): coherent because inclusion restricts it
    bonding = bonding or padded_direct()
    return CoherentSequence(bonding,
                            [np.diag(np.arange(1.0, d + 1)) for d in DIMS], "1,1")


def zero_extended_projective_sequence():
    # the projective (2,0) law pulls the coarse form back through the
    # projections, so higher levels are zero-extensions of the lowest one
    rng = np.random.default_rng(0)
    s_base = rng.normal(size=(DIMS[0], DIMS[0]))
    s_base = s_base + s_base.T
    bonding = padded_projective()
    levels = []
    for d in DIMS:
        s = np.zeros((d, d))
        s[: DIMS[0], : DIMS[0]] = s_base
        levels.append(s)
    return CoherentSequence(bonding, levels, "2,0")


# ---------------------------------------------------------------------------
# bonding systems
# ---------------------------------------------------------------------------

def test_padded_inclusion_tower_validates():
    rep = validate_bonding(padded_direct())
    assert rep.passed
    assert all(e.residual == 0.0 for e in rep.entries)


def test_padded_projection_tower_validates():
    assert validate_bonding(padded_projective()).passed


def test_consecutive_only_input_generates_passing_tower():
    rng = np.random.default_rng(1)
    maps = []
    for a, b in zip(DIMS, DIMS[1:]):
        m = np.zeros((a, b))
        m[:, :a] = np.eye(a)
        m[:, a:] = rng.normal(size=(a, b - a))
        maps.append(m)  # surjections with a random second block
    b = BondingSystem(DIMS, "projective", maps)
    assert validate_bonding(b).passed


def test_perturbed_composite_map_fails_with_residual():
    # build a 3-level projective system whose long map disagrees with the
    # composition of the short ones by overriding map() output via direct
    # construction: perturb one consecutive map after composing
    base = padded_projective()
    lam02 = base.map(0, 2)
    eps = 1e-3
    bad = lam02 + eps
    res = np.linalg.norm(bad - base.map(0, 1) @ base.map(1, 2))
    assert res == pytest.approx(eps * lam02.size ** 0.5, rel=0.5)
    # the library-level check: a tower with inconsistent stored maps cannot
    # be constructed from consecutive maps, so simulate by validating a
    # system whose composition law is violated through non-surjectivity
    rank_deficient = [np.zeros((1, 2)), np.eye(2, 3), np.eye(3, 4)]
    b = BondingSystem([1, 2, 3, 4], "projective", rank_deficient)
    rep = validate_bonding(b)
    assert not rep.passed


def test_direct_tower_requires_projections_for_general_injections():
    rng = np.random.default_rng(2)
    maps = [rng.normal(size=(b, a)) for a, b in zip(DIMS, DIMS[1:])]
    b = BondingSystem(DIMS, "direct", maps)  # not padding: no auto projections
    with pytest.raises(ShapeMismatch):
        b.projection(0, 1)


def _products_forced(b):
    """``b`` with ``padding`` forced off, so that every law forms its products."""
    object.__setattr__(b, "padding", False)
    return b


@settings(max_examples=60, deadline=None)
@given(variance=st.sampled_from(["projective", "direct"]), low=st.integers(1, 3),
       steps=st.lists(st.integers(0, 2), max_size=11), atol=st.sampled_from([0.0, 1e-9]))
def test_a_padding_tower_reports_the_bytes_of_its_products(variance, low, steps, atol):
    # nondecreasing dims, repeated where a step is 0, over 1 to 12 levels
    dims = list(itertools.accumulate(steps, initial=low))
    tol = Tolerance(atol=atol, rtol=1e-9)
    b = BondingSystem.padded(dims, variance)
    assert b.padding
    products = _products_forced(BondingSystem.padded(dims, variance))
    assert validate_bonding(b, tol).to_json() == validate_bonding(products, tol).to_json()


def test_padding_maps_with_other_projections_take_the_products():
    # the maps are padding but the projection halves: proj @ map = I / 2
    b = BondingSystem([1, 2], "direct", [np.eye(2, 1)], [0.5 * np.eye(1, 2)])
    assert not b.padding
    [section] = [e for e in validate_bonding(b).entries if e.name == "section[0,1]"]
    assert section.residual == 0.5 and not section.passed


def test_maps_one_ulp_off_padding_take_the_products():
    one_up = np.nextafter(1.0, 2.0)
    maps = [np.eye(2, 3), np.eye(3, 4)]
    maps[1][2, 2] = one_up
    assert not BondingSystem([2, 3, 4], "projective", maps).padding
    # three such maps, each one entry off the identity: the law's product
    # associates them differently from the composite, and rounds apart
    up, down = np.array([[1.0, one_up], [0.0, 1.0]]), np.array([[1.0, 0.0], [one_up, 1.0]])
    b = BondingSystem([2] * 4, "projective", [up, down, up])
    assert not b.padding
    report = validate_bonding(b)
    [law] = [e for e in report.entries if e.name == "composition[0,1,3]"]
    assert law.residual == 2.0 ** -51 and report.passed


def test_a_section_law_is_judged_at_the_norm_of_its_left_hand_side():
    # proj @ map = (1 + d) I_3: residual sqrt(3) d at the scale sqrt(3) (1 + d),
    # so rtol r accepts d up to about r, where the scale 1 took r / sqrt(3)
    tol = Tolerance(atol=0.0, rtol=1e-6)
    for d, accept in ((0.9e-6, True), (1.1e-6, False)):
        b = BondingSystem([3, 3], "direct", [2.0 * np.eye(3)], [0.5 * (1.0 + d) * np.eye(3)])
        [section] = [e for e in validate_bonding(b, tol).entries if e.name == "section[0,1]"]
        assert section.passed == accept, d


def test_an_unknown_sequence_kind_is_refused():
    with pytest.raises(ValueError, match="unknown tensor kind '0,2'"):
        CoherentSequence(BondingSystem.padded([1, 2], "projective"), [[[1.0]], np.eye(2)], "0,2")


def test_bonding_shape_errors():
    with pytest.raises(ShapeMismatch):
        BondingSystem([2, 1], "projective", [np.eye(1, 2)])
    with pytest.raises(ShapeMismatch):
        BondingSystem([1, 2], "projective", [np.eye(3)])


@pytest.mark.parametrize("count", [0, 2])
def test_wrong_number_of_projections_is_a_shape_error(count):
    with pytest.raises(ShapeMismatch, match=f"need 1 consecutive projections, got {count}"):
        BondingSystem([1, 2], "direct", [np.eye(2, 1)], [np.eye(1, 2)] * count)


# ---------------------------------------------------------------------------
# coherent sequences
# ---------------------------------------------------------------------------

def test_diag_direct_sequence_coherent():
    rep = check_coherent(diag_direct_sequence())
    assert rep.passed
    assert all(e.residual == 0.0 for e in rep.entries)


def test_zero_extended_projective_sequence_coherent():
    rep = check_coherent(zero_extended_projective_sequence())
    assert rep.passed


def test_modified_entry_fails_at_the_right_pair():
    seq = diag_direct_sequence()
    seq.levels[2] = seq.levels[2].copy()
    seq.levels[2][0, 0] += 0.5
    rep = check_coherent(seq)
    failed = {e.name for e in rep.failures()}
    assert "coherent[0,2]" in failed
    assert "coherent[1,2]" in failed
    assert "coherent[0,1]" not in failed


def test_direct_two_form_restriction_coherent():
    rng = np.random.default_rng(3)
    s_top = rng.normal(size=(4, 4))
    s_top = s_top - s_top.T
    bonding = padded_direct()
    seq = CoherentSequence(bonding, [s_top[:d, :d] for d in DIMS], "2,0")
    assert check_coherent(seq).passed


def test_projective_endomorphism_coherence():
    # A_i lam = lam A_j with padding lam means A_j is block lower triangular
    # with fixed leading blocks; diag matrices qualify
    bonding = padded_projective()
    seq = CoherentSequence(bonding,
                           [np.diag(np.arange(1.0, d + 1)) for d in DIMS], "1,1")
    assert check_coherent(seq).passed


# ---------------------------------------------------------------------------
# limit evaluation
# ---------------------------------------------------------------------------

def test_limit_eval_cross_level_consistency_direct():
    seq = diag_direct_sequence()
    b = seq.bonding
    x = np.array([1.0, -2.0])
    low = limit_eval(seq, 1, x)
    high = limit_eval(seq, 3, b.map(1, 3) @ x)
    np.testing.assert_allclose(b.map(1, 3) @ low, high, atol=1e-12)


def test_limit_eval_cross_level_consistency_projective_forms():
    seq = zero_extended_projective_sequence()
    b = seq.bonding
    rng = np.random.default_rng(5)
    u4 = rng.normal(size=4)
    v4 = rng.normal(size=4)
    hi = limit_eval(seq, 3, (u4, v4))
    # coherence says the level-3 form is the pullback of the level-1 form,
    # so evaluating downstairs on the projected vectors agrees
    lo = limit_eval(seq, 1, (b.map(1, 3) @ u4, b.map(1, 3) @ v4))
    assert hi == pytest.approx(lo)


def test_limit_eval_refuses_incoherent_sequence():
    seq = diag_direct_sequence()
    seq.levels[1] = np.diag([5.0, 7.0])
    with pytest.raises(InvalidInput, match="worst coherence residual"):
        limit_eval(seq, 1, np.array([1.0, 1.0]))


def test_limit_eval_names_a_nan_residual_as_the_worst():
    # coherent[0,1] fails with 2.0 first; diag(0, 1e308) overflows the
    # scale and the residual of coherent[2,3] to inf - inf
    b = BondingSystem([1, 1, 2, 2], "direct", [[[1.0]], [[2.0], [0.0]], np.diag([1.0, 2.0])])
    seq = CoherentSequence(b, [[[1.0]], [[3.0]], np.diag([0.0, 1e308]),
                               np.diag([0.0, 1e308])], "1,1")
    with np.errstate(all="ignore"), pytest.raises(InvalidInput) as exc:
        limit_eval(seq, 0, np.array([1.0]))
    assert str(exc.value) == "worst coherence residual nan"


def test_limit_eval_degrades_linearly_with_injected_incoherence():
    for eps in (1e-8, 1e-4):
        seq = diag_direct_sequence()
        seq.levels[3] = seq.levels[3].copy()
        seq.levels[3][0, 0] += eps
        rep = check_coherent(seq)
        worst = max(e.residual for e in rep.entries)
        assert worst == pytest.approx(eps, rel=1e-6)


# ---------------------------------------------------------------------------
# level tuples
# ---------------------------------------------------------------------------

def random_projective_tuple(rng, bonding=None):
    # block lower-triangular entries intertwine padding projections
    bonding = bonding or padded_projective()
    entries = []
    base = rng.normal(size=(DIMS[-1], DIMS[-1])) + 3 * np.eye(DIMS[-1])
    top = np.tril(base)
    for d in DIMS:
        entries.append(top[:d, :d])
    return LevelTuple(bonding, entries)


def test_identity_tuple_is_neutral():
    bonding = padded_projective()
    ident = LevelTuple(bonding, [np.eye(d) for d in DIMS])
    rng = np.random.default_rng(7)
    t = random_projective_tuple(rng, bonding)
    left = tuple_compose(ident, t)
    for a, b in zip(left.entries, t.entries):
        np.testing.assert_allclose(a, b, atol=1e-14)
    assert tuple_membership(ident).passed


def test_tuple_closure_under_composition():
    rng = np.random.default_rng(9)
    bonding = padded_projective()
    for _ in range(100):
        a = random_projective_tuple(rng, bonding)
        b = random_projective_tuple(rng, bonding)
        assert tuple_membership(a).passed
        prod = tuple_compose(a, b)
        rep = tuple_membership(prod)
        assert rep.passed
        assert max(e.residual for e in rep.entries) <= 1e-10


def test_tuple_inverse_preserves_constraint():
    rng = np.random.default_rng(11)
    t = random_projective_tuple(rng)
    inv = tuple_inverse(t)
    assert tuple_membership(inv).passed
    prod = tuple_compose(t, inv)
    for lvl, m in enumerate(prod.entries):
        np.testing.assert_allclose(m, np.eye(DIMS[lvl]), atol=1e-10)


def test_tuple_inverse_reports_singular_level():
    bonding = padded_projective()
    entries = [np.eye(1), np.zeros((2, 2)), np.eye(3), np.eye(4)]
    with pytest.raises(InvalidInput, match="entry at level 1 is not invertible"):
        tuple_inverse(LevelTuple(bonding, entries))


def test_tuple_projection_functorial():
    rng = np.random.default_rng(13)
    t = random_projective_tuple(rng)
    p21 = tuple_project(tuple_project(t, 3), 2)
    p1 = tuple_project(t, 2)
    for a, b in zip(p21.entries, p1.entries):
        np.testing.assert_allclose(a, b, atol=1e-15)


def test_tuple_membership_with_isotropy_models():
    bonding = padded_projective()
    ident = LevelTuple(bonding, [np.eye(d) for d in DIMS])
    models = [StructureMatrix(np.diag(np.arange(1.0, d + 1)), "1,1") for d in DIMS]
    assert tuple_membership(ident, isotropy_models=models).passed


def test_tuple_membership_needs_an_isotropy_model_per_entry():
    ident = LevelTuple(padded_projective(), [np.eye(d) for d in DIMS])
    models = [StructureMatrix(np.eye(d), "2,0") for d in DIMS[:-1]]
    with pytest.raises(ShapeMismatch):
        tuple_membership(ident, isotropy_models=models)


@pytest.mark.parametrize("top, residual", [(2.0, 0.75), (0.0, np.inf)])
def test_tuple_membership_fails_an_entry_outside_its_isotropy_group(top, residual):
    # diag(1, top) intertwines with the padding, and moves the identity form
    # to diag(1, 1/top^2): by 3/4 for top = 2; a singular entry is in no group
    a = LevelTuple(BondingSystem.padded([1, 2], "projective"), [np.eye(1), np.diag([1.0, top])])
    models = [StructureMatrix(np.eye(d), "2,0") for d in (1, 2)]
    report = tuple_membership(a, isotropy_models=models)
    assert [(e.name, e.passed, e.residual) for e in report.entries
            if e.name.startswith("isotropy")] == [("isotropy[0]", True, 0.0),
                                                  ("isotropy[1]", False, residual)]


# ---------------------------------------------------------------------------
# flag-preserving operators
# ---------------------------------------------------------------------------

def random_flag_member(rng, dims=DIMS):
    n = dims[-1]
    a = np.triu(rng.normal(size=(n, n)))
    # block upper-triangular with respect to the flag boundaries: fill the
    # diagonal blocks fully and keep them invertible
    prev = 0
    for d in dims:
        a[prev:d, prev:d] = rng.normal(size=(d - prev, d - prev))
        a[prev:d, prev:d] += 2 * np.eye(d - prev)
        prev = d
    return a


def test_identity_is_flag_member_with_identity_blocks():
    member, blocks, _ = gEn_membership(np.eye(4), padded_direct())
    assert member
    np.testing.assert_allclose(blocks[0][1], np.eye(1))
    for k in (1, 2, 3):
        np.testing.assert_allclose(blocks[k][1], np.eye(1))
        np.testing.assert_allclose(blocks[k][0], np.zeros((k, 1)))


def test_block_triangular_operator_is_member():
    rng = np.random.default_rng(17)
    a = random_flag_member(rng)
    member, blocks, rep = gEn_membership(a, padded_direct())
    assert member, [e.residual for e in rep.entries]
    # blocks reproduce the matrix slices
    np.testing.assert_allclose(blocks[2][0], a[:2, 2:3])


def test_rotation_mixing_levels_is_not_member():
    theta = 0.3
    a = np.eye(4)
    a[0, 0] = a[1, 1] = np.cos(theta)
    a[0, 1], a[1, 0] = -np.sin(theta), np.sin(theta)
    member, blocks, _ = gEn_membership(a, padded_direct())
    assert not member
    assert blocks is None


def test_gEn_membership_rejects_singular():
    with pytest.raises(InvalidInput, match="operator is not invertible"):
        gEn_membership(np.zeros((4, 4)), padded_direct())


def test_theta_projection_extracts_leading_block():
    rng = np.random.default_rng(19)
    a = random_flag_member(rng)
    low = theta_projection(a, 3, 0, padded_direct())
    np.testing.assert_allclose(low, a[:1, :1], atol=1e-12)


def test_theta_projection_functoriality():
    rng = np.random.default_rng(23)
    bonding = padded_direct()
    for _ in range(100):
        a = random_flag_member(rng)
        direct = theta_projection(a, 3, 0, bonding)
        mid = theta_projection(a, 3, 1, bonding)
        via = theta_projection(mid, 1, 0, bonding)
        assert np.linalg.norm(direct - via) <= 1e-12


def test_theta_projection_rejects_non_member():
    a = np.ones((4, 4)) + np.eye(4)
    with pytest.raises(InvalidInput, match="operator violates the flag"):
        theta_projection(a, 3, 0, padded_direct())


def test_theta_projection_checks_levels_and_projections_before_membership():
    non_member = np.ones((4, 4)) + np.eye(4)
    # levels out of order, on a tower that has its projections
    with pytest.raises(ShapeMismatch, match="out of range"):
        theta_projection(non_member[:3, :3], 2, 3, padded_direct())
    # a direct tower without projections, whose first two maps are padding
    rng = np.random.default_rng(3)
    maps = [np.eye(2, 1), np.eye(3, 2), rng.normal(size=(4, 3))]
    with pytest.raises(ShapeMismatch, match="no projections"):
        theta_projection(non_member[:3, :3], 2, 0, BondingSystem(DIMS, "direct", maps))
    # levels in range and projections present: membership decides
    with pytest.raises(InvalidInput, match="operator violates the flag"):
        theta_projection(non_member, 3, 1, padded_direct())


def test_theta_projection_names_a_nan_residual_as_the_worst():
    # flag_invariant[0] fails with a finite residual first; at level 1 the
    # image overflows and the invariance defect is inf - inf
    maps = [[[1e-200], [0.0]], [[1e200, 0.0], [0.0, 1e200], [0.0, 0.0]]]
    projs = [[[1e200, 0.0]], [[1e-200, 0.0, 0.0], [0.0, 1e-200, 0.0]]]
    bonding = BondingSystem([1, 2, 3], "direct", maps, projs)
    a = 1e150 * np.array([[0.6, 0.0, -0.8], [0.0, 1.0, 0.0], [0.8, 0.0, 0.6]])
    with np.errstate(all="ignore"):
        _, _, rep = gEn_membership(a, bonding)
        with pytest.raises(InvalidInput) as exc:
            theta_projection(a, 2, 0, bonding)
    assert [(e.name, e.passed) for e in rep.entries] == [
        ("flag_invariant[0]", False), ("flag_invariant[1]", False)]
    assert rep.entries[0].residual == 8e149 and np.isnan(rep.entries[1].residual)
    assert str(exc.value) == "operator violates the flag (worst residual nan)"


def test_projected_members_stay_members():
    rng = np.random.default_rng(29)
    bonding = padded_direct()
    sub = BondingSystem.padded(DIMS[:3], "direct")
    for _ in range(20):
        a = random_flag_member(rng)
        low = theta_projection(a, 3, 2, bonding)
        member, _, _ = gEn_membership(low, sub)
        assert member


def test_isotropy_nesting_through_theta():
    # a flag member commuting with a coherent diag sequence at the top keeps
    # commuting after projection (block restriction)
    rng = np.random.default_rng(31)
    seq = diag_direct_sequence()
    bonding = seq.bonding
    for _ in range(100):
        blocks = [np.diag(rng.uniform(1.0, 2.0, size=1)) for _ in range(4)]
        a = np.zeros((4, 4))
        prev = 0
        for k, d in enumerate(DIMS):
            a[prev:d, prev:d] = blocks[k]
            prev = d
        # diagonal a commutes with diag(1,2,3,4)
        top = seq.levels[3]
        assert np.linalg.norm(a @ top - top @ a) <= 1e-12
        low = theta_projection(a, 3, 1, bonding)
        lower = seq.levels[1]
        assert np.linalg.norm(low @ lower - lower @ low) <= 1e-12


# ---------------------------------------------------------------------------
# adapted connection towers
# ---------------------------------------------------------------------------

def skew(n, rng):
    m = rng.normal(size=(n, n))
    return m - m.T


def zero_form_tower(variance):
    bonding = BondingSystem.padded([2, 3, 4], variance)
    forms = [LevelForm([np.zeros((d, d)) for _ in range(d)]) for d in [2, 3, 4]]
    models = [StructureMatrix(np.eye(d), "2,0") for d in [2, 3, 4]]
    return ConnectionFormSequence(bonding, forms, models)


def test_zero_forms_pass_both_variances():
    for variance in ("projective", "direct"):
        seq = zero_form_tower(variance)
        pts = np.zeros((1, 2 if variance == "direct" else 4))
        rep = check_connection_coherence(seq, pts)
        assert rep.passed


def coherent_direct_form_tower(rng, dims=(2, 3, 4)):
    bonding = BondingSystem.padded(list(dims), "direct")
    base_coeffs = [skew(dims[0], rng) for _ in range(dims[0])]
    forms = []
    for lvl, d in enumerate(dims):
        coeffs = []
        for a in range(d):
            if a < dims[0]:
                mat = np.zeros((d, d))
                mat[:dims[0], :dims[0]] = base_coeffs[a]
                # higher levels may add content outside the included block
                # only where no coherence constraint reaches: nowhere for
                # padded towers, so keep the extension zero
            else:
                mat = skew(d, rng)
                mat[:dims[lvl - 1], :dims[lvl - 1]] = 0.0 if lvl else mat
            coeffs.append(mat if a >= dims[0] else mat)
        forms.append(LevelForm(coeffs))
    models = [StructureMatrix(np.eye(d), "2,0") for d in dims]
    return ConnectionFormSequence(bonding, forms, models)


def test_direct_form_tower_block_extension_passes():
    rng = np.random.default_rng(37)
    seq = coherent_direct_form_tower(rng)
    pts = rng.uniform(-1, 1, size=(20, 2))
    rep = check_connection_coherence(seq, pts)
    assert rep.passed, [(e.name, e.residual) for e in rep.failures()]


def test_projective_form_tower_passes():
    rng = np.random.default_rng(41)
    dims = [2, 3, 4]
    bonding = BondingSystem.padded(dims, "projective")
    base = [skew(2, rng) for _ in range(2)]
    forms = []
    for d in dims:
        coeffs = []
        for a in range(d):
            mat = np.zeros((d, d))
            if a < 2:
                mat[:2, :2] = base[a]
                # entries outside the leading block are unconstrained
                mat[2:, 2:] = skew(d - 2, rng)
            else:
                mat[2:, 2:] = skew(d - 2, rng)
            coeffs.append(mat)
        forms.append(LevelForm(coeffs))
    models = [StructureMatrix(np.eye(d), "2,0") for d in dims]
    seq = ConnectionFormSequence(bonding, forms, models)
    pts = rng.uniform(-1, 1, size=(20, 4))
    rep = check_connection_coherence(seq, pts)
    assert rep.passed, [(e.name, e.residual) for e in rep.failures()]


def test_off_subalgebra_perturbation_localized():
    rng = np.random.default_rng(43)
    seq = coherent_direct_form_tower(rng)
    # push the level-1 form off the skew subalgebra
    bad = [c.copy() for c in seq.forms[1].stack]
    bad[0] = bad[0] + 1e-3 * np.eye(3)
    seq.forms[1] = LevelForm(bad)
    pts = rng.uniform(-1, 1, size=(10, 2))
    rep = check_connection_coherence(seq, pts)
    failed = [e.name for e in rep.failures()]
    assert "adapted[1]" in failed
    assert "adapted[0]" not in failed
    assert "adapted[2]" not in failed
