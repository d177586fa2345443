import struct

import numpy as np
import pytest

from tensorstruct.bundle import (
    AffineTransition,
    Chart,
    ChartAtlas,
    ConstantTransition,
    LocalTensorField,
    StructureMatrix,
    check_cocycle,
    check_locally_modelled,
    check_reduction,
    in_isotropy,
    tensor_action,
)
from tensorstruct.errors import BadAtPoint, InvalidInput, ShapeMismatch, TensorStructError
from tensorstruct.linalg import Tolerance
from tensorstruct.report import worst, worst_index
from tensorstruct.structures import complex_canonical, symplectic_canonical


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


OMEGA = StructureMatrix(symplectic_canonical(2).matrix, "2,0", "skew")
I_MODEL = StructureMatrix(complex_canonical(2).matrix, "1,1")


# ---------------------------------------------------------------------------
# tensor action and isotropy
# ---------------------------------------------------------------------------

def test_tensor_action_identity():
    t = StructureMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]), "1,1")
    np.testing.assert_allclose(tensor_action(np.eye(2), t).matrix, t.matrix)


def test_tensor_action_sl2_preserves_area_form():
    g = np.array([[2.0, 1.0], [1.0, 1.0]])  # det 1
    moved = tensor_action(g, OMEGA)
    np.testing.assert_allclose(moved.matrix, OMEGA.matrix, atol=1e-12)


def test_tensor_action_rotation_commutes_with_complex_canonical():
    moved = tensor_action(rotation(0.7), I_MODEL)
    np.testing.assert_allclose(moved.matrix, I_MODEL.matrix, atol=1e-12)


def test_tensor_action_is_an_action():
    # action property: action(g h, T) = action(g, action(h, T)), 100 draws
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        g = rng.normal(size=(n, n)) + 3 * np.eye(n)
        h = rng.normal(size=(n, n)) + 3 * np.eye(n)
        kind = "1,1" if rng.integers(2) else "2,0"
        raw = rng.normal(size=(n, n))
        mat = raw + raw.T if kind == "2,0" else raw
        t = StructureMatrix(mat, kind)
        once = tensor_action(g @ h, t).matrix
        twice = tensor_action(g, tensor_action(h, t)).matrix
        assert np.linalg.norm(once - twice) <= 1e-8 * max(np.linalg.norm(once), 1.0)


def test_tensor_action_rejects_singular():
    with pytest.raises(InvalidInput, match="tensor action needs an invertible map"):
        tensor_action(np.zeros((2, 2)), I_MODEL)


def test_a_singular_map_lies_in_no_isotropy_group():
    assert in_isotropy(np.zeros((2, 2)), I_MODEL) == (False, np.inf)
    assert in_isotropy(np.diag([1.0, 0.0]), OMEGA) == (False, np.inf)


def test_in_isotropy_refuses_a_map_of_another_size():
    with pytest.raises(ShapeMismatch, match=r"map \(3, 3\) vs tensor \(2, 2\)"):
        in_isotropy(np.eye(3), I_MODEL)


def test_in_isotropy_shear_preserves_canonical_form():
    assert in_isotropy(np.array([[1.0, 1.0], [0.0, 1.0]]), OMEGA)[0]


def test_in_isotropy_scaling_breaks_form():
    assert not in_isotropy(np.diag([2.0, 1.0]), OMEGA)[0]


def test_in_isotropy_reflection_anticommutes_with_complex():
    assert not in_isotropy(np.diag([1.0, -1.0]), I_MODEL)[0]


def test_isotropy_group_closure_spot_check():
    rng = np.random.default_rng(5)
    members = [rotation(t) for t in rng.uniform(0, 2 * np.pi, size=8)]
    for a in members:
        assert in_isotropy(a, I_MODEL)[0]
        assert in_isotropy(np.linalg.inv(a), I_MODEL)[0]
        for b in members:
            assert in_isotropy(a @ b, I_MODEL)[0]


# ---------------------------------------------------------------------------
# atlases
# ---------------------------------------------------------------------------

def three_chart_rotation_atlas(theta1=0.3, theta2=0.5, perturb=0.0):
    pts = np.array([[0.1, 0.2], [0.4, -0.1], [-0.3, 0.3]])
    t13 = rotation(theta1 + theta2)
    if perturb:
        t13 = t13 + perturb * np.array([[0.0, 1.0], [0.0, 0.0]])
    charts = [Chart(name, [-1, -1], [1, 1], pts) for name in "abc"]
    return ChartAtlas(
        fiber_dim=2,
        charts=charts,
        overlaps={("a", "b"): pts, ("b", "c"): pts, ("a", "c"): pts},
        transitions={
            ("a", "b"): ConstantTransition(rotation(theta1)),
            ("b", "c"): ConstantTransition(rotation(theta2)),
            ("a", "c"): ConstantTransition(t13),
        },
        triple_overlaps=[("a", "b", "c", pts)],
    )


def test_cocycle_constant_rotations_pass():
    rep = check_cocycle(three_chart_rotation_atlas())
    assert rep.passed
    assert all(e.residual <= 1e-12 for e in rep.entries)


def test_cocycle_perturbation_detected_with_measured_residual():
    rep = check_cocycle(three_chart_rotation_atlas(perturb=1e-3))
    assert not rep.passed
    bad = [e for e in rep.entries if e.name.startswith("cocycle")][0]
    assert 0.5e-3 <= bad.residual <= 2e-3


def scalar_atlas(points, ac_slope):
    """Fiber and base of dimension 1: T_ab = 1, T_bc(x) = 1 + (1e7 - 1) x and
    T_ac(x) = 1 + ac_slope x, sampled on the triple at ``points``."""
    pts = np.array(points, dtype=float)
    charts = [Chart(name, [-2.0], [2.0], pts) for name in "abc"]
    return ChartAtlas(
        fiber_dim=1,
        charts=charts,
        overlaps={("a", "b"): pts, ("b", "c"): pts, ("a", "c"): pts},
        transitions={
            ("a", "b"): ConstantTransition([[1.0]]),
            ("b", "c"): AffineTransition([[1.0]], [[[1e7 - 1.0]]]),
            ("a", "c"): AffineTransition([[1.0]], [[[ac_slope]]]),
        },
        triple_overlaps=[("a", "b", "c", pts)],
    )


def test_cocycle_judges_each_sample_at_its_own_scale():
    # at x = 1 the transitions are about 1e7, so a residual of 1e-3 is within
    # rtol there; at x = 0 they are about 1, so the same residual is not
    def cocycle_entry(points, ac_slope, base=1.0):
        atlas = scalar_atlas(points, ac_slope)
        atlas.transitions[("a", "c")].base[0, 0] = base
        [entry] = [e for e in check_cocycle(atlas).entries if e.name.startswith("cocycle")]
        return entry

    # the defect sits at x = 0 (scale 1) and the last sample has scale 1e7:
    # judged at the last sample's scale it would pass
    entry = cocycle_entry([[0.0], [1.0]], 1e7 - 1.0 - 1e-3, base=1.0 + 1e-3)
    assert not entry.passed
    assert entry.residual == pytest.approx(1e-3, rel=1e-6)
    assert entry.location == np.array2string(np.zeros(1), precision=3)
    # the defect sits at x = 1 (scale 1e7) and the last sample has scale 1:
    # judged at the last sample's scale it would fail
    entry = cocycle_entry([[1.0], [0.0]], 1e7 - 1.0 + 1e-3)
    assert entry.passed
    assert entry.residual == pytest.approx(1e-3, rel=1e-6)
    assert entry.location == np.array2string(np.ones(1), precision=3)


def test_transition_between_unjoined_charts_raises_package_error():
    atlas = three_chart_rotation_atlas()
    del atlas.transitions[("a", "c")]
    assert not atlas.has_transition("a", "c") and atlas.has_transition("c", "b")
    with pytest.raises(InvalidInput, match="no transition declared between 'a' and 'c'"):
        atlas.transition_at("a", "c", np.zeros(2))
    with pytest.raises(TensorStructError):
        check_cocycle(atlas)


@pytest.mark.parametrize("scale", [1.0, 10.0])
def test_an_exactly_singular_transition_is_infinitely_ill_conditioned(scale):
    # no division by the zero singular value, so no warning either
    pts = np.array([[0.0, 0.0]])
    atlas = ChartAtlas(2, [Chart(n, [-1, -1], [1, 1], pts) for n in "ab"],
                       overlaps={("a", "b"): pts},
                       transitions={("a", "b"): ConstantTransition(np.diag([scale, 0.0]))})
    [entry] = check_cocycle(atlas).entries
    assert (entry.name, entry.passed, entry.residual) == ("invertible[a,b]", False, np.inf)


def test_cocycle_single_chart_vacuous_pass():
    atlas = ChartAtlas(2, [Chart("only", [-1, -1], [1, 1])])
    rep = check_cocycle(atlas)
    assert rep.passed
    assert any("vacuous" in note for note in rep.notes)


def test_cocycle_notes_disconnected_cover():
    charts = [Chart(n, [-1, -1], [1, 1]) for n in "abcd"]
    pts = np.zeros((1, 2))
    atlas = ChartAtlas(2, charts,
                       overlaps={("a", "b"): pts, ("c", "d"): pts},
                       transitions={("a", "b"): ConstantTransition(np.eye(2)),
                                    ("c", "d"): ConstantTransition(np.eye(2))})
    rep = check_cocycle(atlas)
    assert any("disconnected" in note for note in rep.notes)


def test_reduction_rotations_in_complex_isotropy():
    rep = check_reduction(three_chart_rotation_atlas(), I_MODEL)
    assert rep.passed


def test_reduction_fails_for_noncommuting_model():
    model = StructureMatrix(np.diag([1.0, 2.0]), "1,1")
    rep = check_reduction(three_chart_rotation_atlas(), model)
    assert not rep.passed


def test_reduction_identity_transitions_pass_any_spec():
    pts = np.array([[0.0, 0.0]])
    charts = [Chart(n, [-1, -1], [1, 1], pts) for n in "ab"]
    atlas = ChartAtlas(2, charts, overlaps={("a", "b"): pts},
                       transitions={("a", "b"): ConstantTransition(np.eye(2))})
    for model in (OMEGA, I_MODEL, StructureMatrix(np.diag([1.0, 7.0]), "1,1")):
        assert check_reduction(atlas, model).passed


def test_reduction_detects_off_group_perturbation_size():
    # acceptance-style: 1e-3 perturbation off the group detected within x2
    theta = 0.4
    eps = 1e-3
    t = rotation(theta) + eps * np.array([[1.0, 0.0], [0.0, 0.0]])
    pts = np.array([[0.0, 0.0]])
    atlas = ChartAtlas(2, [Chart("a", [-1, -1], [1, 1], pts),
                           Chart("b", [-1, -1], [1, 1], pts)],
                       overlaps={("a", "b"): pts},
                       transitions={("a", "b"): ConstantTransition(t)})
    rep = check_reduction(atlas, OMEGA)
    entry = [e for e in rep.entries if e.name.startswith("isotropy")][0]
    assert not entry.passed
    assert eps / 2 <= entry.residual <= 2 * eps


def test_constant_transition_keeps_the_bits_of_its_own_evaluator():
    # the evaluator ConstantTransition had before it became an AffineTransition
    # with no coefficients, verbatim
    def old_call(matrix, x):
        return matrix

    def old_stacked(matrix, xs):
        return matrix[None].repeat(len(xs), axis=0)

    matrix = np.array([[-0.0, 1e-320], [np.nextafter(1.0, 2.0), -3.5]])
    fn = ConstantTransition(matrix)
    for xs in (np.zeros((0, 2)), np.array([[0.5, -1.0]]), np.arange(6.0).reshape(3, 2)):
        got, want = fn.stacked(xs), old_stacked(matrix, xs)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert fn([0.5, -1.0]).tobytes() == old_call(matrix, [0.5, -1.0]).tobytes()


def test_affine_transition_evaluation():
    fn = AffineTransition(np.eye(2), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    np.testing.assert_allclose(fn([0.5, -0.25]), np.diag([1.5, 0.75]))


@pytest.mark.parametrize("point", [[1.0], [1.0, 1.0, 5.0], []])
def test_an_affine_transition_needs_one_coordinate_per_coefficient(point):
    # zip used to drop the extra terms or the extra coordinates: [[2.]] and [[3.]]
    fn = AffineTransition(np.eye(1), [[[1.0]], [[1.0]]])
    with pytest.raises(ShapeMismatch, match=f"{len(point)} coordinates for 2 terms"):
        fn(point)
    with pytest.raises(ShapeMismatch):
        fn.stacked(np.array([point, point]).reshape(2, -1))
    assert fn([1.0, 1.0]).tolist() == [[3.0]]
    # no points, as an overlap document with "points": [] gives
    assert fn.stacked(np.zeros((0, 0))).shape == (0, 1, 1)


def test_a_constant_transition_takes_points_of_any_width():
    fn = ConstantTransition(np.eye(2))
    for xs in (np.zeros((3, 0)), np.zeros((1, 1)), np.ones((2, 5))):
        assert fn.stacked(xs).tobytes() == np.eye(2)[None].repeat(len(xs), axis=0).tobytes()


# ---------------------------------------------------------------------------
# locally modelled
# ---------------------------------------------------------------------------

def chart_with_grid(name="u"):
    xs = np.linspace(-0.5, 0.5, 3)
    pts = np.array([[x, y] for x in xs for y in xs])
    return Chart(name, [-1, -1], [1, 1], pts)


def test_locally_modelled_constant_field_equals_model():
    chart = chart_with_grid()
    atlas = ChartAtlas(2, [chart])
    field = LocalTensorField("1,1", {"u": lambda x: complex_canonical(2).matrix})
    rep = check_locally_modelled(field, atlas, I_MODEL)
    assert rep.passed


def test_locally_modelled_spd_field_matches_identity_model():
    # Sylvester: any SPD-valued field is in the identity form's orbit
    chart = chart_with_grid()
    atlas = ChartAtlas(2, [chart])
    model = StructureMatrix(np.eye(2), "2,0", "symmetric")

    def spd(x):
        return np.array([[2.0 + x[0] ** 2, x[0] * x[1]],
                         [x[0] * x[1], 1.0 + x[1] ** 2]])

    field = LocalTensorField("2,0", {"u": spd})
    assert check_locally_modelled(field, atlas, model).passed


def test_locally_modelled_detects_signature_crossing():
    chart = chart_with_grid()
    atlas = ChartAtlas(2, [chart])
    model = StructureMatrix(np.eye(2), "2,0", "symmetric")

    def crossing(x):
        return np.diag([1.0, x[0]])  # degenerate/negative for x[0] <= 0

    field = LocalTensorField("2,0", {"u": crossing})
    rep = check_locally_modelled(field, atlas, model)
    assert not rep.passed


def test_locally_modelled_nilpotent_rank_pattern():
    chart = chart_with_grid()
    atlas = ChartAtlas(2, [chart])
    model = StructureMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]), "1,1")

    def tangent_field(x):
        return np.array([[0.0, 1.0 + x[0] ** 2], [0.0, 0.0]])

    field = LocalTensorField("1,1", {"u": tangent_field})
    assert check_locally_modelled(field, atlas, model).passed


def test_locally_modelled_involution_signature():
    # involutions are in one orbit iff their +1/-1 eigenspaces match in size
    chart = chart_with_grid()
    atlas = ChartAtlas(3, [chart])
    model = StructureMatrix(np.diag([1.0, 1.0, -1.0]), "1,1")

    def conjugated(signs):
        def fn(x):
            basis = np.eye(3) + np.outer([0.0, x[0], 0.0], [1.0, 0.0, x[1]])
            return basis @ np.diag(signs) @ np.linalg.inv(basis)
        return fn

    field = LocalTensorField("1,1", {"u": conjugated([1.0, -1.0, 1.0])})
    assert check_locally_modelled(field, atlas, model).passed
    field = LocalTensorField("1,1", {"u": conjugated([1.0, -1.0, -1.0])})
    rep = check_locally_modelled(field, atlas, model)
    assert not rep.passed
    assert rep.entries[0].residual == 1.0


def test_locally_modelled_unsupported_kind():
    chart = chart_with_grid()
    atlas = ChartAtlas(2, [chart])
    model = StructureMatrix(np.diag([1.0, 2.0]), "1,1")
    field = LocalTensorField("1,1", {"u": lambda x: np.diag([1.0, 2.0])})
    with pytest.raises(InvalidInput, match="no complete orbit invariant for this"):
        check_locally_modelled(field, atlas, model)


def test_reduction_implies_locally_modelled_for_pushed_fields():
    # constructive direction: push the model through the atlas transitions
    # and verify the generated field is locally modelled
    atlas = three_chart_rotation_atlas()
    for chart in atlas.charts:
        object.__setattr__(chart, "samples", np.array([[0.1, 0.1], [0.2, -0.2]]))
    assert check_reduction(atlas, I_MODEL).passed

    def push(name):
        def fn(x):
            t = atlas.transition_at("a", name, x)
            return np.linalg.inv(t) @ I_MODEL.matrix @ t
        return fn

    field = LocalTensorField("1,1", {name: push(name) for name in "abc"})
    assert check_locally_modelled(field, atlas, I_MODEL).passed


# ---------------------------------------------------------------------------
# worst-sample locations
# ---------------------------------------------------------------------------

SAMPLES = np.arange(4.0).reshape(4, 1)


def at_sample(k):
    return np.array2string(SAMPLES[k], precision=3)


def tabulated(values):
    """A 1x1 evaluator taking ``values[k]`` at the sample x = k."""
    return lambda x: [[values[int(x[0])]]]


def location(report, prefix):
    [entry] = [e for e in report.entries if e.name.startswith(prefix)]
    return entry.location


def test_worst_sample_locations_on_ties_and_zeros():
    charts = [Chart(name, [-1.0], [4.0], SAMPLES) for name in "abc"]

    def atlas(ac_values, ab_values=(1.0,) * 4):
        return ChartAtlas(
            fiber_dim=1, charts=charts,
            overlaps={("a", "b"): SAMPLES},
            transitions={("a", "b"): tabulated(ab_values),
                         ("b", "c"): ConstantTransition([[1.0]]),
                         ("a", "c"): tabulated(ac_values)},
            triple_overlaps=[("a", "b", "c", SAMPLES)])

    # cocycle: the first sample with the strict maximum; "" when all are 0
    assert location(check_cocycle(atlas([1.0, 1.5, 1.5, 1.0])), "cocycle") == at_sample(1)
    assert location(check_cocycle(atlas([1.0] * 4)), "cocycle") == ""
    # isotropy of the unit form: g = 2 and g = -2 move it equally, so the
    # last sample attaining the worst residual is reported; all 0 reports
    # the last sample
    model = StructureMatrix([[1.0]], "2,0")
    tied = check_reduction(atlas([1.0] * 4, [1.0, 2.0, -2.0, 1.0]), model)
    assert location(tied, "isotropy") == at_sample(2)
    assert location(check_reduction(atlas([1.0] * 4), model), "isotropy") == at_sample(3)
    # locally modelled: the last failing sample attaining the worst residual
    # (every failing sample has residual 1); none failing reports the count
    def modelled(values):
        field = LocalTensorField("2,0", {"a": tabulated(values)})
        return location(check_locally_modelled(field, ChartAtlas(1, charts[:1]), model),
                        "modelled")

    assert modelled([-1.0, -1.0, 1.0, 1.0]) == at_sample(1)
    assert modelled([1.0] * 4) == "4 samples"


# ---------------------------------------------------------------------------
# transitions and fields that cannot be evaluated at a sample
# ---------------------------------------------------------------------------

def overflow_atlas():
    """T_ab(x) = Id + x diag(1e300, 1) overflows at x = 1e300; T_bc and T_ac
    are the identity."""
    charts = [Chart(name, [-1.0], [1.0]) for name in "abc"]
    far = np.array([[1e300]])
    return ChartAtlas(
        fiber_dim=2, charts=charts,
        overlaps={("a", "b"): far, ("b", "c"): far},
        transitions={("a", "b"): AffineTransition(np.eye(2), [np.diag([1e300, 1.0])]),
                     ("b", "c"): ConstantTransition(np.eye(2)),
                     ("a", "c"): ConstantTransition(np.eye(2))},
        triple_overlaps=[("a", "b", "c", np.array([[0.0], [1e300], [0.5]]))])


def test_a_transition_that_overflows_fails_at_its_sample():
    atlas = overflow_atlas()
    far = np.array2string(np.array([1e300]), precision=3)
    with pytest.warns(RuntimeWarning, match="overflow"):
        cocycle = {e.name: e for e in check_cocycle(atlas).entries}
    assert not cocycle["invertible[a,b]"].passed
    assert cocycle["invertible[a,b]"].residual == np.inf
    assert cocycle["invertible[b,c]"].passed
    assert not cocycle["cocycle[a,b,c]"].passed
    assert cocycle["cocycle[a,b,c]"].residual == np.inf
    assert cocycle["cocycle[a,b,c]"].location == far
    model = StructureMatrix(np.eye(2), "2,0")
    with pytest.warns(RuntimeWarning, match="overflow"):
        reduction = {e.name: e for e in check_reduction(atlas, model).entries}
    assert not reduction["isotropy[a,b]"].passed
    assert reduction["isotropy[a,b]"].residual == np.inf
    assert reduction["isotropy[a,b]"].location == far
    assert reduction["isotropy[b,c]"].passed


# T_ba overflows at x = 1e300 (np.linalg.inv would turn its inf into a
# finite matrix), or T_ba = diag(1e-320, 1) has the inverse diag(inf, 1)
INVERTED = {"overflowing": AffineTransition(np.eye(2), [np.diag([1e300, 1.0])]),
            "subnormal": ConstantTransition(np.diag([1e-320, 1.0]))}
# the declared T_ba is not finite, or its inverse T_ab is not
NOT_FINITE = {"overflowing": "transition b->a not finite",
              "subnormal": "transition a->b not finite"}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("declared", INVERTED)
def test_an_inverted_transition_is_finite_or_fails(declared):
    atlas = overflow_atlas()
    del atlas.transitions[("a", "b")]
    atlas.transitions[("b", "a")] = INVERTED[declared]
    far = np.array([1e300])
    with pytest.raises(BadAtPoint) as err:
        atlas.transition_at("a", "b", far)
    assert err.value.reason == NOT_FINITE[declared]
    assert err.value.point is far
    entries = {e.name: e for e in check_cocycle(atlas).entries}
    assert not entries["invertible[a,b]"].passed
    assert entries["invertible[a,b]"].residual == np.inf
    assert not entries["cocycle[a,b,c]"].passed
    assert entries["cocycle[a,b,c]"].residual == np.inf


def test_a_nan_residual_beats_every_number():
    # the rule every check uses: a NaN beats every number, and among equals
    # the first wins, or the last when asked; (residuals, first, last)
    for residuals, first, last in [
            ([1.0, np.nan], 1, 1), ([0.0, np.nan], 1, 1), ([1.0, 2.0], 1, 1),
            ([np.nan, 1.0], 0, 0), ([np.nan, np.nan], 0, 1), ([1.0, 1.0], 0, 1),
            ([np.inf, np.inf], 0, 1), ([np.inf, np.nan, 3.0], 1, 1), ([0.0, -0.0], 0, 1),
            ([-0.0, 0.0], 0, 1)]:
        assert worst_index(residuals) == first
        assert worst_index(residuals, last=True) == last
        assert struct.pack("<d", worst(residuals)) == struct.pack("<d", residuals[first])
    assert worst([]) == 0.0


def test_a_nan_isotropy_residual_is_the_worst():
    # g = diag(1e-320, 1) has the inverse diag(inf, 1), which moves the unit
    # form to a matrix with inf * 0 = NaN entries; the last such sample wins
    charts = [Chart(name, [-1.0], [4.0], SAMPLES) for name in "ab"]
    atlas = ChartAtlas(
        fiber_dim=2, charts=charts, overlaps={("a", "b"): SAMPLES},
        transitions={("a", "b"): lambda x: np.diag([1e-320 if x[0] in (1.0, 2.0) else 2.0,
                                                    1.0])})
    model = StructureMatrix(np.eye(2), "2,0")
    with pytest.warns(RuntimeWarning):
        entry = [e for e in check_reduction(atlas, model).entries
                 if e.name == "isotropy[a,b]"][0]
    assert not entry.passed
    assert np.isnan(entry.residual)
    assert entry.location == at_sample(2)


def test_an_action_that_overflows_is_outside_the_isotropy_group():
    # g = 1e-200 is finite, but it moves the unit form to 1e400 = inf
    charts = [Chart(name, [-1.0], [4.0], SAMPLES) for name in "ab"]
    atlas = ChartAtlas(fiber_dim=1, charts=charts, overlaps={("a", "b"): SAMPLES},
                       transitions={("a", "b"): tabulated([1.0, 1e-200, 1.0, 2.0])})
    model = StructureMatrix([[1.0]], "2,0")
    with pytest.warns(RuntimeWarning, match="overflow"):
        entry = [e for e in check_reduction(atlas, model).entries
                 if e.name == "isotropy[a,b]"][0]
    assert not entry.passed
    assert entry.residual == np.inf
    assert entry.location == at_sample(1)


def test_a_singular_jacobian_fails_its_chart_at_that_sample():
    charts = [Chart(name, [-1.0], [4.0], SAMPLES) for name in "ab"]

    def pulled(x):
        if x[0] in (1.0, 2.0):
            raise BadAtPoint(x, "jacobian singular")
        return [[1.0]]

    field = LocalTensorField("2,0", {"a": pulled, "b": pulled})
    model = StructureMatrix([[1.0]], "2,0")
    report = check_locally_modelled(field, ChartAtlas(1, charts), model)
    assert [(e.name, e.passed, e.residual, e.location) for e in report.entries] == [
        (f"modelled[{name}]", False, np.inf, at_sample(2)) for name in "ab"]
    assert report.notes == ["orbit invariant: signature", "jacobian singular"]


def test_identity_on_the_diagonal_keeps_nan_and_allows_no_samples():
    # T_aa(x) = 1 + 1e300 x_0 - 1e300 x_1 is inf - inf = NaN at (1e300, 1e300)
    chart = Chart("a", [-1.0, -1.0], [1.0, 1.0])
    self_map = AffineTransition([[1.0]], [[[1e300]], [[-1e300]]])
    atlas = ChartAtlas(fiber_dim=1, charts=[chart],
                       overlaps={("a", "a"): np.array([[0.0, 0.0], [1e300, 1e300]])},
                       transitions={("a", "a"): self_map})
    with pytest.warns(RuntimeWarning):
        entry = [e for e in check_cocycle(atlas).entries
                 if e.name == "identity_on_diagonal[a]"][0]
    assert not entry.passed and np.isnan(entry.residual)
    # declared with no sample points: nothing is tested, and nothing fails
    atlas.overlaps[("a", "a")] = np.zeros((0, 2))
    entry = [e for e in check_cocycle(atlas).entries
             if e.name == "identity_on_diagonal[a]"][0]
    assert entry.passed and entry.residual == 0.0


def test_a_declared_self_transition_is_evaluated():
    # the one-chart atlas of the test above: T_aa is NaN at (1e300, 1e300)
    chart = Chart("a", [-1.0, -1.0], [1.0, 1.0])
    far = np.array([1e300, 1e300])
    atlas = ChartAtlas(fiber_dim=1, charts=[chart],
                       overlaps={("a", "a"): np.array([[0.0, 0.0], far])},
                       transitions={("a", "a"): AffineTransition([[1.0]], [[[1e300]], [[-1e300]]])})
    near = np.array([1e-300, 0.0])  # T_aa(near) = 1 + 1e-300 * 1e300, about 2
    assert atlas.transition_at("a", "a", near)[0, 0] == 1.0 + 1e-300 * 1e300
    with pytest.warns(RuntimeWarning):
        with pytest.raises(BadAtPoint) as err:
            atlas.transition_at("a", "a", far)
    assert err.value.reason == "transition a->a not finite"
    assert err.value.point is far
    with pytest.warns(RuntimeWarning):
        entries = {e.name: e for e in check_cocycle(atlas).entries}
    assert not entries["invertible[a,a]"].passed
    assert entries["invertible[a,a]"].residual == np.inf
    # with none declared, T_aa is the identity
    del atlas.transitions[("a", "a")]
    np.testing.assert_array_equal(atlas.transition_at("a", "a", far), np.eye(1))
    assert check_cocycle(atlas).passed


def test_each_reason_a_chart_sample_is_bad_is_noted_once():
    charts = [Chart(name, [-1.0], [4.0], SAMPLES) for name in "abc"]

    def bad_at(reasons):
        """1 everywhere, except BadAtPoint(x, reasons[k]) at the sample x = k."""
        def fn(x):
            reason = reasons.get(int(x[0]))
            if reason:
                raise BadAtPoint(x, reason)
            return [[1.0]]
        return fn

    field = LocalTensorField("2,0", {"a": bad_at({3: "field not finite"}),
                                     "b": bad_at({0: "jacobian singular", 1: "field not finite"}),
                                     "c": bad_at({})})
    model = StructureMatrix([[1.0]], "2,0")
    report = check_locally_modelled(field, ChartAtlas(1, charts), model)
    assert [(e.name, e.passed, e.residual, e.location) for e in report.entries] == [
        ("modelled[a]", False, np.inf, at_sample(3)),
        ("modelled[b]", False, np.inf, at_sample(1)),
        ("modelled[c]", True, 0.0, "4 samples")]
    assert report.notes == ["orbit invariant: signature", "field not finite",
                            "jacobian singular"]


def test_a_field_value_that_is_not_finite_is_bad_at_that_point():
    x = np.array([2.0])
    field = LocalTensorField("2,0", {"a": lambda x: [[np.inf]]})
    with pytest.raises(BadAtPoint) as err:
        field.at("a", x)
    assert err.value.point is x and err.value.reason == "field not finite"
