import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from tensorstruct import documents
from tensorstruct.calculus import (
    _IDENTITY_TOL,
    GRID_TOL,
    ConnectionData,
    TensorFieldOnChart,
    VectorField,
    covariant_derivative_of_structure,
    curvature,
    grid_points,
    is_integrable_structure,
    is_metric_integrable,
    levi_civita,
    lie_bracket,
    nijenhuis,
    parallel_transport,
    pullback_endomorphism,
    pullback_metric,
    random_quadratic_diffeo,
    sphere_stereographic_metric,
    PolyMap,
)
from tensorstruct.errors import BadAtPoint, ShapeMismatch
from tensorstruct.linalg import DEFAULT_TOL, Tolerance
from tensorstruct.poly import Poly
from tensorstruct.structures import (
    SQUARES,
    complex_canonical,
    para_complex_canonical,
    square_defect,
    tangent_canonical,
)

GRID2 = grid_points([-0.5, -0.5], [0.5, 0.5], 5)


def poly_vector(dim, coeff_rows):
    return VectorField.from_polys([Poly(dim, row) for row in coeff_rows])


# ---------------------------------------------------------------------------
# Lie bracket
# ---------------------------------------------------------------------------

def test_lie_bracket_of_constants_vanishes():
    x = VectorField.constant([1.0, 2.0])
    y = VectorField.constant([-3.0, 0.5])
    b = lie_bracket(x, y)
    assert np.allclose(b([0.3, -0.2]), 0.0)


def test_lie_bracket_hand_example():
    # X = d/dx, Y = x d/dy  =>  [X, Y] = d/dy
    x = poly_vector(2, [{(0, 0): 1.0}, {}])
    y = poly_vector(2, [{}, {(1, 0): 1.0}])
    b = lie_bracket(x, y)
    np.testing.assert_allclose(b([0.7, -0.4]), [0.0, 1.0], atol=1e-14)


@pytest.mark.parametrize("build", [
    lambda: TensorFieldOnChart(2, "0,2", lambda x: np.eye(2)),
    lambda: is_integrable_structure(TensorFieldOnChart.constant(np.eye(2), "1,1"), "symplectic",
                                    GRID2),
], ids=["field", "integrability"])
def test_an_unknown_kind_is_refused(build):
    with pytest.raises(ValueError, match="unknown (tensor|structure) kind '(0,2|symplectic)'"):
        build()


def test_lie_bracket_antisymmetry_and_bilinearity():
    rng = np.random.default_rng(3)
    x = poly_vector(2, [{(1, 0): 0.3, (0, 1): -1.2}, {(2, 0): 0.5}])
    y = poly_vector(2, [{(0, 2): 0.7}, {(1, 1): -0.4, (0, 0): 1.0}])
    p = rng.normal(size=2)
    np.testing.assert_allclose(lie_bracket(x, y)(p), -lie_bracket(y, x)(p),
                               atol=1e-12)


def x_in(dim):
    return Poly(dim, {(1,) + (0,) * (dim - 1): 1.0})


SHAPE_ERRORS = {
    "no components": lambda: VectorField.from_polys([]),
    "map without components": lambda: PolyMap([]),
    "map of mixed dimensions": lambda: PolyMap([x_in(2), x_in(3)]),
    "image across dimensions":
        lambda: TensorFieldOnChart.constant(np.eye(3), "1,1").apply(
            VectorField.constant([1.0, 2.0])),
    "bracket across dimensions":
        lambda: lie_bracket(VectorField.constant([1.0]), VectorField.constant([1.0, 2.0])),
    "exponent of another length": lambda: Poly(2, {(1, 0, 0): 1.0}),
    "components of mixed dimensions": lambda: VectorField.from_polys([x_in(2), x_in(3)]),
    "components in other variables": lambda: VectorField.from_polys([x_in(3), x_in(3)]),
    "matrix entry in other variables": lambda: TensorFieldOnChart.from_polys(
        [[x_in(2), x_in(3)], [x_in(2), x_in(2)]], "2,0"),
    "ragged matrix": lambda: TensorFieldOnChart.from_polys(
        [[x_in(2), x_in(2), x_in(2)], [x_in(2)]], "1,1"),
    "no matrix entries": lambda: TensorFieldOnChart.from_polys([], "2,0"),
}


@pytest.mark.parametrize("build", SHAPE_ERRORS.values(), ids=SHAPE_ERRORS.keys())
def test_polynomial_fields_raise_the_shape_error(build):
    with pytest.raises(ShapeMismatch):
        build()


def test_jacobi_identity_polynomial_exact_fd_approximate():
    fields = [
        poly_vector(2, [{(1, 0): 1.0, (0, 2): 0.5}, {(0, 1): -0.3}]),
        poly_vector(2, [{(0, 0): 0.2}, {(2, 0): 1.1, (1, 0): -0.7}]),
        poly_vector(2, [{(1, 1): 0.9}, {(0, 0): -1.0, (0, 2): 0.4}]),
    ]
    p = np.array([0.21, -0.13])

    def jacobi(xs):
        a, b, c = xs
        return (lie_bracket(a, lie_bracket(b, c))(p)
                + lie_bracket(b, lie_bracket(c, a))(p)
                + lie_bracket(c, lie_bracket(a, b))(p))

    assert np.linalg.norm(jacobi(fields)) <= 1e-12

    fd_fields = [VectorField(2, f, step=1e-5) for f in fields]
    assert np.linalg.norm(jacobi(fd_fields)) <= 1e-7


def test_fd_bracket_evaluates_on_point_arrays():
    # callables written for one point, so every derivative is a central
    # difference; brackets, nested brackets and images take (P, d) arrays
    x_field = VectorField(2, lambda p: np.array([np.sin(p[1]), p[0] * p[1]]))
    y_field = VectorField(2, lambda p: np.array([p[0] ** 2, np.cos(p[0])]))
    exact = poly_vector(2, [{(0, 1): 0.5}, {(1, 0): -1.0, (0, 0): 0.2}])
    bracket = lie_bracket(x_field, y_field)
    points = grid_points([-0.5, -0.5], [0.5, 0.5], [3, 4])
    for field in (bracket, lie_bracket(bracket, exact), lie_bracket(exact, bracket),
                  rotation_by_x_field().apply(y_field)):
        batch = field(points)
        assert batch.shape == points.shape
        np.testing.assert_allclose(batch, np.stack([field(p) for p in points]),
                                   rtol=1e-13, atol=1e-13)
    # the bracket agrees with its closed form, (X . grad) Y - (Y . grad) X
    x, y = points[:, 0], points[:, 1]
    closed = np.stack([2 * x * np.sin(y) - np.cos(x) * np.cos(y),
                       -np.sin(x) * np.sin(y) - (x ** 2 * y + x * np.cos(x))], axis=-1)
    np.testing.assert_allclose(bracket(points), closed, rtol=0, atol=1e-8)


# ---------------------------------------------------------------------------
# bracket-defect (Nijenhuis) tensor
# ---------------------------------------------------------------------------

def test_defect_of_constant_endomorphism_vanishes():
    a = TensorFieldOnChart.constant(np.array([[1.0, 2.0], [0.5, -1.0]]), "1,1")
    x = poly_vector(2, [{(1, 0): 1.0}, {(0, 1): 2.0}])
    y = poly_vector(2, [{(0, 1): 1.0}, {(1, 0): -1.0}])
    value = nijenhuis(a, x, y, [0.2, 0.3])
    assert np.linalg.norm(value) <= 1e-12


def test_defect_of_constant_complex_structure_vanishes():
    a = TensorFieldOnChart.constant(complex_canonical(2).matrix, "1,1")
    x = VectorField.coordinate(2, 0)
    y = VectorField.coordinate(2, 1)
    assert np.linalg.norm(nijenhuis(a, x, y, [0.1, -0.1])) <= 1e-12


def rotation_by_x_field(step=1e-5):
    def fn(x):
        c, s = np.cos(x[0]), np.sin(x[0])
        return np.array([[c, -s], [s, c]])
    return TensorFieldOnChart(2, "1,1", fn, step=step)


def test_defect_rotation_field_against_symbolic_oracle():
    # hand expansion for A(x) = rotation by x_0 on coordinate fields:
    # N(e1, e2) = (-1 + cos 2x_0, sin 2x_0)
    a = rotation_by_x_field()
    e1 = VectorField.coordinate(2, 0)
    e2 = VectorField.coordinate(2, 1)
    for x0 in (0.0, 0.5, -0.8):
        got = nijenhuis(a, e1, e2, [x0, 0.3])
        expected = np.array([-1.0 + np.cos(2 * x0), np.sin(2 * x0)])
        np.testing.assert_allclose(got, expected, atol=1e-8)


def test_defect_is_tensorial_under_function_scaling():
    a = rotation_by_x_field()
    e1 = VectorField.coordinate(2, 0)
    e2 = VectorField.coordinate(2, 1)
    p = np.array([0.4, -0.2])
    base = nijenhuis(a, e1, e2, p)
    f = Poly(2, {(0, 0): 0.7, (1, 0): 1.3, (0, 1): -0.5})
    scaled_field = VectorField.from_polys([f, Poly(2)])
    scaled = nijenhuis(a, scaled_field, e2, p)
    np.testing.assert_allclose(scaled, f(p) * base, atol=1e-6)


def test_defect_depends_only_on_pointwise_values():
    # two representations of the same jet at p: adding a perturbation that
    # vanishes to second order at p leaves the value unchanged within FD tol
    a = rotation_by_x_field()
    p = np.array([0.25, 0.1])
    e1 = VectorField.coordinate(2, 0)
    e2 = VectorField.coordinate(2, 1)
    base = nijenhuis(a, e1, e2, p)
    # 1 plus the bump (x_0 - p_0)^2
    bumped = Poly(2, {(0, 0): 1.0 + p[0] ** 2, (2, 0): 1.0, (1, 0): -2 * p[0]})
    modified = VectorField.from_polys([bumped, Poly(2)])
    other = nijenhuis(a, modified, e2, p)
    np.testing.assert_allclose(other, base, atol=1e-6)


def test_defect_vanishes_on_kernel_sections_of_tangent_structure():
    def fn(x):
        return np.array([[0.0, 1.0 + x[0] ** 2], [0.0, 0.0]])
    j = TensorFieldOnChart(2, "1,1", fn)
    kernel_section = poly_vector(2, [{(0, 0): 1.0, (0, 1): 0.8}, {}])
    other = poly_vector(2, [{(1, 0): 0.3}, {(0, 0): 1.0, (1, 1): -0.2}])
    for p in ([0.0, 0.0], [0.3, -0.4]):
        v = nijenhuis(j, kernel_section, other, p)
        assert np.linalg.norm(v) <= 1e-7
        v = nijenhuis(j, other, kernel_section, p)
        assert np.linalg.norm(v) <= 1e-7


# ---------------------------------------------------------------------------
# integrability of structure fields
# ---------------------------------------------------------------------------

def test_constant_tangent_field_integrable():
    field = TensorFieldOnChart.constant(tangent_canonical(2).matrix, "1,1")
    report = is_integrable_structure(field, "tangent", GRID2, tol=Tolerance(atol=1e-6, rtol=0.0))
    assert report.passed
    assert report.notes == ["verdict: integrable"]


def test_pullback_tangent_field_integrable():
    rng = np.random.default_rng(8)
    phi = random_quadratic_diffeo(2, rng)
    field = pullback_endomorphism(phi, tangent_canonical(2).matrix)
    report = is_integrable_structure(field, "tangent", GRID2, tol=Tolerance(atol=1e-6, rtol=0.0))
    assert report.passed, report.worst_residual


def test_complex_field_verdict_is_formal_only():
    field = TensorFieldOnChart.constant(complex_canonical(2).matrix, "1,1")
    report = is_integrable_structure(field, "complex", GRID2, tol=Tolerance(atol=1e-6, rtol=0.0))
    assert report.passed
    assert report.notes == ["verdict: formally integrable"]


def test_non_involutive_para_field_not_integrable():
    # plus-eigenbundle spanned by (e1, e2 + x_0 e3): its bracket leaves the
    # bundle, so the structure cannot be integrable
    def fn(x):
        basis = np.eye(4)
        basis[2, 1] = x[0]
        return basis @ np.diag([1.0, 1.0, -1.0, -1.0]) @ np.linalg.inv(basis)

    field = TensorFieldOnChart(4, "1,1", fn)
    grid = grid_points([-0.5] * 4, [0.5] * 4, 2)
    report = is_integrable_structure(field, "para_complex", grid,
                                     tol=Tolerance(atol=1e-6, rtol=0.0))
    assert not report.passed
    assert report.worst_residual >= 1e-2


def test_integrability_rejects_invalid_structure_field():
    field = TensorFieldOnChart.constant(np.diag([1.0, 2.0]), "1,1")
    report = is_integrable_structure(field, "para_complex", GRID2)
    assert [(e.name, e.passed, e.residual, e.location) for e in report.entries] == [
        ("defect_tensor_para_complex", False, np.inf, np.array2string(GRID2[0], precision=3))]
    assert report.notes == ["verdict: not integrable", "not a para_complex structure"]


CANONICAL = {"complex": complex_canonical, "para_complex": para_complex_canonical,
             "tangent": tangent_canonical}


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(CANONICAL)), pairs=st.integers(1, 2),
       seed=st.integers(0, 2**32 - 1), spread=st.integers(0, 400),
       shift=st.integers(-400, 400), perturb=st.sampled_from([0.0, 1e-9, 1e-7, 1e-6, 1e-5, 1e-3]))
def test_the_grid_check_takes_a_field_for_a_structure_as_square_defect_does(
        kind, pairs, seed, spread, shift, perturb):
    # a canonical structure conjugated by a map whose columns lie 2**-spread
    # to 2**spread apart, its entries perturbed by the relative amount
    # `perturb`; a tangent structure, whose square is 0 at every scale, also
    # scaled by 2**shift.  Entries reach about 2**800, where |A|^2 passes
    # the largest double
    rng = np.random.default_rng(seed)
    n = 2 * pairs
    p = np.linalg.qr(rng.normal(size=(n, n)))[0] * np.exp2(rng.integers(-spread, spread + 1, n))
    with np.errstate(all="ignore"):
        a = np.linalg.solve(p, CANONICAL[kind](n).matrix @ p)
        a *= 1.0 + perturb * rng.uniform(-1.0, 1.0, a.shape)
        if kind == "tangent":
            a *= 2.0 ** shift
        assume(np.isfinite(a).all())
        want = bool(_IDENTITY_TOL.accepts(*square_defect(a, SQUARES[kind])))
        report = is_integrable_structure(TensorFieldOnChart.constant(a, "1,1"), kind,
                                         np.zeros((1, n)))
    assert (f"not a {kind} structure" not in report.notes) == want


# ---------------------------------------------------------------------------
# metric connection
# ---------------------------------------------------------------------------

def test_constant_metric_has_zero_connection():
    conn = levi_civita(TensorFieldOnChart.constant(np.diag([2.0, 3.0]), "2,0"))
    assert np.linalg.norm(conn([0.2, -0.4])) <= 1e-10


def sphere_gamma_oracle(x):
    # conformal factor phi = log 2 - log(1 + r^2); in 2d the nonzero symbols
    # are combinations of its gradient
    r2 = x @ x
    px = -2.0 * x[0] / (1.0 + r2)
    py = -2.0 * x[1] / (1.0 + r2)
    gamma = np.zeros((2, 2, 2))
    gamma[0] = [[px, py], [py, -px]]
    gamma[1] = [[-py, px], [px, py]]
    return gamma


def test_sphere_connection_matches_closed_form():
    conn = levi_civita(sphere_stereographic_metric())
    for x in GRID2[:10]:
        np.testing.assert_allclose(conn(x), sphere_gamma_oracle(x), atol=1e-9)


def test_connection_is_torsion_free_and_metric_compatible():
    rng = np.random.default_rng(21)
    phi = random_quadratic_diffeo(2, rng)
    metric = pullback_metric(phi, np.diag([1.0, 2.0]))
    conn = levi_civita(metric)
    for x in GRID2[:8]:
        gamma = conn(x)
        np.testing.assert_allclose(gamma, np.transpose(gamma, (0, 2, 1)),
                                   atol=1e-10)
        # grad g = 0: d_i g_jk = Gamma^m_ij g_mk + Gamma^m_ik g_jm
        g = metric(x)
        for i in range(2):
            dg = metric.partials(x)[..., i, :, :]
            reconstructed = gamma[:, i, :].T @ g + g @ gamma[:, i, :]
            np.testing.assert_allclose(dg, reconstructed, atol=1e-9)


def test_degenerate_metric_raises_with_location():
    def fn(x):
        return np.diag([1.0, x[0]])
    metric = TensorFieldOnChart(2, "2,0", fn)
    conn = levi_civita(metric)
    with pytest.raises(BadAtPoint) as err:
        conn([0.0, 0.3])
    assert err.value.reason == "metric degenerate"
    np.testing.assert_array_equal(err.value.point, [0.0, 0.3])


# ---------------------------------------------------------------------------
# the nondegeneracy certificate
# ---------------------------------------------------------------------------

def stack_metric(mats):
    """A vectorized metric field that takes the values ``mats`` at the points
    it is asked for (one matrix per point), with zero partials."""
    return TensorFieldOnChart(mats.shape[-1], "2,0", lambda x: mats,
                              gradient=lambda x, i: np.zeros_like(mats), vectorized=True)


def svd_rule_first(mats, tol):
    """Index of the first matrix whose smallest singular value is at most
    ``tol.rank_threshold`` of its largest, or None."""
    sv = np.linalg.svd(mats, compute_uv=False)
    bad = sv[..., -1] <= tol.rank_threshold(sv[..., 0])
    return np.unravel_index(np.argmax(bad), bad.shape) if bad.any() else None


def straddling(rng, dim, tol, scale):
    """U diag(s) V^T with largest singular value ``scale`` and smallest
    ``tol.rank_threshold(scale) * (1 +- 2**-k)``: symmetric (an indefinite
    metric) or not, with U and V random or near a permutation (then g is
    diagonally dominant up to the order of its rows)."""
    k = rng.integers(1, 53)
    s = np.sort(rng.uniform(0.0, scale, dim))[::-1]
    s[0] = scale
    s[-1] = tol.rank_threshold(scale) * (1.0 + rng.choice([-1.0, 1.0]) * 2.0 ** -k)
    spread = rng.choice([1.0, 1e-3])

    def orthogonal():
        q = np.linalg.qr(np.eye(dim) + spread * rng.standard_normal((dim, dim)))[0]
        return q[rng.permutation(dim)]

    u = orthogonal()
    v = u * rng.choice([-1.0, 1.0], dim) if rng.random() < 0.5 else orthogonal()
    return (u * s) @ v.T


def dominant(rng, dim, scale):
    """A diagonally dominant matrix of either signature, not symmetric."""
    diagonal = rng.choice([-1.0, 1.0], dim) * rng.uniform(1.0, 2.0, dim)
    return scale * (np.diag(diagonal) + rng.uniform(-0.5, 0.5, (dim, dim)) / dim)


CERTIFICATE_TOLS = [Tolerance(), Tolerance(1e-6, 0.0), Tolerance(1e-9, 0.0),
                    Tolerance(0.0, 1e-9), Tolerance(0.0, 1e-3)]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 6),
       tol=st.sampled_from(CERTIFICATE_TOLS),
       scale=st.sampled_from([1.0, 1e-3, 1e154, 1e300, 1e307, 5e307]),
       points=st.sampled_from([None, 1, 3]), share=st.sampled_from([0.0, 0.1, 0.5]))
def test_the_certificate_decides_as_the_svd_rule(seed, dim, tol, scale, points, share):
    # a stack of (points, 2 dim + 1) metrics, as curvature asks for, or one
    # metric; straddling matrices sit among dominant ones
    rng = np.random.default_rng(seed)
    batch = () if points is None else (points, 2 * dim + 1)
    mats = np.array([straddling(rng, dim, tol, scale) if rng.random() < share
                     else dominant(rng, dim, scale)
                     for _ in range(int(np.prod(batch)))]).reshape(batch + (dim, dim))
    x = np.arange(mats.size // dim, dtype=float).reshape(batch + (dim,))
    first = svd_rule_first(mats, tol)
    conn = ConnectionData(stack_metric(mats), tol=tol)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if first is None:
            try:
                assert conn(x).shape == batch + (dim,) * 3
            except BadAtPoint as err:
                # accepted by an absolute threshold alone, a metric can be
                # singular to working precision, and then the solve fails
                assert tol.rtol == 0 and err.reason == "metric degenerate"
            return
        with pytest.raises(BadAtPoint) as err:
            conn(x)
    assert err.value.reason == "metric degenerate"
    np.testing.assert_array_equal(err.value.point, x[first])


def test_a_metric_singular_to_working_precision_fails_where_its_solve_does():
    # computed singular values 1.18e152 and 8.07e133: the SVD rule under an
    # absolute threshold passes it, and the solve finds it singular
    g = np.array([[8.052048143345078e+151, 1.318911492237454e+151],
                  [-8.460294668546299e+151, -1.3857815635743862e+151]])
    tol = Tolerance(1e-6, 0.0)
    assert svd_rule_first(g, tol) is None
    with pytest.raises(BadAtPoint) as err:
        ConnectionData(TensorFieldOnChart.constant(g, "2,0"), tol=tol)(np.zeros(2))
    assert err.value.reason == "metric degenerate"
    np.testing.assert_array_equal(err.value.point, np.zeros(2))
    # in a stack, at the first point whose own solve fails
    metric = TensorFieldOnChart(2, "2,0", lambda x: g if x[0] > 0 else np.eye(2))
    points = np.array([[-1.0, 0.0], [1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(BadAtPoint) as err:
        ConnectionData(metric, tol=tol)(points)
    assert err.value.reason == "metric degenerate"
    np.testing.assert_array_equal(err.value.point, points[1])


def counting_svd(monkeypatch):
    """The list that records each call of ``np.linalg.svd`` from now on."""
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a) or svd(*a, **k))
    return calls


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 6),
       dominance=st.sampled_from([0.0, 0.5, 1.0, 3.0, 10.0]),
       share=st.sampled_from([0.0, 0.25]))
def test_every_metric_the_bound_certifies_passes_the_svd_rule(seed, dim, dominance, share):
    # Gaussian matrices with a diagonal of either sign pushed out by
    # `dominance` sit on both sides of the bound's margin.  A share of them
    # is made singular by removing its smallest singular triple, and as many
    # become diagonal, where the bound is exact, with a smallest entry within
    # a factor 8 of the rank threshold: a bound or threshold that certified
    # too much would let a degenerate metric through
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((64, dim, dim))
    g += dominance * np.eye(dim) * rng.choice([-1.0, 1.0], (64, 1, dim))
    u, s, vt = np.linalg.svd(g)
    kind = rng.choice(3, 64, p=[1.0 - 2.0 * share, share, share])
    singular, tight = kind == 1, kind == 2
    g[singular] -= s[singular, -1, None, None] * u[singular, :, -1:] * vt[singular, -1:, :]
    t = s[tight] * 10.0 ** rng.uniform(0.0, 4.0, (tight.sum(), 1))
    t[:, -1] = DEFAULT_TOL.rank_threshold(t[:, 0]) * 2.0 ** rng.uniform(-3.0, 3.0, len(t))
    g[tight] = (t * rng.choice([-1.0, 1.0], t.shape))[..., None] * np.eye(dim)
    x = np.arange(64 * dim, dtype=float).reshape(64, dim)
    first = svd_rule_first(g, DEFAULT_TOL)
    with pytest.MonkeyPatch.context() as patch:
        calls = counting_svd(patch)
        try:
            ConnectionData(stack_metric(g))(x)
        except BadAtPoint as err:
            assert err.reason == "metric degenerate"
            np.testing.assert_array_equal(err.point, x[first])
        else:
            assert first is None
    # the metrics sent to the SVD are the uncertified ones, in order; every
    # other one must be nondegenerate under the SVD rule
    unsure = calls[0][0] if calls else g[:0]
    certified = ~(g[:, None] == unsure[None]).all(axis=(-2, -1)).any(axis=1)
    assert len(unsure) + certified.sum() == 64
    sv = np.linalg.svd(g[certified], compute_uv=False)
    assert (sv[:, -1] > DEFAULT_TOL.rank_threshold(sv[:, 0])).all()


@pytest.mark.parametrize("doc", [
    {"dim": 3, "field": {"name": "pullback_flat", "base_metric": np.diag([1.0, -1.0, 1.0]).tolist(),
                         "diffeo": [[[1, 0, 0, 1.0], [0, 2, 0, 0.1]],
                                    [[0, 1, 0, 1.0], [1, 0, 1, -0.1]],
                                    [[0, 0, 1, 1.0], [2, 0, 0, 0.05]]]},
     "grid": {"counts": 4}},
    {"dim": 2, "field": {"name": "sphere_stereographic"}, "grid": {"counts": 9}},
], ids=["pullback_flat", "sphere_stereographic"])
def test_certified_metric_stacks_take_no_svd(doc, monkeypatch):
    field, grid = documents.parse_field(doc)
    calls = counting_svd(monkeypatch)
    report = is_metric_integrable(field, grid, step=documents.field_step(doc, None))
    assert report.worst_residual < np.inf
    assert calls == []


def test_a_degenerate_metric_still_reaches_the_svd(monkeypatch):
    metric = TensorFieldOnChart(2, "2,0", lambda x: np.diag([1.0, x[0]]))
    conn = levi_civita(metric)
    calls = counting_svd(monkeypatch)
    with pytest.raises(BadAtPoint) as err:
        conn([0.0, 0.3])
    assert err.value.reason == "metric degenerate"
    np.testing.assert_array_equal(err.value.point, [0.0, 0.3])
    assert len(calls) == 1
    # in a stack, only the metric the bound cannot certify meets the SVD
    points = np.array([[0.5, 0.1], [0.0, 0.3], [0.7, 0.2]])
    with pytest.raises(BadAtPoint) as err:
        conn(points)
    np.testing.assert_array_equal(err.value.point, [0.0, 0.3])
    assert calls[-1][0].shape == (1, 2, 2)


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def sectional_curvature(metric, conn, x):
    r = curvature(conn, x)
    g = metric(x)
    num = float(g[0] @ r[:, 1, 0, 1])
    den = g[0, 0] * g[1, 1] - g[0, 1] ** 2
    return num / den


def test_flat_connection_zero_curvature():
    conn = levi_civita(TensorFieldOnChart.constant(np.eye(2), "2,0"))
    assert np.linalg.norm(curvature(conn, [0.1, 0.2])) <= 1e-9


def test_sphere_sectional_curvature_is_one():
    metric = sphere_stereographic_metric()
    conn = levi_civita(metric)
    for x in grid_points([-0.5, -0.5], [0.5, 0.5], 5):
        assert abs(sectional_curvature(metric, conn, x) - 1.0) <= 1e-4


def test_pullback_flat_metric_has_zero_curvature():
    rng = np.random.default_rng(31)
    for _ in range(3):
        phi = random_quadratic_diffeo(2, rng)
        metric = pullback_metric(phi, np.eye(2))
        conn = levi_civita(metric)
        for x in GRID2[::6]:
            assert np.linalg.norm(curvature(conn, x)) <= 1e-5


def test_curvature_antisymmetric_in_last_pair():
    metric = sphere_stereographic_metric()
    conn = levi_civita(metric)
    r = curvature(conn, [0.2, -0.3])
    np.testing.assert_allclose(r, -np.transpose(r, (0, 1, 3, 2)), atol=1e-9)


def test_metric_integrability_verdicts():
    flat = TensorFieldOnChart.constant(np.diag([1.0, -1.0]), "2,0")
    assert is_metric_integrable(flat, GRID2, tol=Tolerance(atol=1e-6, rtol=0.0)).passed

    sphere = sphere_stereographic_metric()
    assert not is_metric_integrable(sphere, GRID2, tol=Tolerance(atol=1e-6, rtol=0.0)).passed

    rng = np.random.default_rng(5)
    phi = random_quadratic_diffeo(2, rng)
    krein_flat = pullback_metric(phi, np.diag([1.0, -1.0]))
    report = is_metric_integrable(krein_flat, GRID2, tol=Tolerance(atol=1e-5, rtol=0.0))
    assert report.passed, report.worst_residual


# ---------------------------------------------------------------------------
# covariant derivative of structures
# ---------------------------------------------------------------------------

def test_constant_triple_flat_connection_parallel():
    conn = levi_civita(TensorFieldOnChart.constant(np.eye(2), "2,0"))
    field = TensorFieldOnChart.constant(complex_canonical(2).matrix, "1,1")
    report = covariant_derivative_of_structure(conn, field, GRID2,
                                               tol=Tolerance(atol=1e-8, rtol=0.0))
    assert report.passed


def test_pullback_kahler_structure_is_parallel():
    rng = np.random.default_rng(17)
    phi = random_quadratic_diffeo(2, rng)
    metric = pullback_metric(phi, np.eye(2))
    structure = pullback_endomorphism(phi, complex_canonical(2).matrix)
    conn = levi_civita(metric)
    report = covariant_derivative_of_structure(conn, structure, GRID2,
                                               tol=Tolerance(atol=1e-5, rtol=0.0))
    assert report.passed, report.worst_residual


def test_incompatible_structure_field_not_parallel():
    metric = sphere_stereographic_metric()
    conn = levi_civita(metric)

    def fn(x):
        a = np.diag([1.0, 1.0 + x[0]])
        return np.linalg.solve(a, complex_canonical(2).matrix @ a)

    field = TensorFieldOnChart(2, "1,1", fn)
    report = covariant_derivative_of_structure(conn, field, GRID2,
                                               tol=Tolerance(atol=1e-5, rtol=0.0))
    assert not report.passed


# ---------------------------------------------------------------------------
# parallel transport path independence at desk scale
# ---------------------------------------------------------------------------

def test_flat_transport_is_path_independent():
    rng = np.random.default_rng(23)
    phi = random_quadratic_diffeo(2, rng)
    metric = pullback_metric(phi, np.eye(2))
    conn = levi_civita(metric)
    # curvature is ~0 by the flatness test above
    start, end = np.array([-0.4, -0.4]), np.array([0.4, 0.4])
    v = np.array([1.0, -0.5])
    via_a = parallel_transport(conn, [start, [0.4, -0.4], end], v)
    via_b = parallel_transport(conn, [start, [-0.4, 0.4], end], v)
    assert np.linalg.norm(via_a - via_b) <= 1e-4


def test_curved_transport_shows_holonomy():
    conn = levi_civita(sphere_stereographic_metric())
    loop = [np.array([0.0, 0.0]), [0.5, 0.0], [0.5, 0.5], [0.0, 0.5],
            np.array([0.0, 0.0])]
    v = np.array([1.0, 0.0])
    out = parallel_transport(conn, loop, v)
    assert np.linalg.norm(out - v) > 1e-2


# ---------------------------------------------------------------------------
# FD vs polynomial agreement, order-2 convergence
# ---------------------------------------------------------------------------

def cubic_metric_polys(rng):
    entries = [[None, None], [None, None]]
    base = np.diag([1.5, 2.0])
    for i in range(2):
        for j in range(2):
            coeffs = {(0, 0): base[i, j]}
            for expo in [(3, 0), (2, 1), (1, 2), (0, 3)]:
                c = 0.1 * rng.uniform(-1, 1)
                coeffs[expo] = coeffs.get(expo, 0.0) + c
            entries[i][j] = Poly(2, coeffs)
    # symmetrize
    sym = {e: (c + entries[1][0].coeffs[e]) * 0.5 for e, c in entries[0][1].coeffs.items()}
    entries[0][1], entries[1][0] = Poly(2, sym), Poly(2, sym)
    return entries


def test_fd_halving_reduces_connection_error_by_four():
    rng = np.random.default_rng(41)
    entries = cubic_metric_polys(rng)
    exact = TensorFieldOnChart.from_polys(entries, "2,0")
    conn_exact = levi_civita(exact)
    x = np.array([0.2, -0.1])
    target = conn_exact(x)

    def error(h):
        fd = TensorFieldOnChart(2, "2,0", exact.fn, step=h)
        return np.linalg.norm(levi_civita(fd)(x) - target)

    e1 = error(1e-2)
    e2 = error(5e-3)
    assert e1 > 0
    assert e1 / e2 >= 3.5


def test_fd_halving_reduces_bracket_error_by_four():
    y_polys = [Poly(2, {(3, 0): 0.7, (1, 1): -0.2}),
               Poly(2, {(0, 3): 0.4, (2, 0): 1.0})]
    x_polys = [Poly(2, {(0, 0): 1.0, (2, 1): 0.3}), Poly(2, {(1, 2): -0.6})]
    exact = lie_bracket(VectorField.from_polys(x_polys),
                        VectorField.from_polys(y_polys))
    p = np.array([0.3, 0.2])
    target = exact(p)

    def error(h):
        xf = VectorField(2, VectorField.from_polys(x_polys).fn, step=h)
        yf = VectorField(2, VectorField.from_polys(y_polys).fn, step=h)
        return np.linalg.norm(lie_bracket(xf, yf)(p) - target)

    assert error(1e-2) / error(5e-3) >= 3.5
    # agreement bound for the two modes: within 10 h^2 for these O(1) data
    for h in (1e-2, 5e-3, 2.5e-3):
        assert error(h) <= 10.0 * h ** 2


# ---------------------------------------------------------------------------
# compiled and grid-at-once paths against their per-point references
# ---------------------------------------------------------------------------

EQUIVALENCE = settings(max_examples=40, deadline=None)


def dict_loop_value(poly, x):
    # the scalar evaluation compiled polynomials replaced: zip tolerates
    # points of another length
    total = 0.0
    for expo, c in poly.coeffs.items():
        term = c
        for xi, e in zip(x, expo):
            if e:
                term *= xi ** e
        total += term
    return total


def random_poly(rng, dim, degree, terms):
    coeffs = {}
    for _ in range(terms):
        expo = [0] * dim
        for _ in range(rng.integers(0, degree + 1)):
            expo[rng.integers(dim)] += 1
        coeffs[tuple(expo)] = rng.uniform(-1.0, 1.0)
    return Poly(dim, coeffs)


@EQUIVALENCE
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4),
       degree=st.integers(0, 4), terms=st.integers(0, 8))
def test_compiled_poly_matches_dict_loop(seed, dim, degree, terms):
    rng = np.random.default_rng(seed)
    poly = random_poly(rng, dim, degree, terms)
    points = rng.uniform(-1.5, 1.5, size=(6, dim))
    scale = 1.0 + sum(abs(c) * 1.5 ** sum(e) for c, e in
                      zip(poly.coeffs.values(), poly.coeffs))
    batch = poly(points)
    assert batch.shape == (6,)
    for x, got in zip(points, batch):
        ref = dict_loop_value(poly, x)
        assert np.ndim(poly(x)) == 0
        assert abs(poly(x) - ref) <= 1e-13 * scale
        assert abs(got - ref) <= 1e-13 * scale
    assert poly.diff(dim - 1) is poly.diff(dim - 1)
    # points longer than the chart: the extra coordinates are ignored
    longer = rng.uniform(-1.5, 1.5, size=dim + 2)
    assert abs(poly(longer) - dict_loop_value(poly, longer)) <= 1e-13 * scale
    # a constant reads no coordinate, so any point length works
    const = Poly.constant(dim, float(rng.uniform(-2, 2)))
    for length in (1, dim, dim + 3):
        x = rng.uniform(-1, 1, size=length)
        assert const(x) == dict_loop_value(const, x)
    field = TensorFieldOnChart.constant(np.arange(dim * dim, dtype=float).reshape(dim, dim), "2,0")
    for length in (1, dim + 1):
        np.testing.assert_array_equal(field.fn(np.zeros(length)),
                                      np.arange(dim * dim).reshape(dim, dim))


def closure_defect(a, x_field, y_field, p):
    # the closure-composition formula the tensorial kernel replaced
    ax, ay = a.apply(x_field), a.apply(y_field)
    av = a(p)
    return (lie_bracket(ax, ay)(p) - av @ lie_bracket(ax, y_field)(p)
            - av @ lie_bracket(x_field, ay)(p)
            + av @ (av @ lie_bracket(x_field, y_field)(p)))


def random_vector_field(rng, dim):
    return VectorField.from_polys([random_poly(rng, dim, 2, 4) for _ in range(dim)])


@EQUIVALENCE
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 4),
       twist=st.sampled_from([0.0, 0.3]))
def test_tensorial_defect_matches_closure_formula(seed, dim, twist):
    # pullbacks of a random constant endomorphism (integrable), optionally
    # twisted by a polynomial matrix so the defect does not vanish
    rng = np.random.default_rng(seed)
    phi = random_quadratic_diffeo(dim, rng)
    pulled = pullback_endomorphism(phi, rng.normal(size=(dim, dim)))
    bend = TensorFieldOnChart.from_polys(
        [[random_poly(rng, dim, 2, 3) for _ in range(dim)] for _ in range(dim)],
        "1,1")
    field = TensorFieldOnChart(dim, "1,1", lambda x: pulled(x) + twist * bend(x))
    x_field, y_field = random_vector_field(rng, dim), random_vector_field(rng, dim)
    p = rng.uniform(-0.5, 0.5, size=dim)
    np.testing.assert_allclose(nijenhuis(field, x_field, y_field, p),
                               closure_defect(field, x_field, y_field, p), rtol=0, atol=1e-9)
    # the polynomial mode differentiates exactly, through the same kernel
    np.testing.assert_allclose(nijenhuis(bend, x_field, y_field, p),
                               closure_defect(bend, x_field, y_field, p), rtol=0,
                               atol=1e-9)


@EQUIVALENCE
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 4),
       mode=st.sampled_from(["polynomial", "fd", "analytic"]))
def test_grid_curvature_equals_stacked_points(seed, dim, mode):
    rng = np.random.default_rng(seed)
    if mode == "analytic":
        dim = 2
        metric = sphere_stereographic_metric()
    else:
        metric = pullback_metric(random_quadratic_diffeo(dim, rng),
                                 np.diag(np.where(rng.random(dim) < 0.5, -1.0, 1.0)))
        if mode == "fd":
            metric = TensorFieldOnChart(dim, "2,0", metric.fn, step=1e-4)
    conn = levi_civita(metric)
    grid = rng.uniform(-0.5, 0.5, size=(5, dim))
    stacked = np.stack([curvature(conn, x) for x in grid])
    np.testing.assert_allclose(curvature(conn, grid), stacked, rtol=0, atol=1e-9)
    np.testing.assert_allclose(conn(grid), np.stack([conn(x) for x in grid]),
                               rtol=1e-13, atol=1e-13)
    report = is_metric_integrable(metric, grid, tol=Tolerance(atol=1e-6, rtol=0.0))
    norms = [np.linalg.norm(r) for r in stacked]
    assert report.worst_residual == pytest.approx(max(norms), rel=1e-6, abs=1e-9)


def test_grid_checks_report_first_failure_and_first_worst_point():
    # degenerate where x_0 = 0.2: the first point's +h e_0 shift is hit first
    h = 1e-5
    metric = TensorFieldOnChart(2, "2,0", lambda x: np.diag([1.0, x[0] - 0.2]))
    grid = np.array([[0.2 - h, 0.1], [0.2, 0.5]])
    with pytest.raises(BadAtPoint) as err:
        curvature(levi_civita(metric), grid, step=h)
    assert err.value.reason == "metric degenerate"
    np.testing.assert_array_equal(err.value.point, grid[0] + [h, 0.0])

    field = TensorFieldOnChart.constant(np.diag([1.0, 2.0]), "1,1")
    partly = TensorFieldOnChart(
        2, "1,1", lambda x: para_complex_canonical(2).matrix if x[0] < 0
        else field(x))
    report = is_integrable_structure(partly, "para_complex",
                                     [[-0.1, 0.0], [0.1, 0.3], [0.2, 0.0]])
    assert (report.worst_residual, report.entries[0].location) == (
        np.inf, np.array2string(np.array([0.1, 0.3]), precision=3))

    # the defect of this para field depends on x_0 alone: the last two tie
    def fn(x):
        basis = np.eye(4)
        basis[2, 1] = x[0] ** 3
        return basis @ np.diag([1.0, 1.0, -1.0, -1.0]) @ np.linalg.inv(basis)

    grid = np.array([[0.1, 0.1, 0.2, 0.3], [0.4, 0.0, 0.2, 0.3], [0.4, -0.3, 0.5, 0.3]])
    report = is_integrable_structure(TensorFieldOnChart(4, "1,1", fn),
                                     "para_complex", grid)
    assert report.entries[0].location == np.array2string(grid[1], precision=3)
    flat = is_metric_integrable(TensorFieldOnChart.constant(np.eye(2), "2,0"), GRID2)
    assert (flat.worst_residual, flat.entries[0].location) == (0.0, "")


def test_singular_jacobian_fails_the_defect_entry_at_the_first_point():
    # phi = (x_0^2 - 0.04 x_0, x_1): singular where x_0 = 0.02
    phi = PolyMap([Poly(2, {(2, 0): 1.0, (1, 0): -0.04}), Poly.coordinate(2, 1)])
    field = pullback_endomorphism(phi, complex_canonical(2).matrix)
    grid = np.array([[0.5, 0.1], [0.02, 0.3], [0.02, -0.2]])
    with pytest.raises(BadAtPoint) as err:
        field(grid)
    assert err.value.reason == "jacobian singular"
    np.testing.assert_array_equal(err.value.point, grid[1])
    report = is_integrable_structure(field, "complex", grid)
    assert (report.passed, report.worst_residual, report.entries[0].location) == (
        False, np.inf, np.array2string(grid[1], precision=3))
    assert report.notes == ["verdict: not formally integrable", "jacobian singular"]
    # singular only at a shifted point the central differences evaluate
    h = 1e-5
    shifted = is_integrable_structure(pullback_endomorphism(phi, complex_canonical(2).matrix,
                                                            step=h),
                                      "complex", [[0.5, 0.1], [0.02 - h, 0.3]])
    assert shifted.entries[0].location == np.array2string(np.array([0.02, 0.3]), precision=3)
    assert shifted.notes[1] == "jacobian singular"


BAD = np.array([0.25, -0.25])  # a point of GRID2


def _bad_at_one_point(kind, value, reason="made-up reason"):
    """``value`` everywhere, except BadAtPoint(x, reason) at the point BAD."""
    def fn(x):
        if np.array_equal(x, BAD):
            raise BadAtPoint(x, reason)
        return value
    return TensorFieldOnChart(2, kind, fn)


# check name -> (report, label, reason); each field or metric raises at BAD
BAD_INPUTS = {
    "nijenhuis": lambda: (is_integrable_structure(
        _bad_at_one_point("1,1", complex_canonical(2).matrix), "complex", GRID2),
        "formally integrable", "made-up reason"),
    "curvature": lambda: (is_metric_integrable(_bad_at_one_point("2,0", np.eye(2)), GRID2),
                          "integrable", "made-up reason"),
    "covariant (field)": lambda: (covariant_derivative_of_structure(
        levi_civita(TensorFieldOnChart.constant(np.eye(2), "2,0")),
        _bad_at_one_point("1,1", complex_canonical(2).matrix), GRID2),
        "parallel", "made-up reason"),
    "covariant (metric)": lambda: (covariant_derivative_of_structure(
        levi_civita(TensorFieldOnChart(
            2, "2,0", lambda x: np.eye(2) if not np.array_equal(x, BAD) else np.diag([1.0, 0.0]))),
        TensorFieldOnChart.constant(complex_canonical(2).matrix, "1,1"), GRID2),
        "parallel", "metric degenerate"),
}


@pytest.mark.parametrize("check", BAD_INPUTS)
def test_grid_checks_turn_a_bad_point_into_their_failing_entry(check):
    report, label, reason = BAD_INPUTS[check]()
    [entry] = report.entries
    assert (entry.passed, entry.residual, entry.location) == (
        False, np.inf, np.array2string(BAD, precision=3))
    assert report.notes == [f"verdict: not {label}", reason]


def _non_involutive_para_field():
    def fn(x):
        basis = np.eye(4)
        basis[2, 1] = x[0]
        return basis @ np.diag([1.0, 1.0, -1.0, -1.0]) @ np.linalg.inv(basis)
    return TensorFieldOnChart(4, "1,1", fn)


def _twisted_complex_field():
    def fn(x):
        a = np.diag([1.0, 1.0 + x[0]])
        return np.linalg.solve(a, complex_canonical(2).matrix @ a)
    return TensorFieldOnChart(2, "1,1", fn)


GRID_CHECKS = {
    "nijenhuis": lambda tol: is_integrable_structure(
        _non_involutive_para_field(), "para_complex", grid_points([-0.5] * 4, [0.5] * 4, 2),
        tol=tol),
    "curvature": lambda tol: is_metric_integrable(sphere_stereographic_metric(), GRID2, tol=tol),
    "covariant": lambda tol: covariant_derivative_of_structure(
        levi_civita(sphere_stereographic_metric()), _twisted_complex_field(), GRID2, tol=tol),
}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(GRID_CHECKS)), exponent=st.floats(-3.0, 3.0),
       where=st.sampled_from(["drawn", "at", "below"]))
def test_grid_checks_pass_exactly_when_the_worst_residual_is_within_atol(name, exponent,
                                                                         where):
    check = GRID_CHECKS[name]
    worst = check(GRID_TOL).worst_residual
    assert worst > 0.0
    t = {"drawn": worst * 2.0 ** exponent, "at": worst,
         "below": np.nextafter(worst, 0.0)}[where]
    report = check(Tolerance(atol=t, rtol=0.0))
    assert report.worst_residual == worst
    assert report.passed == (report.worst_residual <= t)


@pytest.mark.parametrize("step", [0.0, -1e-5, float("nan")])
def test_curvature_rejects_a_non_positive_step(step):
    # an explicit step is used as given, never replaced by the default
    conn = levi_civita(sphere_stereographic_metric())
    with pytest.raises(ValueError, match="step must be positive"):
        curvature(conn, np.zeros(2), step=step)
    with pytest.raises(ValueError, match="step must be positive"):
        is_metric_integrable(sphere_stereographic_metric(), np.zeros((1, 2)), step=step)
