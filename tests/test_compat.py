import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tensorstruct.compat import (
    CompatibleTriple,
    check_triple,
    complete_triple,
    g_from,
    is_compatible,
    lagrangian_orthogonal_decomposition,
    omega_from,
    structure_from,
)
from tensorstruct.errors import InvalidInput
from tensorstruct.linalg import DEFAULT_TOL, Tolerance
from tensorstruct.structures import (
    BilinearForm,
    ComplexStructure,
    KreinMetric,
    SymplecticForm,
    complex_canonical,
    krein_from_matrix,
    para_complex_canonical,
    para_from_complex,
    symplectic_canonical,
)

CAN2 = symplectic_canonical(2)
I_CAN2 = complex_canonical(2)
J_CAN2 = para_complex_canonical(2)


def random_spd(n, rng):
    m = rng.normal(size=(n, n))
    return m @ m.T + 0.5 * np.eye(n)


def random_skew_nondegenerate(n, rng):
    while True:
        k = rng.normal(size=(n, n))
        s = k - k.T
        if abs(np.linalg.det(s)) > 1e-6:
            return s


# ---------------------------------------------------------------------------
# omega_from
# ---------------------------------------------------------------------------

def test_omega_from_canonical_hand_value():
    omega = omega_from(BilinearForm(np.eye(2), "symmetric"), I_CAN2)
    # Omega(e1, e2) = g(I e1, e2) = g(e2, e2) = 1
    assert omega(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)
    np.testing.assert_allclose(omega.matrix, CAN2.matrix, atol=1e-14)


def test_omega_from_negated_structure_negates_form():
    minus = ComplexStructure(-I_CAN2.matrix)
    omega = omega_from(BilinearForm(np.eye(2), "symmetric"), I_CAN2)
    omega_minus = omega_from(BilinearForm(np.eye(2), "symmetric"), minus)
    np.testing.assert_allclose(omega_minus.matrix, -omega.matrix, atol=1e-14)


def test_omega_from_neutral_para_hand_value():
    g = krein_from_matrix(np.diag([1.0, -1.0]))
    omega = omega_from(g, J_CAN2)
    # Omega(e1, e2) = g(J e1, e2) = g(e2, e2) = -1
    assert omega(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(-1.0)


# ---------------------------------------------------------------------------
# g_from
# ---------------------------------------------------------------------------

def test_g_from_canonical_kahler():
    g = g_from(CAN2, I_CAN2)
    np.testing.assert_allclose(g.matrix, np.eye(2), atol=1e-14)


def test_g_from_canonical_para():
    g = g_from(CAN2, J_CAN2, "para_kahler")
    np.testing.assert_allclose(g.matrix, np.diag([1.0, -1.0]), atol=1e-14)
    assert g.signature == (1, 1)


def test_g_from_scales_with_form():
    scaled = SymplecticForm(3.0 * CAN2.matrix)
    g = g_from(scaled, I_CAN2)
    np.testing.assert_allclose(g.matrix, 3.0 * np.eye(2), atol=1e-14)


def test_g_from_rejects_wrong_signature():
    with pytest.raises(InvalidInput, match="metric fails kahler signature test"):
        g_from(CAN2, ComplexStructure(-I_CAN2.matrix))


# ---------------------------------------------------------------------------
# structure_from (polar construction)
# ---------------------------------------------------------------------------

def test_structure_from_canonical_pair():
    structure, corrected, op = structure_from(np.eye(2), CAN2)
    np.testing.assert_allclose(structure.matrix, I_CAN2.matrix, atol=1e-12)
    np.testing.assert_allclose(corrected.matrix, np.eye(2), atol=1e-12)
    assert op.residual() <= 1e-12


def test_structure_from_scaled_form():
    # S = [[0,2],[-2,0]] with g = Id: A = 2 I_can, R = 2 Id, corrected = 2 Id
    s = SymplecticForm(np.array([[0.0, 2.0], [-2.0, 0.0]]))
    structure, corrected, op = structure_from(np.eye(2), s)
    np.testing.assert_allclose(structure.matrix, I_CAN2.matrix, atol=1e-12)
    np.testing.assert_allclose(corrected.matrix, 2.0 * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(op.matrix, 2.0 * I_CAN2.matrix, atol=1e-12)


def test_structure_from_para_direct_route():
    structure, corrected, _ = structure_from(np.diag([1.0, -1.0]), CAN2,
                                             flavor="para_kahler")
    j = structure.matrix
    np.testing.assert_allclose(j @ j, np.eye(2), atol=1e-12)
    assert corrected.signature == (1, 1)


def test_structure_from_para_rejects_non_involutive():
    g = np.diag([1.0, 1.0, -1.0, -1.0])
    s = random_skew_nondegenerate(4, np.random.default_rng(2))
    j = np.linalg.solve(g, s.T)
    if np.linalg.norm(j @ j - np.eye(4)) > 1e-2:
        with pytest.raises(InvalidInput, match=r"J\^2 - Id residual"):
            structure_from(g, SymplecticForm(s), flavor="para_kahler")


@pytest.mark.parametrize("flavor, reason", [
    ("kahler", "metric is not positive definite"),
    ("para_kahler", "metric is not neutral: degenerate metric"),
])
def test_structure_from_rejects_a_zero_metric(flavor, reason):
    # the metric is judged before G^-1 S^T is solved
    with pytest.raises(InvalidInput, match=reason):
        structure_from(np.zeros((2, 2)), CAN2, flavor=flavor)


@st.composite
def exactly_singular_metrics(draw):
    """A symmetric g with a zero row and column, or with two equal rows,
    scaled by 2**k."""
    n = draw(st.sampled_from([2, 4]))
    entries = st.floats(-4.0, 4.0, allow_subnormal=False)
    if draw(st.booleans()):
        m = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
        g = m + m.T
        k = draw(st.integers(0, n - 1))
        g[k, :] = g[:, k] = 0.0
    else:
        m = np.array(draw(st.lists(entries, min_size=(n - 1) ** 2,
                                   max_size=(n - 1) ** 2))).reshape(n - 1, n - 1)
        rows = np.eye(n - 1)[[*range(n - 1), draw(st.integers(0, n - 2))]]
        g = rows @ (m + m.T) @ rows.T
    return np.ldexp(g, draw(st.integers(-600, 600)))


@settings(max_examples=300, deadline=None)
@given(g=exactly_singular_metrics(), flavor=st.sampled_from(["kahler", "para_kahler"]),
       tol=st.sampled_from([DEFAULT_TOL, Tolerance(0.0, 1e-9), Tolerance(1e-9, 0.0)]))
def test_structure_from_on_a_singular_metric_raises_only_invalid_input(g, flavor, tol):
    with np.errstate(all="ignore"):
        try:
            structure_from(g, symplectic_canonical(g.shape[0]), flavor=flavor, tol=tol)
        except InvalidInput:
            pass


def test_polar_construction_properties_randomized():
    # soundness of the polar construction, 100 draws (acceptance runs 500)
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = 2 * int(rng.integers(1, 7))
        g = random_spd(n, rng)
        s = random_skew_nondegenerate(n, rng)
        structure, corrected, op = structure_from(g, SymplecticForm(s))
        i = structure.matrix
        scale = max(np.linalg.norm(i) ** 2, 1.0)
        assert np.linalg.norm(i @ i + np.eye(n)) <= 1e-8 * scale
        # corrected metric SPD
        assert np.linalg.eigvalsh(corrected.matrix).min() > 0
        # form invariance on a full basis
        assert np.linalg.norm(i.T @ s @ i - s) <= 1e-8 * max(np.linalg.norm(s), 1.0)
        # corrected metric equals Omega(., I.)
        assert np.linalg.norm(s @ i - corrected.matrix) <= 1e-8 * max(
            np.linalg.norm(corrected.matrix), 1.0)


def test_polar_structure_commutes_with_root():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = 2 * int(rng.integers(1, 5))
        g = random_spd(n, rng)
        s = random_skew_nondegenerate(n, rng)
        structure, corrected, op = structure_from(g, SymplecticForm(s))
        # R = A I^-1 recovered from the returned pieces: corrected = G R
        r = np.linalg.solve(g, corrected.matrix)
        i = structure.matrix
        assert np.linalg.norm(i @ r - r @ i) <= 1e-8 * max(np.linalg.norm(r), 1.0)
        assert np.linalg.norm(r @ r - op.matrix @ (-op.matrix)) <= 1e-7 * max(
            np.linalg.norm(r) ** 2, 1.0)


# ---------------------------------------------------------------------------
# is_compatible
# ---------------------------------------------------------------------------

def test_is_compatible_canonical_pair():
    assert is_compatible(CAN2, I_CAN2).passed


def test_is_compatible_para_with_diagonal_involution():
    j = para_from_complex(I_CAN2)[0]
    rep = is_compatible(CAN2, j, flavor="para_kahler")
    assert rep.passed


def test_is_compatible_detects_negative_orientation():
    rep = is_compatible(CAN2, ComplexStructure(-I_CAN2.matrix))
    assert not rep.passed
    assert any(e.name == "induced_metric_signature" for e in rep.failures())


# ---------------------------------------------------------------------------
# complete_triple
# ---------------------------------------------------------------------------

def test_complete_triple_from_metric_and_structure():
    triple = complete_triple(BilinearForm(np.eye(2), "symmetric"), I_CAN2)
    np.testing.assert_allclose(triple.omega.matrix, CAN2.matrix, atol=1e-12)
    assert check_triple(triple).passed


def test_complete_triple_from_form_and_metric():
    rng = np.random.default_rng(3)
    p = rng.normal(size=(4, 4))
    s = p.T @ symplectic_canonical(4).matrix @ p
    triple = complete_triple(BilinearForm(np.eye(4), "symmetric"),
                             SymplecticForm(s))
    rep = check_triple(triple)
    assert rep.passed
    assert rep.worst_residual <= 1e-8 * max(np.linalg.norm(s), 1.0)


def test_complete_triple_para_canonical():
    triple = complete_triple(CAN2, J_CAN2, flavor="para_kahler")
    assert isinstance(triple.metric, KreinMetric)
    assert triple.metric.signature == (1, 1)
    np.testing.assert_allclose(triple.metric.matrix, np.diag([1.0, -1.0]),
                               atol=1e-12)


def test_complete_triple_round_trip_metric():
    # completing (g, I) and re-deriving g from (omega, I) reproduces g
    # entrywise, 500 random compatible pairs
    rng = np.random.default_rng(5)
    for _ in range(500):
        n = 2 * int(rng.integers(1, 5))
        can = complex_canonical(n).matrix
        p = rng.normal(size=(n, n))
        while abs(np.linalg.det(p)) < 1e-3:
            p = rng.normal(size=(n, n))
        pinv = np.linalg.inv(p)
        i = pinv @ can @ p
        # g compatible with i: pull back the identity through p
        g = p.T @ p
        structure = ComplexStructure(i)
        triple = complete_triple(BilinearForm(g, "symmetric"), structure)
        back = g_from(triple.omega, structure)
        assert np.max(np.abs(back.matrix - g)) <= 1e-9 * max(np.linalg.norm(g), 1.0)


# ---------------------------------------------------------------------------
# Lagrangian orthogonal decomposition
# ---------------------------------------------------------------------------

def test_decomposition_canonical_kahler_dim4():
    triple = complete_triple(BilinearForm(np.eye(4), "symmetric"),
                             complex_canonical(4))
    e1, e2 = lagrangian_orthogonal_decomposition(triple)
    s = triple.omega.matrix
    g = triple.metric_matrix
    assert np.linalg.norm(e1.T @ s @ e1) <= 1e-9
    assert np.linalg.norm(e2.T @ s @ e2) <= 1e-9
    assert np.linalg.norm(e1.T @ g @ e2) <= 1e-9
    assert e1.shape[1] == e2.shape[1] == 2


def test_decomposition_para_from_canonical():
    triple = complete_triple(CAN2, J_CAN2, flavor="para_kahler")
    e1, e2 = lagrangian_orthogonal_decomposition(triple)
    g = triple.metric_matrix
    s = triple.omega.matrix
    gram1 = e1.T @ g @ e1
    gram2 = e2.T @ g @ e2
    assert np.linalg.eigvalsh(gram1).min() > 0
    assert np.linalg.eigvalsh(gram2).max() < 0
    assert np.linalg.norm(e1.T @ s @ e1) <= 1e-9
    assert np.linalg.norm(e2.T @ s @ e2) <= 1e-9
    # canonical case recovers the coordinate splitting
    np.testing.assert_allclose(np.abs(e1 / np.linalg.norm(e1)),
                               [[1.0], [0.0]], atol=1e-9)


def test_decomposition_para_conjugated_dim6():
    # neutral metric with paired magnitudes conjugated by a random rotation;
    # the matching swap involution gives a genuine para triple in dim 6
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    g = q @ np.diag([1.3, -1.3, 0.8, -0.8, 1.1, -1.1]) @ q.T
    swap = np.zeros((6, 6))
    for k in range(3):
        swap[2 * k, 2 * k + 1] = swap[2 * k + 1, 2 * k] = 1.0
    s = (g @ (q @ swap @ q.T)).T
    triple = complete_triple(krein_from_matrix(g), SymplecticForm(s),
                             flavor="para_kahler")
    e1, e2 = lagrangian_orthogonal_decomposition(triple)
    gm = triple.metric_matrix
    assert np.linalg.eigvalsh(e1.T @ gm @ e1).min() > 0
    assert np.linalg.eigvalsh(e2.T @ gm @ e2).max() < 0
    assert np.linalg.norm(e1.T @ s @ e1) <= 1e-9 * np.linalg.norm(s)
    assert np.linalg.norm(e2.T @ s @ e2) <= 1e-9 * np.linalg.norm(s)
    np.testing.assert_allclose(triple.structure.matrix @ e1, e2, atol=1e-9)


def test_structure_from_para_mismatched_pairing_rejected():
    # unpaired eigenvalue magnitudes leave no compatible involution, and the
    # direct route must reject rather than repair
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    g = q @ np.diag([1.3, -0.8, 1.1, -0.9]) @ q.T
    swap = np.zeros((4, 4))
    swap[0, 1] = swap[1, 0] = swap[2, 3] = swap[3, 2] = 1.0
    s_raw = (g @ (q @ swap @ q.T)).T
    s = 0.5 * (s_raw - s_raw.T)  # skew-symmetrize the broken construction
    with pytest.raises(InvalidInput, match=r"J\^2 - Id residual"):
        structure_from(g, SymplecticForm(s), flavor="para_kahler")


def test_decomposition_random_conjugated_triple():
    rng = np.random.default_rng(7)
    n = 6
    for _ in range(10):
        g = random_spd(n, rng)
        s = random_skew_nondegenerate(n, rng)
        structure, corrected, _ = structure_from(g, SymplecticForm(s))
        triple = CompatibleTriple(SymplecticForm(s), corrected, structure, "kahler")
        e1, e2 = lagrangian_orthogonal_decomposition(triple)
        gm = corrected.matrix
        assert np.linalg.norm(e1.T @ s @ e1) <= 1e-8 * np.linalg.norm(s)
        assert np.linalg.norm(e2.T @ s @ e2) <= 1e-8 * np.linalg.norm(s)
        assert np.linalg.norm(e1.T @ gm @ e2) <= 1e-8 * np.linalg.norm(gm)
        assert e1.shape[1] == e2.shape[1] == 3
        # spans: the union must be a basis
        assert np.linalg.matrix_rank(np.hstack([e1, e2])) == n


# ---------------------------------------------------------------------------
# flavor duality
# ---------------------------------------------------------------------------

def test_flavor_duality_transport():
    # (Omega, I) compatible iff (Omega, S I) para-compatible, transported
    # over 200 random Kahler triples
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = 4
        g = random_spd(n, rng)
        s = random_skew_nondegenerate(n, rng)
        structure, corrected, _ = structure_from(g, SymplecticForm(s))
        assert is_compatible(SymplecticForm(s), structure, "kahler").passed
        para, symmetry = para_from_complex(structure)
        rep = is_compatible(SymplecticForm(s), para, "para_kahler")
        assert rep.passed, [e.name for e in rep.failures()]
        # and the reverse direction: para-compatibility implies the complex
        # structure S J is Kahler-compatible with the same form
        back = ComplexStructure(symmetry @ para.matrix)
        assert is_compatible(SymplecticForm(s), back, "kahler").passed
