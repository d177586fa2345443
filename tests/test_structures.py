import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tensorstruct.documents import parse_structure
from tensorstruct.errors import Degenerate, MissingDecomposition
from tensorstruct.linalg import Tolerance
from tensorstruct.structures import (
    BilinearForm,
    ComplexStructure,
    CotangentStructure,
    KreinMetric,
    ParaComplexStructure,
    SymplecticForm,
    TangentStructure,
    complex_canonical,
    complex_normal_form,
    darboux_basis,
    fundamental_symmetry,
    krein_from_matrix,
    krein_isomorphism,
    para_complex_canonical,
    para_from_complex,
    symplectic_canonical,
    tangent_canonical,
    tangent_normal_form,
    validate,
)

RNG = np.random.default_rng(20240812)


def random_invertible(n, rng=RNG):
    while True:
        p = rng.normal(size=(n, n))
        if abs(np.linalg.det(p)) > 1e-3:
            return p


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_canonical_complex():
    rep = validate(complex_canonical(2))
    assert rep.passed
    assert all(e.residual == 0.0 for e in rep.entries if "squares" in e.name)


def test_validate_canonical_para_complex():
    assert validate(para_complex_canonical(2)).passed


def test_validate_hand_tangent_structure():
    # J = [[0,1],[0,0]]: J^2 = 0 and im J = ker J = span(e1)
    j = TangentStructure(np.array([[0.0, 1.0], [0.0, 0.0]]),
                         kernel_basis=np.array([[1.0], [0.0]]),
                         complement_basis=np.array([[0.0], [1.0]]))
    assert validate(j).passed


def test_validate_reports_failures_instead_of_raising():
    bad = ComplexStructure(np.eye(2))  # squares to +Id
    rep = validate(bad)
    assert not rep.passed
    failed = {e.name for e in rep.failures()}
    assert "squares_to_minus_id" in failed


def test_validate_odd_dimension_symplectic_is_failure_not_fault():
    rep = validate(SymplecticForm(np.zeros((3, 3))))
    assert not rep.passed


def test_validate_krein_minkowski():
    g = KreinMetric(np.diag([1.0, -1.0]),
                    plus_basis=np.array([[1.0], [0.0]]),
                    minus_basis=np.array([[0.0], [1.0]]))
    rep = validate(g)
    assert rep.passed


def test_validate_cotangent_canonical():
    omega = symplectic_canonical(4)
    eye = np.eye(4)
    c = CotangentStructure(omega, eye[:, :2], eye[:, 2:])
    assert validate(c).passed


def test_validate_para_trace_and_eigenspaces():
    rep = validate(para_complex_canonical(6))
    assert rep.passed
    # conjugated structure keeps trace zero and balanced eigenspaces
    p = random_invertible(6)
    m = p @ para_complex_canonical(6).matrix @ np.linalg.inv(p)
    assert abs(np.trace(m)) < 1e-8


# ---------------------------------------------------------------------------
# fundamental symmetry
# ---------------------------------------------------------------------------

def test_fundamental_symmetry_minkowski():
    g = KreinMetric(np.diag([1.0, -1.0]), np.array([[1.0], [0.0]]),
                    np.array([[0.0], [1.0]]))
    j, gamma = fundamental_symmetry(g)
    np.testing.assert_allclose(j, np.diag([1.0, -1.0]), atol=1e-14)
    np.testing.assert_allclose(gamma.matrix, np.eye(2), atol=1e-14)


def test_fundamental_symmetry_definite_case():
    g = krein_from_matrix(np.diag([2.0, 3.0]))
    j, gamma = fundamental_symmetry(g)
    np.testing.assert_allclose(j, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(gamma.matrix, np.diag([2.0, 3.0]), atol=1e-12)


def test_fundamental_symmetry_identities_randomized():
    # oracle: evaluate both defining identities on random vector pairs
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        p = random_invertible(n, rng)
        signs = np.sign(rng.normal(size=n))
        if np.all(signs > 0) or np.all(signs < 0):
            signs[0] = -signs[0]
        d = np.abs(rng.normal(size=n)) + 0.3
        gm = p.T @ np.diag(signs * d) @ p
        g = krein_from_matrix(gm)
        j, gamma = fundamental_symmetry(g)
        np.testing.assert_allclose(j @ j, np.eye(n), atol=1e-9)
        for _ in range(20):
            u = rng.normal(size=n)
            v = rng.normal(size=n)
            g_uv = u @ gm @ v
            assert abs(g_uv - u @ gamma.matrix @ (j @ v)) < 1e-8 * max(1.0, abs(g_uv))
            gam_uv = u @ gamma.matrix @ v
            assert abs(gam_uv - u @ gm @ (j @ v)) < 1e-8 * max(1.0, abs(gam_uv))
            # symmetry of J inside gamma
            assert abs(u @ gamma.matrix @ (j @ v) - (j @ u) @ gamma.matrix @ v) < 1e-8


# ---------------------------------------------------------------------------
# Krein isomorphism
# ---------------------------------------------------------------------------

def test_krein_isomorphism_identity():
    g = krein_from_matrix(np.eye(3))
    phi, verdict = krein_isomorphism(g, g)
    assert verdict is None
    np.testing.assert_allclose(phi.T @ np.eye(3) @ phi, np.eye(3), atol=1e-12)


def test_krein_isomorphism_hand_scaling():
    # diag(2,-3) vs diag(1,-1): phi = diag(sqrt 2, sqrt 3) works, and any
    # returned phi must satisfy the defining congruence
    g1 = krein_from_matrix(np.diag([2.0, -3.0]))
    g2 = krein_from_matrix(np.diag([1.0, -1.0]))
    scale = np.diag([np.sqrt(2.0), np.sqrt(3.0)])
    np.testing.assert_allclose(scale.T @ g2.matrix @ scale, g1.matrix, atol=1e-12)
    phi, verdict = krein_isomorphism(g1, g2)
    assert verdict is None
    np.testing.assert_allclose(phi.T @ g2.matrix @ phi, g1.matrix, atol=1e-10)


def test_krein_isomorphism_signature_obstruction():
    g1 = krein_from_matrix(np.diag([1.0, 1.0, -1.0]))
    g2 = krein_from_matrix(np.diag([1.0, -1.0, -1.0]))
    phi, verdict = krein_isomorphism(g1, g2)
    assert phi is None
    assert verdict == "incompatible_signature"


def test_krein_from_matrix_rejects_degenerate():
    with pytest.raises(Degenerate):
        krein_from_matrix(np.diag([1.0, 0.0]))


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------

def test_tangent_normal_form_canonical_fixed_point():
    j = tangent_canonical(2)
    a = tangent_normal_form(j)
    back = np.linalg.solve(a, tangent_canonical(2).matrix @ a)
    np.testing.assert_allclose(back, j.matrix, atol=1e-12)


def test_tangent_normal_form_hand_case():
    j = TangentStructure(np.array([[0.0, 2.0], [0.0, 0.0]]),
                         np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))
    a = tangent_normal_form(j)
    back = np.linalg.solve(a, tangent_canonical(2).matrix @ a)
    np.testing.assert_allclose(back, j.matrix, atol=1e-12)


def test_tangent_normal_form_random_conjugates():
    # oracle: conjugating the canonical structure must be undone exactly
    rng = np.random.default_rng(17)
    for _ in range(50):
        k = int(rng.integers(1, 5))
        n = 2 * k
        p = random_invertible(n, rng)
        m = np.linalg.solve(p, tangent_canonical(n).matrix @ p)
        from tensorstruct.linalg import kernel_and_image
        kernel, _, _ = kernel_and_image(m, Tolerance(1e-9, 1e-9))
        complement, _, _ = kernel_and_image(kernel.T, Tolerance(1e-9, 1e-9))
        j = TangentStructure(m, kernel, complement)
        a = tangent_normal_form(j)
        back = np.linalg.solve(a, tangent_canonical(n).matrix @ a)
        assert np.linalg.norm(back - m) <= 1e-8 * max(1.0, np.linalg.norm(m))


def test_complex_normal_form_canonical():
    c = complex_canonical(2)
    a = complex_normal_form(c)
    back = np.linalg.solve(a, complex_canonical(2).matrix @ a)
    np.testing.assert_allclose(back, c.matrix, atol=1e-12)


def test_complex_normal_form_hand_case():
    # [[0,-2],[1/2,0]] with iso = 2 on the coordinate decomposition
    c = ComplexStructure(np.array([[0.0, -2.0], [0.5, 0.0]]),
                         (np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]),
                          np.array([[2.0]])))
    assert validate(c).passed
    a = complex_normal_form(c)
    np.testing.assert_allclose(a, np.diag([1.0, 2.0]), atol=1e-12)
    back = np.linalg.solve(a, complex_canonical(2).matrix @ a)
    np.testing.assert_allclose(back, c.matrix, atol=1e-12)


def test_complex_normal_form_random_conjugates():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = 6
        p = random_invertible(n, rng)
        pinv = np.linalg.inv(p)
        m = pinv @ complex_canonical(n).matrix @ p
        b1 = pinv @ np.eye(n)[:, :3]
        b2 = pinv @ np.eye(n)[:, 3:]
        c = ComplexStructure(m, (b1, b2, np.eye(3)))
        a = complex_normal_form(c)
        back = np.linalg.solve(a, complex_canonical(n).matrix @ a)
        assert np.linalg.norm(back - m) <= 1e-8 * max(1.0, np.linalg.norm(m))


def test_complex_normal_form_requires_decomposition():
    with pytest.raises(MissingDecomposition):
        complex_normal_form(ComplexStructure(complex_canonical(2).matrix))


# ---------------------------------------------------------------------------
# para / complex interplay
# ---------------------------------------------------------------------------

def test_para_from_complex_canonical():
    j, symmetry = para_from_complex(complex_canonical(2))
    np.testing.assert_allclose(j.matrix, np.array([[0.0, 1.0], [1.0, 0.0]]),
                               atol=1e-14)
    np.testing.assert_allclose(symmetry, np.diag([-1.0, 1.0]), atol=1e-14)


def test_para_from_complex_round_trip():
    c = complex_canonical(4)
    j, symmetry = para_from_complex(c)
    np.testing.assert_allclose(symmetry @ symmetry, np.eye(4), atol=1e-14)
    np.testing.assert_allclose(symmetry @ j.matrix, c.matrix, atol=1e-14)


def test_para_from_complex_random_decomposable():
    rng = np.random.default_rng(31)
    n = 8
    p = random_invertible(n, rng)
    pinv = np.linalg.inv(p)
    m = pinv @ complex_canonical(n).matrix @ p
    c = ComplexStructure(m, (pinv @ np.eye(n)[:, :4], pinv @ np.eye(n)[:, 4:],
                             np.eye(4)))
    j, _ = para_from_complex(c)
    assert np.linalg.norm(j.matrix @ j.matrix - np.eye(n)) <= 1e-9 * np.linalg.norm(j.matrix) ** 2
    assert validate(j).passed


def test_para_from_complex_requires_decomposition():
    with pytest.raises(MissingDecomposition):
        para_from_complex(ComplexStructure(complex_canonical(2).matrix))


# ---------------------------------------------------------------------------
# Darboux basis
# ---------------------------------------------------------------------------

def test_darboux_identity_case():
    a, cert = darboux_basis(SymplecticForm(np.array([[0.0, 1.0], [-1.0, 0.0]])))
    np.testing.assert_allclose(a, np.eye(2), atol=1e-14)
    assert cert <= 1e-14


def test_darboux_hand_scaling():
    a, cert = darboux_basis(SymplecticForm(np.array([[0.0, 3.0], [-3.0, 0.0]])))
    np.testing.assert_allclose(a, np.diag([1.0, 1.0 / 3.0]), atol=1e-14)
    assert cert <= 1e-14


def test_darboux_random_nondegenerate():
    # oracle: congruence by any invertible matrix keeps the canonical orbit
    rng = np.random.default_rng(41)
    can = symplectic_canonical(6).matrix
    for _ in range(50):
        p = random_invertible(6, rng)
        s = p.T @ can @ p
        a, cert = darboux_basis(SymplecticForm(s))
        assert cert <= 1e-8
        transformed = a.T @ s @ a
        np.testing.assert_allclose(transformed, can, atol=1e-8)
        # skewness of the transformed matrix survives to round-off
        skew_resid = np.linalg.norm(transformed + transformed.T)
        assert skew_resid <= 1e-10 * max(1.0, np.linalg.norm(s))


def test_darboux_rejects_degenerate():
    with pytest.raises(Degenerate):
        darboux_basis(SymplecticForm(np.zeros((2, 2))))
    with pytest.raises(Degenerate):
        s = np.zeros((4, 4))
        s[0, 1], s[1, 0] = 1.0, -1.0  # rank 2 only
        darboux_basis(SymplecticForm(s))


def test_normal_form_conjugation_soundness_batch():
    # conjugation soundness over 200 random conjugates per structure kind
    rng = np.random.default_rng(47)
    can_c = complex_canonical(4).matrix
    can_t = tangent_canonical(4).matrix
    for _ in range(200):
        p = random_invertible(4, rng)
        pinv = np.linalg.inv(p)

        m = pinv @ can_c @ p
        c = ComplexStructure(m, (pinv @ np.eye(4)[:, :2], pinv @ np.eye(4)[:, 2:],
                                 np.eye(2)))
        a = complex_normal_form(c)
        assert np.linalg.norm(np.linalg.solve(a, can_c @ a) - m) <= 1e-7 * max(
            1.0, np.linalg.norm(m))

        m = pinv @ can_t @ p
        from tensorstruct.linalg import kernel_and_image
        kernel, _, _ = kernel_and_image(m)
        complement, _, _ = kernel_and_image(kernel.T)
        a = tangent_normal_form(TangentStructure(m, kernel, complement))
        assert np.linalg.norm(np.linalg.solve(a, can_t @ a) - m) <= 1e-7 * max(
            1.0, np.linalg.norm(m))


# whole numbers make dependent bases and zero eigenvalues common; 1e-10 lies
# within the default atol, and 1e200 overflows the restricted forms
_ENTRIES = st.sampled_from([0.0, 1.0, -1.0, 2.0, -0.5, 1e-10, -1e-10, 1e200])


@st.composite
def decomposed_documents(draw):
    """Krein and para-complex documents with random bases, often dependent,
    too few or too many."""
    kind, n = draw(st.sampled_from(["krein", "para_complex"])), draw(st.integers(1, 4))
    matrix = draw(st.lists(st.lists(_ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n))
    if kind == "krein" and draw(st.booleans()):
        matrix = [[matrix[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    names = ("plus_basis", "minus_basis") if kind == "krein" else ("eigen_plus", "eigen_minus")
    bases = {name: draw(st.lists(st.lists(_ENTRIES, min_size=n, max_size=n), max_size=n + 1))
             for name in names}
    return {"kind": kind, "matrix": matrix, "decomposition": bases}


def _old_residuals(s):
    """The four entries' residuals as computed before a failure had to read
    above 0, where they were computed at all (not on an overflowing form)."""
    if isinstance(s, ParaComplexStructure):
        p, q = s.eigen_plus.shape[1], s.eigen_minus.shape[1]
        return {"balanced_eigenspaces": float(abs(p - q))}
    p, q = s.signature
    old = {"bases_span": float(s.dim - p - q)}
    for name, basis, sign in (("positive_on_plus", s.plus_basis, -1),
                              ("negative_on_minus", s.minus_basis, 1)):
        f = basis.T @ s.matrix @ basis
        if basis.shape[1] and np.isfinite(f).all():
            w = np.linalg.eigvalsh(0.5 * (f + f.T))
            old[name] = float(max(0.0, sign * (w.min() if sign < 0 else w.max())))
    return old


@settings(max_examples=300, deadline=None)
@given(doc=decomposed_documents())
def test_every_failing_validate_entry_reads_above_zero(doc):
    tol = Tolerance()
    with np.errstate(all="ignore"):
        structure = parse_structure(doc)
        entries = validate(structure, tol).entries
        old = _old_residuals(structure)
    for e in entries:
        assert e.passed or e.residual > 0 or math.isinf(e.residual) or math.isnan(e.residual), e
        if old.get(e.name, 0.0) > 0:  # a residual that read above 0 keeps its bits
            assert e.residual == old[e.name], e
