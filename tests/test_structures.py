import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tensorstruct import documents
from tensorstruct.calculus import TensorFieldOnChart
from tensorstruct.documents import parse_structure
from tensorstruct.compat import FLAVORS, CompatibleTriple, structure_from
from tensorstruct.errors import InvalidInput
from tensorstruct.limits import VARIANCES, BondingSystem, CoherentSequence
from tensorstruct.linalg import DEFAULT_TOL, Tolerance
from tensorstruct.structures import (
    KINDS,
    SQUARES,
    SYMMETRIES,
    BilinearForm,
    ComplexStructure,
    CotangentStructure,
    KreinMetric,
    ParaComplexStructure,
    StructureMatrix,
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
    square_defect,
    symmetry_defect,
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

def test_validate_refuses_an_unsupported_type():
    with pytest.raises(TypeError, match="cannot validate ndarray"):
        validate(np.eye(2))


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
    with pytest.raises(InvalidInput, match=r"symmetric form has \(numerically\) zero eigenvalues"):
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
    with pytest.raises(InvalidInput, match="complex structure has no decomposition data"):
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
    with pytest.raises(InvalidInput, match="complex structure has no decomposition data"):
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
    with pytest.raises(InvalidInput, match="no symplectic partner found: form is degenerate"):
        darboux_basis(SymplecticForm(np.zeros((2, 2))))
    with pytest.raises(InvalidInput, match="no symplectic partner found: form is degenerate"):
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
        structure = parse_structure(doc, tol)
        entries = validate(structure, tol).entries
        old = _old_residuals(structure)
    for e in entries:
        assert e.passed or e.residual > 0 or math.isinf(e.residual) or math.isnan(e.residual), e
        if old.get(e.name, 0.0) > 0:  # a residual that read above 0 keeps its bits
            assert e.residual == old[e.name], e


# ---------------------------------------------------------------------------
# canonical models
# ---------------------------------------------------------------------------

# the builders as they were before they shared one block helper, verbatim
def old_complex(dim):
    k = dim // 2
    m = np.zeros((dim, dim))
    m[:k, k:] = -np.eye(k)
    m[k:, :k] = np.eye(k)
    b1 = np.eye(dim)[:, :k]
    b2 = np.eye(dim)[:, k:]
    return m, b1, b2, np.eye(k)


def old_para(dim):
    k = dim // 2
    m = np.zeros((dim, dim))
    m[:k, k:] = np.eye(k)
    m[k:, :k] = np.eye(k)
    eye = np.eye(dim)
    plus = (eye[:, :k] + eye[:, k:]) / np.sqrt(2.0)
    minus = (eye[:, :k] - eye[:, k:]) / np.sqrt(2.0)
    return m, plus, minus


def old_tangent(dim):
    k = dim // 2
    m = np.zeros((dim, dim))
    m[:k, k:] = np.eye(k)
    eye = np.eye(dim)
    return m, eye[:, :k], eye[:, k:]


def old_symplectic(dim):
    k = dim // 2
    m = np.zeros((dim, dim))
    m[:k, k:] = np.eye(k)
    m[k:, :k] = -np.eye(k)
    return (m,)


@pytest.mark.parametrize("dim", [2, 4, 6])
@pytest.mark.parametrize("build, old, fields", [
    (complex_canonical, old_complex, lambda c: (c.matrix, *c.decomposition)),
    (para_complex_canonical, old_para, lambda j: (j.matrix, j.eigen_plus, j.eigen_minus)),
    (tangent_canonical, old_tangent,
     lambda t: (t.matrix, t.kernel_basis, t.complement_basis)),
    (symplectic_canonical, old_symplectic, lambda o: (o.matrix,)),
], ids=["complex", "para_complex", "tangent", "symplectic"])
def test_canonical_models_keep_their_bytes(dim, build, old, fields):
    got = fields(build(dim))
    want = old(dim)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        # tobytes also tells -0.0 from 0.0
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


# ---------------------------------------------------------------------------
# one rule per identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("symmetry", SYMMETRIES)
def test_symmetry_defect_is_the_entry_of_every_form_validator(symmetry):
    m = RNG.normal(size=(4, 4)) * 1e3
    want = (float(np.linalg.norm(m - m.T if symmetry == "symmetric" else m + m.T)),
            float(np.linalg.norm(m)))
    assert symmetry_defect(m, symmetry) == want
    # the scale is |m| at every size, with no floor at 1
    assert symmetry_defect(m * 1e-6, symmetry)[1] == float(np.linalg.norm(m * 1e-6))
    validators = [(BilinearForm(m, symmetry), symmetry)]
    validators += [(SymplecticForm(m), "skew")] if symmetry == "skew" else [
        (KreinMetric(m, np.eye(4)[:, :2], np.eye(4)[:, 2:]), "symmetric")]
    for structure, name in validators:
        [entry] = [e for e in validate(structure).entries if e.name == name]
        assert entry.residual == want[0]


def finite_or_not_stacks():
    """(2, 3, n, n) stacks whose entries reach 1e300, some rows holding inf
    or NaN."""
    entries = st.floats(-1e300, 1e300, allow_nan=False) | st.sampled_from(
        [0.0, 1.0, -1.0, 1e154, 2e154, np.inf, np.nan])
    return st.integers(1, 4).flatmap(lambda n: st.lists(
        entries, min_size=6 * n * n, max_size=6 * n * n).map(
        lambda v: np.array(v).reshape(2, 3, n, n)))


# each stacked defect with each of its tags
DEFECTS = [(square_defect, square) for square in sorted(SQUARES.values())] + [
    (symmetry_defect, symmetry) for symmetry in SYMMETRIES]


@settings(max_examples=200, deadline=None)
@given(stack=finite_or_not_stacks(), defect=st.sampled_from(DEFECTS))
def test_the_defect_of_a_stack_is_that_of_each_matrix(stack, defect):
    defect, tag = defect
    with np.errstate(all="ignore"):
        defects, scales = defect(stack, tag)
        each = [defect(m, tag) for m in stack.reshape(-1, *stack.shape[2:])]
    assert defects.shape == scales.shape == stack.shape[:2]
    np.testing.assert_array_equal(defects.ravel(), [d for d, _ in each])
    np.testing.assert_array_equal(scales.ravel(), [s for _, s in each])
    # the square's scale |m|^2 stops at the largest double
    assert defect is symmetry_defect or np.all(np.isnan(scales)
                                               | (scales <= np.finfo(float).max))


NONDEGENERACY_TOLS = [DEFAULT_TOL, Tolerance(0.0, 1e-9), Tolerance(1e-6, 0.0),
                      Tolerance(0.0, 1e-3)]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), pairs=st.integers(1, 3),
       exponent=st.integers(-400, 400), weak=st.integers(0, 80),
       tol=st.sampled_from(NONDEGENERACY_TOLS))
def test_darboux_basis_exists_exactly_when_validate_calls_a_form_nondegenerate(
        seed, pairs, exponent, weak, tol):
    # a congruent canonical form at scale 2**exponent whose last pair is
    # weaker by 2**-weak (dropped when weak is 80): the weak pairing
    # straddles each tolerance's rank threshold
    rng = np.random.default_rng(seed)
    n = 2 * pairs
    blocks = np.ones(n)
    blocks[[pairs - 1, n - 1]] = 0.0 if weak == 80 else 2.0 ** -weak
    p = random_invertible(n, rng)
    s = 2.0 ** exponent * (p.T @ (symplectic_canonical(n).matrix * blocks[:, None]) @ p)
    omega = SymplecticForm(s - s.T)
    [nondegenerate] = [e for e in validate(omega, tol).entries if e.name == "nondegenerate"]
    if nondegenerate.passed:
        a, _ = darboux_basis(omega, tol)
        assert a.shape == (n, n) and np.isfinite(a).all()
    else:
        with pytest.raises(InvalidInput, match="form is degenerate"):
            darboux_basis(omega, tol)


@pytest.mark.parametrize("build, message", [
    (lambda t: StructureMatrix(np.eye(2), t), "unknown tensor kind {!r}"),
    (lambda t: StructureMatrix(np.eye(2), "2,0", t), "unknown symmetry tag {!r}"),
    (lambda t: BilinearForm(np.eye(2), t), "unknown symmetry tag {!r}"),
    (lambda t: TensorFieldOnChart(2, t, lambda x: np.eye(2)), "unknown tensor kind {!r}"),
    (lambda t: CoherentSequence(BondingSystem.padded([1], "direct"), [[[1.0]]], t),
     "unknown tensor kind {!r}"),
    (lambda t: CompatibleTriple(symplectic_canonical(2), BilinearForm(np.eye(2), "symmetric"),
                                complex_canonical(2), t), "unknown flavor {!r}"),
    (lambda t: structure_from(np.eye(2), symplectic_canonical(2), t), "unknown flavor {!r}"),
    (lambda t: BondingSystem([1], t), "unknown variance {!r}"),
], ids=["structure-kind", "structure-symmetry", "bilinear", "field", "sequence", "triple",
        "structure_from", "bonding"])
def test_every_constructor_refuses_a_word_outside_its_vocabulary(build, message):
    with pytest.raises(ValueError) as err:
        build("mystery")
    assert str(err.value) == message.format("mystery")


def test_the_document_schemas_read_the_vocabularies():
    assert (documents.KIND.choices, documents.SYMMETRY.choices, documents.FLAVOR.choices) == (
        KINDS, SYMMETRIES, FLAVORS)
    assert tuple(documents.TOWER.variants) == tuple(documents.CONNECTION.variants) == VARIANCES
