"""Linear structures on R^n: validators and canonical normal forms.

Covers symplectic/Darboux forms, Krein and neutral inner products, tangent,
cotangent, complex and para-complex structures, and ``StructureMatrix``, the
package's one model tensor: a (1,1) endomorphism or a (2,0) form whose
isotropy group ``bundle`` and ``limits`` reduce to.  One convention is fixed
throughout the package and is normative:

    B(u, v) = u^T S v,

so the flat map of B sends u to the covector with coordinate column S^T u.
For a symmetric metric G this makes the flat map's matrix G itself, and for
a skew form S it is -S.

Canonical matrices on R^(2k), each ``[[0, upper I], [lower I, 0]]``
from ``_canonical``:

    complex      [[0, -I], [I, 0]]
    para-complex [[0,  I], [I, 0]]
    tangent      [[0,  I], [0, 0]]
    symplectic   [[0,  I], [-I, 0]]

The first three are defined by their square: ``SQUARES[kind]`` is the
multiple of Id that a ``kind`` structure squares to, and ``square_defect``
measures a matrix, or every matrix of a stack, against it.  A symmetric or
skew form is defined by its transpose, and ``symmetry_defect`` measures a
matrix against either tag of ``SYMMETRIES``.  Every check of those
identities, here and in ``bundle``, ``calculus`` and ``compat``, calls
these two; only ``linalg.spd_sqrt`` and ``compat``'s induced metric judge
a symmetry at another scale.  A symplectic form is nondegenerate when its
``kernel_and_image`` rank is full, in ``validate`` and ``darboux_basis``
alike.  ``KINDS`` and ``SYMMETRIES`` are the tensor kinds and symmetry
tags every constructor accepts.

Validation never raises on bad structure data: every invariant becomes a
report entry with its measured residual, so the CLI can surface degenerate
inputs instead of crashing on them.  ``validate`` finds each type's
validator in ``_VALIDATORS``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidInput, ShapeMismatch
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    fro,
    fro_each,
    involution_eigenbases,
    kernel_and_complement,
    kernel_and_image,
    rank_of,
    symmetric_part,
)
from .report import Report, worst

__all__ = [
    "SQUARES",
    "square_defect",
    "symmetry_defect",
    "StructureMatrix",
    "BilinearForm",
    "SymplecticForm",
    "KreinMetric",
    "ComplexStructure",
    "ParaComplexStructure",
    "TangentStructure",
    "CotangentStructure",
    "complex_canonical",
    "para_complex_canonical",
    "tangent_canonical",
    "symplectic_canonical",
    "krein_from_matrix",
    "validate",
    "fundamental_symmetry",
    "krein_isomorphism",
    "tangent_normal_form",
    "complex_normal_form",
    "para_from_complex",
    "darboux_basis",
]


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

# the tensor kinds: an endomorphism and a bilinear form
KINDS = ("1,1", "2,0")
# the symmetry tags of a form
SYMMETRIES = ("symmetric", "skew")
# the flavors of a triple: a positive metric with a complex structure, a
# neutral metric with a para-complex one
FLAVORS = ("kahler", "para_kahler")
# the variances of a tower: surjections down, or injections up
VARIANCES = ("projective", "direct")


def _coerce_columns(owner, names):
    """Set each named field of a frozen ``owner`` to a float (dim, k) array
    of basis vectors as columns."""
    for name in names:
        object.__setattr__(owner, name, np.asarray(getattr(owner, name), dtype=float)
                           .reshape(owner.dim, -1))


@dataclass(frozen=True, eq=False)
class _MatrixStructure:
    """Base of the structure types that carry a square ``matrix``.

    ``matrix`` is coerced by ``as_matrix(square=True)``, and every field
    named in ``_BASES`` to a float ``(dim, k)`` array of basis vectors as
    columns.
    """

    matrix: np.ndarray
    _BASES = ()

    def __post_init__(self):
        object.__setattr__(self, "matrix", as_matrix(self.matrix, square=True))
        _coerce_columns(self, self._BASES)

    @property
    def dim(self):
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class StructureMatrix(_MatrixStructure):
    """Model tensor: a square matrix with a role tag, an endomorphism
    (kind "1,1") or a symmetric or skew form (kind "2,0")."""

    kind: str  # "1,1" | "2,0"
    symmetry: str = "symmetric"  # only meaningful for kind "2,0"

    def __post_init__(self):
        super().__post_init__()
        if self.kind not in KINDS:
            raise InvalidInput(f"unknown tensor kind {self.kind!r}")
        if self.symmetry not in SYMMETRIES:
            raise InvalidInput(f"unknown symmetry tag {self.symmetry!r}")


@dataclass(frozen=True, eq=False)
class BilinearForm(_MatrixStructure):
    """A bilinear form B(u,v) = u^T S v with a declared symmetry tag."""

    symmetry: str  # "symmetric" | "skew"

    def __post_init__(self):
        super().__post_init__()
        if self.symmetry not in SYMMETRIES:
            raise InvalidInput(f"unknown symmetry tag {self.symmetry!r}")

    def __call__(self, u, v):
        return float(np.asarray(u) @ self.matrix @ np.asarray(v))


@dataclass(frozen=True, eq=False)
class SymplecticForm(_MatrixStructure):
    """A skew form expected to be nondegenerate (checked by ``validate``)."""

    __call__ = BilinearForm.__call__


@dataclass(frozen=True, eq=False)
class KreinMetric(_MatrixStructure):
    """Symmetric form with a splitting into positive and negative subspaces.

    ``plus_basis`` / ``minus_basis`` hold basis vectors as columns.  The two
    subspaces must be g-orthogonal and span the whole space; the metric is
    positive definite on the first and negative definite on the second.
    """

    plus_basis: np.ndarray
    minus_basis: np.ndarray
    _BASES = ("plus_basis", "minus_basis")

    @property
    def signature(self):
        return self.plus_basis.shape[1], self.minus_basis.shape[1]

    @property
    def is_neutral(self):
        return self.plus_basis.shape[1] == self.minus_basis.shape[1]


@dataclass(frozen=True, eq=False)
class ComplexStructure(_MatrixStructure):
    """Endomorphism squaring to -Id, optionally with a decomposition.

    A decomposition is a triple ``(basis1, basis2, iso)``: two complementary
    isomorphic subspaces (bases as columns) and the iso mapping
    basis2-coordinates to basis1-coordinates, in which the structure takes
    the block form [[0, -iso], [iso^-1, 0]].
    """

    decomposition: Optional[tuple] = None

    def __post_init__(self):
        super().__post_init__()
        if self.decomposition is not None:
            b1, b2, iso = self.decomposition
            n = self.dim
            b1 = np.asarray(b1, dtype=float).reshape(n, -1)
            b2 = np.asarray(b2, dtype=float).reshape(n, -1)
            iso = as_matrix(iso, square=True, name="iso")
            object.__setattr__(self, "decomposition", (b1, b2, iso))


@dataclass(frozen=True, eq=False)
class ParaComplexStructure(_MatrixStructure):
    """Endomorphism squaring to +Id with balanced +1/-1 eigenspaces."""

    eigen_plus: np.ndarray
    eigen_minus: np.ndarray
    _BASES = ("eigen_plus", "eigen_minus")


@dataclass(frozen=True, eq=False)
class TangentStructure(_MatrixStructure):
    """Nilpotent endomorphism J with im J = ker J."""

    kernel_basis: np.ndarray
    complement_basis: np.ndarray
    _BASES = ("kernel_basis", "complement_basis")


@dataclass(frozen=True, eq=False)
class CotangentStructure:
    """Symplectic form together with a maximal isotropic (Lagrangian) space."""

    symplectic: SymplecticForm
    lagrangian_basis: np.ndarray
    complement_basis: np.ndarray

    def __post_init__(self):
        _coerce_columns(self, ("lagrangian_basis", "complement_basis"))

    @property
    def dim(self):
        return self.symplectic.dim


# ---------------------------------------------------------------------------
# canonical models
# ---------------------------------------------------------------------------

# the multiple of Id that each kind of structure squares to
SQUARES = {"complex": -1.0, "para_complex": 1.0, "tangent": 0.0}
# the scale of a square that overflows
_LARGEST = sys.float_info.max


def square_defect(m, square):
    """``(|m m - square Id|, max(|m|^2, 1))``: the defect of ``m`` squaring
    to ``square`` times Id and the scale it is judged at.  For a
    ``(..., n, n)`` stack, both are arrays of the stack's leading shape,
    with the bits of each matrix alone: ``fro_each`` is ``fro`` row by row,
    and both scales square the norm by one multiplication.

    Where the true |m|^2 passes the largest double, about 1.8e308, the
    scale is that largest double, so the verdict there errs only toward
    failing.  A scale of inf would accept every finite defect, and the
    defect of ``[[a, a], [-1.001 a, -a]]`` squaring to -Id is finite at
    a = 1.3e154 (2.4e305), though |m|^2 is only about 2,800 times that.
    """
    if m.ndim == 2:
        norm = fro(m)
        return fro(m @ m - square * np.eye(len(m))), max(min(norm * norm, _LARGEST), 1.0)
    n = m.shape[-1]
    flat = m.reshape(-1, n, n)
    scale = np.minimum(fro_each(flat) ** 2, _LARGEST)
    defect = fro_each(flat @ flat - square * np.eye(n))
    return defect.reshape(m.shape[:-2]), np.maximum(scale, 1.0).reshape(m.shape[:-2])


def symmetry_defect(m, symmetry):
    """``(|m -+ m^T|, max(|m|, 1))``: the defect of ``m`` being a form of
    the ``symmetry`` tag (``m - m^T`` for symmetric, ``m + m^T`` for skew)
    and the scale it is judged at.  For a ``(..., n, n)`` stack, both are
    arrays of the stack's leading shape, with the bits of each matrix alone
    (``fro_each`` is ``fro`` row by row)."""
    if m.ndim == 2:
        return fro(m - m.T if symmetry == "symmetric" else m + m.T), max(fro(m), 1.0)
    flat = m.reshape(-1, *m.shape[-2:])
    flipped = np.swapaxes(flat, -1, -2)
    defect = fro_each(flat - flipped if symmetry == "symmetric" else flat + flipped)
    return defect.reshape(m.shape[:-2]), np.maximum(fro_each(flat), 1.0).reshape(m.shape[:-2])


def _half(dim):
    if dim % 2:
        raise ShapeMismatch(f"dimension must be even, got {dim}")
    return dim // 2


def _canonical(dim, upper, lower):
    """[[0, upper I], [lower I, 0]] on R^dim, and the first and second
    column halves of the identity."""
    k = _half(dim)
    m = np.zeros((dim, dim))
    m[:k, k:] = upper * np.eye(k)
    m[k:, :k] = lower * np.eye(k)
    eye = np.eye(dim)
    return m, eye[:, :k], eye[:, k:]


def complex_canonical(dim) -> ComplexStructure:
    """[[0, -I], [I, 0]] with the coordinate decomposition attached."""
    m, b1, b2 = _canonical(dim, -1.0, 1.0)
    return ComplexStructure(m, (b1, b2, np.eye(dim // 2)))


def para_complex_canonical(dim) -> ParaComplexStructure:
    """[[0, I], [I, 0]]; eigenvectors are (e_i +- e_{k+i})/sqrt(2)."""
    m, first, second = _canonical(dim, 1.0, 1.0)
    return ParaComplexStructure(m, (first + second) / np.sqrt(2.0),
                                (first - second) / np.sqrt(2.0))


def tangent_canonical(dim) -> TangentStructure:
    """[[0, I], [0, 0]]."""
    return TangentStructure(*_canonical(dim, 1.0, 0.0))


def symplectic_canonical(dim) -> SymplecticForm:
    """[[0, I], [-I, 0]]."""
    return SymplecticForm(_canonical(dim, 1.0, -1.0)[0])


def krein_from_matrix(g, tol: Tolerance = DEFAULT_TOL) -> KreinMetric:
    """Build a KreinMetric from a symmetric nondegenerate matrix.

    The splitting comes from the eigendecomposition: eigenvectors with
    positive (negative) eigenvalues span the positive (negative) part, which
    makes the two parts automatically g-orthogonal.  Eigenvalues within the
    rank threshold of zero mean the form is degenerate.
    """
    g = as_matrix(g, square=True)
    w, q = _ordered_eigh(g, tol)
    return KreinMetric(g, q[:, w > 0], q[:, w < 0])


def _ordered_eigh(g, tol: Tolerance):
    """Eigenvalues of the symmetric part of g in descending order, so the
    positive block comes first and the basis order is deterministic, with
    their eigenvectors as columns.  Raises InvalidInput when an eigenvalue is
    within the rank threshold of zero."""
    w, q = np.linalg.eigh(symmetric_part(g))
    cut = tol.rank_threshold(np.abs(w).max(initial=0.0))
    if np.any(np.abs(w) <= cut):
        raise InvalidInput("symmetric form has (numerically) zero eigenvalues")
    order = np.argsort(-w)
    return w[order], q[:, order]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _subspace_gap(a, b):
    """Distance between the column spaces of a and b (norm of projector gap)."""
    qa = np.linalg.qr(a)[0] if a.shape[1] else np.zeros_like(a)
    qb = np.linalg.qr(b)[0] if b.shape[1] else np.zeros_like(b)
    pa = qa @ qa.T
    pb = qb @ qb.T
    return fro(pa - pb)


def validate(structure, tol: Tolerance = DEFAULT_TOL) -> Report:
    """Check every defining invariant of a structure; residuals per entry.
    Raises TypeError for a type ``_VALIDATORS`` does not name."""
    for cls, validator in _VALIDATORS.items():
        if isinstance(structure, cls):
            report = Report(tol=tol)
            validator(structure, report)
            return report
    raise TypeError(f"cannot validate {type(structure).__name__}")


def _validate_bilinear(b, report):
    report.measured(b.symmetry, *symmetry_defect(b.matrix, b.symmetry))


def _validate_symplectic(o, report):
    report.measured("skew", *symmetry_defect(o.matrix, "skew"))
    report.add("even_dimension", o.dim % 2 == 0, float(o.dim % 2))
    _, _, rank = kernel_and_image(o.matrix, report.tol)
    report.add("nondegenerate", rank == o.dim, float(o.dim - rank))


def _restricted_eigenvalues(s, basis):
    """Eigenvalues of the symmetric part of the form ``s`` on the span of
    ``basis``; all NaN when that form overflows (LAPACK may not converge on
    it)."""
    f = symmetric_part(basis.T @ s @ basis)
    return np.linalg.eigvalsh(f) if np.isfinite(f).all() else np.full(len(f), np.nan)


def _shortfall(w, atol):
    """Residual of the check ``w > atol``: 0 when it holds, ``-w`` when ``w``
    is negative, else the least increase of ``w`` that passes, so a failure
    never reads 0 (and a NaN ``w`` reads NaN)."""
    if w > atol:
        return 0.0
    return float(-w) if w < 0 else float(np.nextafter(atol, np.inf) - w)


def _validate_krein(g, report):
    tol = report.tol
    s = g.matrix
    n = g.dim
    asymmetry, scale = symmetry_defect(s, "symmetric")
    report.measured("symmetric", asymmetry, scale)

    rank = rank_of(np.hstack([g.plus_basis, g.minus_basis]), tol)
    p, q = g.signature
    # the count mismatch, else the missing rank: positive whenever it fails
    report.add("bases_span", rank == n and p + q == n, float(abs(n - p - q) or n - rank))

    if p:
        wmin = _restricted_eigenvalues(s, g.plus_basis).min()
        report.add("positive_on_plus", wmin > tol.atol, _shortfall(wmin, tol.atol))
    if q:
        wmax = _restricted_eigenvalues(s, g.minus_basis).max()
        report.add("negative_on_minus", wmax < -tol.atol, _shortfall(-wmax, tol.atol))
    if p and q:
        report.measured("parts_orthogonal", fro(g.plus_basis.T @ s @ g.minus_basis), scale)
    report.note(f"signature ({p}, {q}); neutral: {g.is_neutral}")


def _validate_complex(c, report):
    m = c.matrix
    n = c.dim
    res, scale = square_defect(m, SQUARES["complex"])
    report.measured("squares_to_minus_id", res, scale)
    report.add("even_dimension", n % 2 == 0, float(n % 2))
    if c.decomposition is not None:
        b1, b2, iso = c.decomposition
        spans = rank_of(np.hstack([b1, b2]), report.tol) == n
        report.add("decomposition_spans", spans, 0.0 if spans else 1.0)
        # block form [[0, -iso], [iso^-1, 0]]: structure maps basis1 into
        # basis2 via iso^-1 and basis2 into basis1 via -iso
        try:
            r1 = fro(m @ b1 - b2 @ np.linalg.solve(iso, np.eye(iso.shape[0])))
            r2 = fro(m @ b2 + b1 @ iso)
            report.measured("decomposition_block_form", worst([r1, r2]), scale)
        except np.linalg.LinAlgError:
            report.add("decomposition_block_form", False, np.inf, "iso singular")


def _validate_para(j, report):
    m = j.matrix
    n = j.dim
    res, scale = square_defect(m, SQUARES["para_complex"])
    report.measured("squares_to_id", res, scale)
    report.measured("trace_zero", abs(float(np.trace(m))), max(n, 1))
    p = j.eigen_plus.shape[1]
    q = j.eigen_minus.shape[1]
    report.add("balanced_eigenspaces", p == q and p + q == n,
               float(abs(p - q) or abs(n - p - q)))
    if p:
        report.measured("plus_eigenspace", fro(m @ j.eigen_plus - j.eigen_plus), scale)
    if q:
        report.measured("minus_eigenspace", fro(m @ j.eigen_minus + j.eigen_minus), scale)
    spans = rank_of(np.hstack([j.eigen_plus, j.eigen_minus]), report.tol) == n
    report.add("eigenspaces_span", spans, 0.0 if spans else 1.0)


def _validate_tangent(t, report):
    m = t.matrix
    n = t.dim
    res, scale = square_defect(m, SQUARES["tangent"])
    report.measured("squares_to_zero", res, scale)
    report.add("even_dimension", n % 2 == 0, float(n % 2))
    kernel, image, rank = kernel_and_image(m, report.tol)
    report.add("rank_is_half_dim", 2 * rank == n, float(abs(2 * rank - n)))
    if 2 * rank == n:
        report.measured("image_equals_kernel", _subspace_gap(image, kernel))
    report.measured("kernel_basis_annihilated", fro(m @ t.kernel_basis), scale)
    _, _, rank_on_complement = kernel_and_image(m @ t.complement_basis, report.tol)
    want = t.complement_basis.shape[1]
    report.add("restriction_isomorphism", rank_on_complement == want,
               float(want - rank_on_complement))


def _validate_cotangent(c, report):
    _validate_symplectic(c.symplectic, report)
    s = c.symplectic.matrix
    n = c.dim
    lag = c.lagrangian_basis
    report.measured("lagrangian_isotropic", fro(lag.T @ s @ lag), max(fro(s), 1.0))
    report.add("lagrangian_maximal", 2 * lag.shape[1] == n,
               float(abs(2 * lag.shape[1] - n)))
    report.add("complement_dimension",
               lag.shape[1] == c.complement_basis.shape[1],
               float(abs(lag.shape[1] - c.complement_basis.shape[1])))
    spans = rank_of(np.hstack([lag, c.complement_basis]), report.tol) == n
    report.add("decomposition_spans", spans, 0.0 if spans else 1.0)


# each validated type and its validator, tried in order with isinstance
_VALIDATORS = {
    BilinearForm: _validate_bilinear,
    SymplecticForm: _validate_symplectic,
    KreinMetric: _validate_krein,
    ComplexStructure: _validate_complex,
    ParaComplexStructure: _validate_para,
    TangentStructure: _validate_tangent,
    CotangentStructure: _validate_cotangent,
}


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def fundamental_symmetry(g: KreinMetric, tol: Tolerance = DEFAULT_TOL):
    """Fundamental symmetry J and fundamental inner product gamma of g.

    J fixes the positive part and flips the negative part, so that
    ``g(u, v) = gamma(u, Jv)`` and ``gamma(u, v) = g(u, Jv)`` with gamma
    positive definite, and ``gamma(u, Jv) = gamma(Ju, v)``.

    Raises
    ------
    InvalidInput
        If the stored bases do not span, or gamma fails to be symmetric
        positive definite (non-orthogonal splitting).
    """
    p, q = g.signature
    n = g.dim
    if p + q != n:
        raise InvalidInput(f"bases give {p}+{q} directions in dimension {n}")
    basis = np.hstack([g.plus_basis, g.minus_basis])
    try:
        inv = np.linalg.inv(basis)
    except np.linalg.LinAlgError as exc:
        raise InvalidInput("plus/minus bases do not span") from exc
    j = basis @ np.diag(np.concatenate([np.ones(p), -np.ones(q)])) @ inv
    gamma = g.matrix @ j
    if not tol.accepts(*symmetry_defect(gamma, "symmetric")):
        raise InvalidInput("splitting is not g-orthogonal: gamma not symmetric")
    gamma = symmetric_part(gamma)
    if np.linalg.eigvalsh(gamma).min() <= tol.atol:
        raise InvalidInput("gamma is not positive definite")
    return j, BilinearForm(gamma, "symmetric")


def krein_isomorphism(g1: KreinMetric, g2: KreinMetric, tol: Tolerance = DEFAULT_TOL):
    """Isomorphism phi with phi^T G2 phi = G1, or a signature verdict.

    Returns ``(phi, None)`` on success and ``(None, "incompatible_signature")``
    when the signatures differ (no isomorphism can exist).
    """
    if g1.dim != g2.dim:
        raise ShapeMismatch(f"ambient dimensions differ: {g1.dim} vs {g2.dim}")
    if g1.signature != g2.signature:
        return None, "incompatible_signature"

    def factor(g):
        # G = W Sigma W^T with Sigma = diag(+1..., -1...) in a fixed order
        w, q = _ordered_eigh(g.matrix, tol)
        return q * np.sqrt(np.abs(w))

    w1 = factor(g1)
    w2 = factor(g2)
    # G_i = W_i Sigma W_i^T with the same Sigma, so W2^T phi = W1^T works
    phi = np.linalg.solve(w2.T, w1.T)
    return phi, None


def tangent_normal_form(j: TangentStructure, tol: Tolerance = DEFAULT_TOL):
    """Isomorphism A with A^-1 J_can A = J, J_can the canonical tangent matrix.

    Raises InvalidInput when J fails its defining invariants.
    """
    rep = validate(j, tol)
    if not rep.passed:
        raise InvalidInput("; ".join(e.name for e in rep.failures()))
    m = j.matrix
    n = j.dim
    # complement = orthogonal complement of ker J; J maps it isomorphically
    # onto ker J, so the columns (J w_1 .. J w_k | w_1 .. w_k) carry J into
    # the canonical form
    _, complement = kernel_and_complement(m, tol)
    p = np.hstack([m @ complement, complement])
    if rank_of(p, tol) != n:
        raise InvalidInput("complement construction degenerate")
    return np.linalg.inv(p)


def complex_normal_form(c: ComplexStructure, tol: Tolerance = DEFAULT_TOL):
    """Isomorphism A with A^-1 I_can A = I for a decomposable structure.

    Sends u + v (u in the first subspace, v in the second) to (u, iso v) in
    coordinates where the canonical complex matrix acts.

    Raises InvalidInput if no decomposition is attached.
    """
    if c.decomposition is None:
        raise InvalidInput("complex structure has no decomposition data")
    b1, b2, iso = c.decomposition
    k = b1.shape[1]
    basis = np.hstack([b1, b2])
    block = np.zeros((2 * k, 2 * k))
    block[:k, :k] = np.eye(k)
    block[k:, k:] = iso
    return block @ np.linalg.inv(basis)


def para_from_complex(c: ComplexStructure, tol: Tolerance = DEFAULT_TOL):
    """Para-complex structure S I from a decomposable complex structure I.

    S is the symmetry that is -Id on the first subspace of the decomposition
    and +Id on the second; the same S recovers I = S J.  Returns the
    structure together with S.
    """
    if c.decomposition is None:
        raise InvalidInput("complex structure has no decomposition data")
    b1, b2, _ = c.decomposition
    n = c.dim
    p = b1.shape[1]
    basis = np.hstack([b1, b2])
    symmetry = basis @ np.diag(np.concatenate([-np.ones(p), np.ones(n - p)])) \
        @ np.linalg.inv(basis)
    j = symmetry @ c.matrix
    # eigenspaces of J: graph vectors u -+ iso^-1(...); numerically the
    # eigendecomposition is simpler and deterministic
    plus, minus = involution_eigenbases(j, tol)
    return ParaComplexStructure(j, plus, minus), symmetry


def darboux_basis(omega: SymplecticForm, tol: Tolerance = DEFAULT_TOL):
    """Symplectic Gram-Schmidt: columns of A turn S into the canonical form.

    Returns ``(A, certificate)`` where ``A^T S A`` equals [[0, I], [-I, 0]]
    and ``certificate`` is the Frobenius residual of that identity.

    Raises
    ------
    InvalidInput
        Odd dimension, a form that ``validate`` calls degenerate (its rank
        under ``kernel_and_image`` is below the dimension), or no partner
        with a nonzero pairing (a form that is not skew).
    """
    s = omega.matrix
    n = omega.dim
    if n % 2:
        raise InvalidInput(f"odd dimension {n}")
    if kernel_and_image(s, tol)[2] < n:
        raise InvalidInput("no symplectic partner found: form is degenerate")

    remaining = [np.eye(n)[:, i] for i in range(n)]
    a_cols = []
    b_cols = []
    while remaining:
        u = remaining.pop(0)
        nu = np.linalg.norm(u)
        if nu <= tol.rank_threshold(1.0):
            continue
        u = u / nu
        pairings = [abs(float(u @ s @ w)) for w in remaining]
        if not pairings or not max(pairings) > 0.0:
            raise InvalidInput("no symplectic partner found: form is degenerate")
        pick = int(np.argmax(pairings))
        v = remaining.pop(pick)
        v = v / float(u @ s @ v)  # now Omega(u, v) = 1
        a_cols.append(u)
        b_cols.append(v)
        # project the rest onto the symplectic complement of span(u, v)
        remaining = [w - float(w @ s @ v) * u + float(w @ s @ u) * v
                     for w in remaining]

    if 2 * len(a_cols) != n:
        raise InvalidInput("symplectic reduction lost directions: form is degenerate")
    a = np.column_stack(a_cols + b_cols)
    certificate = fro(a.T @ s @ a - symplectic_canonical(n).matrix)
    return a, float(certificate)
