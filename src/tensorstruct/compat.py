"""Compatible symplectic / metric / (para-)complex triples at the linear level.

The three pairwise compatibility notions, with B(u,v) = u^T S v throughout:

  * form and complex structure I:   Omega(Iu, Iv) = Omega(u, v) and
    g'(u,v) = Omega(u, Iv) positive definite;
  * metric and complex structure:   g(Iu, Iv) = g(u, v);
  * metric and form:                (g-flat)^-1 (Omega-flat) squares to -Id
    (Kahler) or +Id (para flavor).

Para-complex versions flip the sign: Omega(Ju, Jv) = -Omega(u, v),
g(Ju, Jv) = -g(u, v), and the metric side is neutral instead of positive.

``structure_from`` is the polar construction: from a positive metric G and a
nondegenerate skew S it builds A = G^-1 S^T, the positive g-self-adjoint
square root R of A A^* and the complex structure R^-1 A, plus the corrected
metric with matrix G R, which is the one actually compatible with both
inputs.  A A^* is self-adjoint for the metric, not Euclidean-symmetric, so
the square root is taken after conjugating with G^(1/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InvalidInput, ShapeMismatch, TensorStructError
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    fro,
    involution_eigenbases,
    metric_adjoint,
    signature_of,
    spd_sqrt,
    symmetric_part,
)
from .report import Report
from .structures import (
    FLAVORS,
    SQUARES,
    BilinearForm,
    ComplexStructure,
    KreinMetric,
    ParaComplexStructure,
    SymplecticForm,
    krein_from_matrix,
    square_defect,
    symmetry_defect,
    validate,
)

__all__ = [
    "CompatibleTriple",
    "OperatorA",
    "omega_from",
    "g_from",
    "structure_from",
    "is_compatible",
    "complete_pair",
    "complete_triple",
    "check_triple",
    "lagrangian_orthogonal_decomposition",
]

Structure = Union[ComplexStructure, ParaComplexStructure]


@dataclass(frozen=True, eq=False)
class CompatibleTriple:
    """A symplectic form, a metric and a (para-)complex structure.

    ``metric`` is a symmetric BilinearForm for the Kahler flavor (positive
    definite) and a KreinMetric for the para flavor (neutral).
    """

    omega: SymplecticForm
    metric: Union[BilinearForm, KreinMetric]
    structure: Structure
    flavor: str  # "kahler" | "para_kahler"

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise InvalidInput(f"unknown flavor {self.flavor!r}")

    @property
    def dim(self):
        return self.omega.dim

    @property
    def metric_matrix(self):
        return self.metric.matrix


@dataclass(frozen=True, eq=False)
class OperatorA:
    """The operator linking a metric and a form: g(A u, v) = Omega(u, v)."""

    matrix: np.ndarray
    metric: np.ndarray
    omega: np.ndarray

    def residual(self):
        """Frobenius defect of the defining relation G A = S^T."""
        return fro(self.metric @ self.matrix - self.omega.T)


def _metric_ok(g, flavor, tol):
    """(accepted, detail) for the flavor's signature requirement."""
    n_plus, n_minus, n_zero = signature_of(g, tol)
    if n_zero:
        return False, f"degenerate metric (zero count {n_zero})"
    return (n_minus == 0 if flavor == "kahler" else n_plus == n_minus,
            f"signature ({n_plus}, {n_minus})")


def omega_from(metric, structure: Structure, tol: Tolerance = DEFAULT_TOL) -> SymplecticForm:
    """Symplectic form Omega(u,v) = g(Iu, v) from a compatible (metric, structure).

    Works for both flavors; raises InvalidInput when the inputs fail
    their own compatibility (the resulting form would not be skew or would
    be degenerate).
    """
    g = as_matrix(getattr(metric, "matrix", metric), square=True, name="metric")
    i = structure.matrix
    if g.shape != i.shape:
        raise ShapeMismatch(f"metric {g.shape} vs structure {i.shape}")
    s = i.T @ g
    if not tol.accepts(*symmetry_defect(s, "skew")):
        raise InvalidInput("g(Iu, v) is not skew: metric and structure incompatible")
    omega = SymplecticForm(0.5 * s - 0.5 * s.T)
    if not validate(omega, tol).passed:
        raise InvalidInput("constructed form is degenerate")
    return omega


def g_from(omega: SymplecticForm, structure: Structure, flavor=None,
           tol: Tolerance = DEFAULT_TOL):
    """Metric g(u,v) = Omega(u, Iv) from a compatible (form, structure).

    Returns a symmetric BilinearForm (Kahler: positive definite) or a
    KreinMetric (para flavor: neutral, with its Krein splitting attached).
    Raises InvalidInput when the metric is not symmetric or fails its
    signature test.
    """
    if flavor is None:
        flavor = "kahler" if isinstance(structure, ComplexStructure) else "para_kahler"
    s = omega.matrix
    i = structure.matrix
    if s.shape != i.shape:
        raise ShapeMismatch(f"form {s.shape} vs structure {i.shape}")
    g = s @ i
    if not tol.accepts(*symmetry_defect(g, "symmetric")):
        raise InvalidInput("Omega(u, Iv) is not symmetric")
    g = symmetric_part(g)
    ok, detail = _metric_ok(g, flavor, tol)
    if not ok:
        raise InvalidInput(f"metric fails {flavor} signature test: {detail}")
    if flavor == "kahler":
        return BilinearForm(g, "symmetric")
    return krein_from_matrix(g, tol)


def structure_from(metric, omega: SymplecticForm, flavor="kahler",
                   tol: Tolerance = DEFAULT_TOL):
    """(Para-)complex structure from a metric and a form, plus corrected metric.

    Kahler flavor (polar construction): with A = G^-1 S^T,

        R = g-self-adjoint positive square root of A A^*,
        I = R^-1 A,

    guaranteeing I^2 = -Id, I R = R I, and that the corrected metric
    g~(u,v) = g(Ru, v) is positive definite and compatible with both Omega
    and I.  Returns ``(structure, corrected_metric, operator)``.

    Para flavor: J = G^-1 S^T directly; accepted iff J^2 = Id within tol
    (near-misses are rejected, never repaired).  The corrected metric is
    g~(u,v) = Omega(u, Jv), neutral by construction.

    Raises
    ------
    InvalidInput
        The form fails nondegeneracy; (Kahler) the input metric is not
        positive definite; (para) it is not neutral, or J^2 differs from Id
        beyond tolerance; the flavor is unknown.  The metric is judged
        before G^-1 S^T is solved, so a singular metric is one of these,
        never a ``LinAlgError``.
    """
    g = as_matrix(getattr(metric, "matrix", metric), square=True, name="metric")
    s = omega.matrix
    if g.shape != s.shape:
        raise ShapeMismatch(f"metric {g.shape} vs form {s.shape}")
    if not validate(omega, tol).passed:
        raise InvalidInput("form is degenerate or not skew")
    if flavor == "kahler":
        try:
            g_half = spd_sqrt(g, tol)
        except (TensorStructError, ValueError) as exc:
            raise InvalidInput(f"metric is not positive definite: {exc}") from exc
    elif flavor not in FLAVORS:
        raise InvalidInput(f"unknown flavor {flavor!r}")
    else:
        ok, detail = _metric_ok(g, "para_kahler", tol)
        if not ok:
            raise InvalidInput(f"metric is not neutral: {detail}")
    try:
        a = np.linalg.solve(g, s.T)
    except np.linalg.LinAlgError as exc:  # a singular g that the tolerance let through
        raise InvalidInput(f"metric is singular: {exc}") from exc
    operator = OperatorA(a, g, s)

    if flavor == "kahler":
        a_star = metric_adjoint(a, g)
        m = a @ a_star
        # m is self-adjoint for g; conjugating by G^(1/2) makes it symmetric
        g_half_inv = np.linalg.inv(g_half)
        try:
            root = spd_sqrt(g_half @ m @ g_half_inv, tol)
        except (TensorStructError, ValueError) as exc:
            raise InvalidInput(f"A A* is not positive: {exc}") from exc
        r = g_half_inv @ root @ g_half
        i = np.linalg.solve(r, a)
        # Newton polish toward exact involutivity: X -> (X - X^-1)/2 squares
        # the defect of X^2 = -Id and contracts toward the exact polar
        # factor, so all compatibility identities tighten with it
        for _ in range(3):
            defect, scale = square_defect(i, SQUARES["complex"])
            if defect <= 1e-14 * scale:
                break
            candidate = 0.5 * (i - np.linalg.inv(i))
            if square_defect(candidate, SQUARES["complex"])[0] < defect:
                i = candidate
            else:
                break
        # refresh the root so that corrected = g(R ., .) keeps the exact
        # link corrected = Omega(., I.) after polishing
        r = a @ np.linalg.inv(i)
        corrected = symmetric_part(g @ r)
        structure = ComplexStructure(i, _adapted_decomposition(corrected, i))
        return structure, BilinearForm(corrected, "symmetric"), operator

    j = a
    resid, scale = square_defect(j, SQUARES["para_complex"])
    if not tol.accepts(resid, scale):
        raise InvalidInput(f"J^2 - Id residual {resid:.3e}")
    corrected = symmetric_part(s @ j)
    plus, minus = involution_eigenbases(j, tol)
    structure = ParaComplexStructure(j, plus, minus)
    return structure, krein_from_matrix(corrected, tol), operator


def _unitary_half_basis(g, i):
    """Columns u_1..u_k, g-orthonormal with every u_j g-orthogonal to every
    I u_l; the span is Lagrangian for any form with g = Omega(., I.) and its
    image under I is the g-orthogonal complement."""
    n = g.shape[0]
    k = n // 2
    chosen = np.zeros((n, 0))
    for idx in range(n):
        if chosen.shape[1] == 2 * k:
            break
        v = np.eye(n)[:, idx]
        if chosen.shape[1]:
            gram = chosen.T @ g @ chosen
            v = v - chosen @ np.linalg.solve(gram, chosen.T @ g @ v)
        norm = float(np.sqrt(max(v @ g @ v, 0.0)))
        if norm <= 1e-8:
            continue
        v = v / norm
        chosen = np.hstack([chosen, v[:, None], (i @ v)[:, None]])
    if chosen.shape[1] != 2 * k:
        return None
    return chosen[:, 0::2]


def _adapted_decomposition(g, i_matrix):
    """Decomposition (E1, E2 = I(E1), iso), Lagrangian-orthogonal for the
    metric g compatible with I.  Returns None when the construction breaks
    (I not a complex structure for g)."""
    n = i_matrix.shape[0]
    if n % 2:
        return None
    k = n // 2
    b1 = _unitary_half_basis(g, i_matrix)
    if b1 is None:
        return None
    b2 = i_matrix @ b1
    # block convention [[0, -iso], [iso^-1, 0]]: with E2 = I(E1) the
    # coordinate representation pins iso down exactly
    basis = np.hstack([b1, b2])
    rep = np.linalg.solve(basis, i_matrix @ basis)
    iso = -rep[:k, k:]
    return b1, b2, iso


def _signature_entry(report, name, metric_ok):
    ok, detail = metric_ok
    report.add(name, ok, 0.0 if ok else 1.0, detail)


def _form_structure(s, i, sign, induced_ok, tol):
    """The (form, structure) pair: invariance, and the induced metric
    Omega(., I.) symmetric with the flavor's signature, given the
    ``_metric_ok`` of its symmetric part."""
    report = Report(tol=tol)
    scale = max(fro(s), 1.0)
    # Omega(Iu, Iv) = -sign * Omega(u, v): +1 for kahler, -1 for para
    report.measured("form_invariance", fro(i.T @ s @ i - (-sign) * s), scale)
    induced = s @ i
    report.measured("induced_metric_symmetric", fro(induced - induced.T), scale)
    _signature_entry(report, "induced_metric_signature", induced_ok)
    return report


def _metric_structure(g, i, sign, metric_ok, tol):
    """The (metric, structure) pair, given the metric's ``_metric_ok``."""
    report = Report(tol=tol)
    report.measured("metric_invariance", fro(i.T @ g @ i - (-sign) * g), max(fro(g), 1.0))
    _signature_entry(report, "metric_signature", metric_ok)
    return report


def _metric_form(g, s, sign, metric_ok, tol):
    """The (metric, form) pair, given the metric's ``_metric_ok``."""
    report = Report(tol=tol)
    report.measured("flat_composition_squares_correctly",
                    *square_defect(np.linalg.solve(g, s.T), sign))
    _signature_entry(report, "metric_signature", metric_ok)
    return report


def is_compatible(first, second, flavor="kahler", tol: Tolerance = DEFAULT_TOL) -> Report:
    """Evaluate the defining compatibility identity of a pair on a full basis.

    The pair is recognized by type: (form, structure), (metric, structure)
    or (metric, form).  Returns a report; never raises on incompatibility.
    """
    # the structure squares to sign * Id
    sign = SQUARES["complex" if flavor == "kahler" else "para_complex"]
    structure = (ComplexStructure, ParaComplexStructure)
    if isinstance(first, SymplecticForm) and isinstance(second, structure):
        s, i = first.matrix, second.matrix
        return _form_structure(s, i, sign, _metric_ok(symmetric_part(s @ i), flavor, tol), tol)
    if isinstance(first, (BilinearForm, KreinMetric, np.ndarray)) and isinstance(
            second, (*structure, SymplecticForm)):
        g = np.asarray(getattr(first, "matrix", first), dtype=float)
        pair = _metric_structure if isinstance(second, structure) else _metric_form
        return pair(g, second.matrix, sign, _metric_ok(g, flavor, tol), tol)
    raise TypeError(
        f"unrecognized pair ({type(first).__name__}, {type(second).__name__})")


def complete_pair(first, second, flavor="kahler",
                  tol: Tolerance = DEFAULT_TOL) -> tuple[CompatibleTriple, Report]:
    """Complete a compatible pair to a full triple, with the ``check_triple``
    report that accepted it.

    Dispatches on the pair's types to ``omega_from`` / ``g_from`` /
    ``structure_from``.  The polar route replaces the input metric by the
    corrected one; the other routes keep both inputs.  Raises
    InvalidInput, naming the failing entries, when the completed
    triple fails ``check_triple``.
    """
    if isinstance(first, (ComplexStructure, ParaComplexStructure)):
        first, second = second, first
    if isinstance(first, SymplecticForm) and not isinstance(
            second, (ComplexStructure, ParaComplexStructure)):
        first, second = second, first

    if isinstance(second, (ComplexStructure, ParaComplexStructure)):
        structure = second
        if isinstance(first, SymplecticForm):
            omega = first
            metric = g_from(omega, structure, flavor, tol)
        else:
            metric = first if isinstance(first, (BilinearForm, KreinMetric)) else \
                BilinearForm(as_matrix(first, square=True), "symmetric")
            omega = omega_from(metric, structure, tol)
    elif isinstance(second, SymplecticForm):
        omega = second
        structure, metric, _ = structure_from(first, omega, flavor, tol)
    else:
        raise TypeError("pair must contain a form, a metric, or a structure")

    triple = CompatibleTriple(omega, metric, structure, flavor)
    rep = check_triple(triple, tol)
    if not rep.passed:
        raise InvalidInput(
            "completed triple fails: " + "; ".join(e.name for e in rep.failures()))
    return triple, rep


def complete_triple(first, second, flavor="kahler",
                    tol: Tolerance = DEFAULT_TOL) -> CompatibleTriple:
    """Complete a compatible pair to a full triple and validate it: the
    triple of ``complete_pair``."""
    return complete_pair(first, second, flavor, tol)[0]


def check_triple(triple: CompatibleTriple, tol: Tolerance = DEFAULT_TOL) -> Report:
    """All three pairwise predicates plus the linking identity g = Omega(., I.).

    The entries are those of ``is_compatible`` on the (form, structure),
    (metric, structure) and (metric, form) pairs, but the metric's
    signature is computed once and shared by both metric pairs, and it is
    the induced metric's when the metric has the bits of the induced
    metric ``symmetric_part(omega @ structure)``, as a metric built by
    ``g_from`` and the block targets of ``loopspace`` have.
    """
    report = Report(tol=tol)
    flavor = triple.flavor
    sign = SQUARES["complex" if flavor == "kahler" else "para_complex"]
    s, i = triple.omega.matrix, triple.structure.matrix
    g = triple.metric_matrix
    induced = s @ i
    induced_metric = symmetric_part(induced)
    induced_ok = _metric_ok(induced_metric, flavor, tol)
    report.extend(_form_structure(s, i, sign, induced_ok, tol), prefix="form_structure/")
    metric_ok = induced_ok if np.array_equal(g, induced_metric) else _metric_ok(g, flavor, tol)
    report.extend(_metric_structure(g, i, sign, metric_ok, tol), prefix="metric_structure/")
    report.extend(_metric_form(g, s, sign, metric_ok, tol), prefix="metric_form/")
    link = fro(induced - g)
    if flavor == "para_kahler":
        # the two linking formulas g = Omega(., J.) and Omega = g(J., .)
        # differ by a sign in the para case; accept either orientation
        link = min(link, fro(induced + g))
    report.measured("metric_is_omega_of_structure", link, max(fro(g), 1.0))
    return report


def lagrangian_orthogonal_decomposition(triple: CompatibleTriple,
                                        tol: Tolerance = DEFAULT_TOL):
    """Split the space into two halves adapted to the triple.

    Kahler flavor: E1 and E2 = I(E1) are isomorphic, Lagrangian for Omega
    and orthogonal for the metric.  Para flavor: both halves are Lagrangian,
    the metric is positive definite on E1 and negative definite on E2, and
    J swaps them.

    Returns (E1, E2) with basis vectors as columns.
    Raises InvalidInput if the triple fails ``check_triple``.
    """
    if not check_triple(triple, tol).passed:
        raise InvalidInput("triple fails its compatibility predicates")
    n = triple.dim
    k = n // 2
    g = triple.metric_matrix
    i = triple.structure.matrix

    if triple.flavor == "kahler":
        e1 = _unitary_half_basis(g, i)
        if e1 is None:
            raise InvalidInput("could not build an adapted unitary basis")
        return e1, i @ e1

    # para flavor: graphs over the +1 eigenspace.  With P the perfect pairing
    # g: E^+ x E^- -> R, the subspace {u + phi(u)} with g(u, phi u') = Id is
    # Lagrangian and positive; J flips the sign of the E^- component, so the
    # image {u - phi(u)} is Lagrangian and negative.
    plus, minus = involution_eigenbases(i, tol)
    if plus.shape[1] != k or minus.shape[1] != k:
        raise InvalidInput("eigenspaces are not balanced")
    pairing = plus.T @ g @ minus
    try:
        phi = minus @ np.linalg.inv(pairing)
    except np.linalg.LinAlgError as exc:
        raise InvalidInput("pairing between eigenspaces is degenerate") from exc
    e1 = plus + phi
    e2 = i @ e1
    return e1, e2
