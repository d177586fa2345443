"""Dense real linear-algebra kernel with an explicit tolerance policy.

Everything downstream funnels its numerics through here: norms, symmetric
square roots, adjoints with respect to a metric, and eigenvalue and
rank/kernel decisions.  All operations are pure; matrices are plain
``numpy`` arrays of floats and are never mutated.  ``batched`` is the one
stacked ``np.linalg`` call that falls back to one matrix at a time, to find
the matrices it fails on.

The range rescue lives here alone: where a sum of squares, an eigenvalue
cut or a rank threshold of a finite nonzero input comes out inf, NaN or
below the smallest normal double, ``fro``, ``fro_each``,
``symmetric_eigen``, ``kernel_and_image`` and ``rank_of`` compute again on
the input divided by ``_power_of_two`` of it, which is exact, and judge
at that scale.  Everywhere else they take the direct result, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, ShapeMismatch

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "as_matrix",
    "fro",
    "fro_each",
    "batched",
    "spd_sqrt",
    "metric_adjoint",
    "kernel_and_image",
    "kernel_and_complement",
    "involution_eigenbases",
    "rank_of",
    "signature_of",
    "symmetric_part",
]


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair used by every validating operation.

    It is the only code that turns a scale into a threshold, and every
    threshold is ``atol + rtol * scale`` at the true scale, so ``atol`` is
    the only absolute part of any of them.  The rank threshold for a matrix
    with largest singular value ``smax`` is ``atol + rtol * smax``, and the
    cut of an eigenvalue-sign decision on eigenvalues ``w`` is
    ``atol + rtol * max|w|`` (``eigen_cut``); both take a ``scale`` for a
    decision made on a matrix divided by ``scale`` (the range rescue of
    ``symmetric_eigen``, ``kernel_and_image`` and ``rank_of``), where the
    threshold is ``atol / scale + rtol * smax``; residual checks accept
    ``r <= rtol * scale + atol`` for a finite ``r``, element by element for
    arrays.  An infinite or NaN residual is never accepted, not even at an
    infinite scale.  Every report entry is decided this way by
    ``Report.measured`` (or its block form), with the ``Tolerance`` the
    report holds; only constructions that decide their own preconditions,
    and public predicates, call ``accepts`` themselves.
    """

    atol: float = 1e-9
    rtol: float = 1e-9

    def __post_init__(self):
        if self.atol < 0 or self.rtol < 0:
            raise InvalidInput("tolerances must be nonnegative")
        if self.atol == 0 and self.rtol == 0:
            raise InvalidInput("atol and rtol cannot both be zero")

    def accepts(self, residual, scale=1.0):
        return (residual <= self.rtol * scale + self.atol) & (residual < math.inf)

    def rank_threshold(self, smax, scale=1.0):
        return self.atol / scale + self.rtol * smax

    def eigen_cut(self, w, scale=1.0):
        """The cut of every eigenvalue-sign decision on the eigenvalues
        ``w`` of a matrix divided by ``scale``: an eigenvalue within
        ``atol / scale + rtol * max|w|`` of zero counts as zero.  It is not
        finite when some eigenvalue is not."""
        return self.rank_threshold(np.abs(w).max(initial=0.0), scale)


DEFAULT_TOL = Tolerance()


def as_matrix(m, square=False, name="matrix", ndim=2):
    """Coerce to a float ndarray of ``ndim`` dimensions (a stack of square
    matrices when ``square`` and ``ndim`` > 2) and enforce finiteness (no
    NaN/Inf)."""
    a = np.asarray(m, dtype=float)
    if a.ndim != ndim:
        raise ShapeMismatch(f"{name} must be {ndim}-dimensional, got shape {a.shape}")
    if square and a.shape[-1] != a.shape[-2]:
        raise ShapeMismatch(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return a


_TINY = np.finfo(float).tiny  # the smallest normal double


def _power_of_two(x, even=True):
    """The power of two ``2**e``, ``e`` even, with ``1 <= max|x| / 2**e < 4``
    for a finite nonzero ``x``: dividing by it is exact wherever the
    quotient is a normal double, and its square root ``2**(e/2)`` is exact
    too.  It is the one rescale of the package, after Blue (ACM TOMS 4(1),
    1978) and Anderson (ACM TOMS 44(1), 2017).  With ``even`` false, ``e``
    is the exponent of max|x| itself, ``1 <= max|x| / 2**e < 2``, so that
    ``x`` and ``x * 2**k`` give the same quotient for every integer k."""
    e = math.frexp(float(np.abs(x).max()))[1] - 1
    return math.ldexp(1.0, e - e % 2 if even else e)


def fro(a):
    """Frobenius norm: for float64 and integer input, the computation
    ``np.linalg.norm(a)`` makes, bit for bit, without its per-call dispatch
    (``np.vdot`` is the dot ``norm`` takes, and it emits no overflow
    warning), wherever the sum of squares is a normal double; zeros, the
    commonest input, take one count of nonzeros past it.  Where the sum of squares of
    finite entries, not all zero, overflows, underflows or goes subnormal,
    it is ``p * sqrt(sum((x / p)**2))`` for ``p = _power_of_two(x)``,
    positive, and finite wherever the true norm is; entries holding an inf
    or a NaN still give inf or NaN."""
    x = np.asarray(a, dtype=float).ravel(order="K")
    d = np.vdot(x, x)
    if not _TINY <= d < math.inf and np.count_nonzero(x) and np.isfinite(x).all():
        p = _power_of_two(x)
        return p * fro(x / p)
    return math.sqrt(d)


def fro_each(stack):
    """``fro`` of each matrix of a ``(P, n, m)`` stack, bit for bit: one
    ``vecdot`` of the flattened matrices with themselves (the dot ``fro``
    takes, row by row), and ``fro`` itself on each row, not all zeros,
    whose sum of squares is not a normal double; a stack of zeros takes
    neither.  Like ``fro``, it never warns: ``vecdot`` checks the
    floating-point flags, so a sum that overflows, which ``fro`` then
    rescues, is silenced."""
    stack = np.asarray(stack, dtype=float)
    rows = stack.reshape(len(stack), math.prod(stack.shape[1:]))
    if not np.count_nonzero(rows):
        return np.zeros(len(rows))
    with np.errstate(over="ignore"):
        d = np.vecdot(rows, rows)
    out = np.sqrt(d)
    for k in np.flatnonzero(((d < _TINY) & rows.any(axis=1)) | ~(d < math.inf)):
        out[k] = fro(rows[k])
    return out


def batched(op, *stacks):
    """``op(*stacks)``, one stacked ``np.linalg`` call on ``(..., n, k)``
    stacks of one leading shape, and the mask of the matrices it fails on,
    in row order.

    One batched call; only when it raises ``LinAlgError``, one call per
    matrix, each with the bits of the batched call's, and the rows that fail
    hold zeros.  The result has the shape of the last stack.
    """
    try:
        return op(*stacks), np.zeros(math.prod(stacks[0].shape[:-2]), dtype=bool)
    except np.linalg.LinAlgError:
        rows = [s.reshape((-1,) + s.shape[-2:]) for s in stacks]
    out, failed = np.zeros(rows[-1].shape), np.zeros(len(rows[-1]), dtype=bool)
    for k, row in enumerate(zip(*rows)):
        try:
            out[k] = op(*row)
        except np.linalg.LinAlgError:
            failed[k] = True
    return out.reshape(stacks[-1].shape), failed


def spd_sqrt(m, tol: Tolerance = DEFAULT_TOL):
    """Symmetric positive-definite square root via eigendecomposition.

    Parameters
    ----------
    m : array_like
        Symmetric positive definite matrix.
    tol : Tolerance
        Symmetry is accepted when ``|m - m.T| <= rtol*|m| + atol``; positive
        definiteness requires every eigenvalue above ``tol.eigen_cut``, the
        cut at which ``signature_of`` counts an eigenvalue as zero.

    Returns
    -------
    ndarray
        Symmetric R with ``R @ R == m`` within ``rtol*|m| + atol``: where
        ``symmetric_eigen`` rescues the range, the root of ``m / 2**e``
        times ``2**(e/2)``.

    Raises
    ------
    InvalidInput
        ``m`` is not symmetric or not positive definite.
    """
    m = as_matrix(m, square=True)
    asym = fro(m - m.T)
    if not tol.accepts(asym, fro(m)):
        raise InvalidInput(f"asymmetry {asym:.3e} exceeds tolerance")
    (w, q), scale, cut = symmetric_eigen(m, tol, vectors=True)
    if w.min(initial=np.inf) <= cut:
        raise InvalidInput(f"smallest eigenvalue {w.min() * scale:.3e} <= {cut * scale:.3e}")
    return symmetric_part((q * np.sqrt(w)) @ q.T) * math.sqrt(scale)


def metric_adjoint(a, g):
    """Adjoint of ``a`` with respect to the inner product ``g``.

    Returns ``A* = g^{-1} a^T g`` so that ``g(A*u, v) = g(u, Av)`` for all
    u, v.  ``g`` must be symmetric positive definite; this is not re-checked
    here beyond shape (callers validate once and reuse).
    """
    a = as_matrix(a, square=True, name="a")
    g = as_matrix(g, square=True, name="g")
    if a.shape != g.shape:
        raise ShapeMismatch(f"operator {a.shape} vs metric {g.shape}")
    return np.linalg.solve(g, a.T @ g)


def kernel_and_image(a, tol: Tolerance = DEFAULT_TOL):
    """Orthonormal kernel and image bases plus the numerical rank.

    Singular values below ``atol + rtol * smax`` are treated as zero; where
    that threshold is out of range (``smax`` overflows), they are those of
    ``a / 2**e`` against the threshold at that scale (``_rescued``).

    Returns
    -------
    (kernel, image, rank)
        ``kernel`` has shape (cols, cols - rank), ``image`` has shape
        (rows, rank); both have orthonormal columns.
    """
    (u, s, vt), _, cut = _rescued(np.linalg.svd, as_matrix(a), tol, at=1)
    rank = int(np.sum(s > cut))
    return vt[rank:].T, u[:, :rank], rank


def _rescued(decide, m, tol: Tolerance, at=0):
    """``(out, scale, cut)``: ``out = decide(m / scale)``, whose entry
    ``at`` holds the eigen- or singular values ``w`` that a decision cuts,
    and ``cut = tol.eigen_cut(w, scale)``.  ``scale`` is 1.0, and ``m`` is
    not divided, unless that cut is inf, NaN or below the smallest normal on
    a nonzero ``m``; then it is ``_power_of_two(m)``.  It is the one retry
    of every eigenvalue and rank decision."""
    out, scale = decide(m), 1.0
    cut = tol.eigen_cut(out[at])
    if not _TINY <= cut < math.inf and np.any(m):
        scale = _power_of_two(m)
        out = decide(m / scale)
        cut = tol.eigen_cut(out[at], scale)
    return out, scale, cut


def kernel_and_complement(a, tol: Tolerance = DEFAULT_TOL):
    """Orthonormal bases of ker a and of its orthogonal complement."""
    kernel, _, _ = kernel_and_image(a, tol)
    complement, _, _ = kernel_and_image(kernel.T, tol)
    return kernel, complement


def involution_eigenbases(j, tol: Tolerance = DEFAULT_TOL):
    """Orthonormal bases of the +1 and -1 eigenspaces of an involution.

    They are the kernels of ``j - I`` and ``j + I``, so their column counts
    are ``n - rank(j - I)`` and ``n - rank(j + I)``: the signature of j.
    """
    eye = np.eye(j.shape[0])
    plus, _, _ = kernel_and_image(j - eye, tol)
    minus, _, _ = kernel_and_image(j + eye, tol)
    return plus, minus


def rank_of(a, tol: Tolerance = DEFAULT_TOL):
    """Numerical rank of a 2-D array: singular values above
    ``atol + rtol * smax`` (singular values only; 0 for an empty array),
    with ``kernel_and_image``'s range rescue."""
    (s,), _, cut = _rescued(lambda x: (np.linalg.svd(x, compute_uv=False),),
                            np.asarray(a, dtype=float), tol)
    return int(np.sum(s > cut))


def signature_of(g, tol: Tolerance = DEFAULT_TOL):
    """Eigenvalue sign counts (n_plus, n_minus, n_zero) of a symmetric matrix.

    Eigenvalues within ``tol.eigen_cut``, ``atol + rtol*max|eig|``, of zero
    count as zero, decided by ``symmetric_eigen``: where the eigenvalues of
    a finite g overflow, they are those of ``g / 2**e``, a positive multiple
    of g, which has g's signs.
    """
    (w, _), _, cut = symmetric_eigen(as_matrix(g, square=True), tol)
    n_plus, n_minus = int(np.sum(w > cut)), int(np.sum(w < -cut))
    return n_plus, n_minus, len(w) - n_plus - n_minus


def symmetric_eigen(m, tol: Tolerance = DEFAULT_TOL, vectors=False, basis=None):
    """``((w, q), scale, cut)``: the eigenvalues ``w`` of the symmetric part
    of the finite form ``m`` divided by ``scale`` (of ``basis.T @ m @
    basis``, its restriction to the span of ``basis``, when given), their
    eigenvectors ``q`` as columns when ``vectors`` (else None), and
    ``tol.eigen_cut`` of ``w`` at that scale.

    It is the one call of ``eigh``/``eigvalsh`` in the package, with the
    retry of ``_rescued``: ``scale`` is 1.0 unless the cut is out of range
    on a nonzero ``m`` (an eigenvalue, or the restricted form, overflows;
    or, under ``atol`` 0, the cut underflows), and then an even power of
    two, so the signs are ``m``'s and ``sqrt(scale)`` is exact.
    """
    def decide(x):
        f = symmetric_part(x if basis is None else basis.T @ x @ basis)
        if basis is not None and not np.isfinite(f).all():
            # a restricted form that overflows: LAPACK may not converge on it
            return np.full(len(f), math.nan), None
        return np.linalg.eigh(f) if vectors else (np.linalg.eigvalsh(f), None)
    return _rescued(decide, m, tol)


def symmetric_part(m):
    """(m + m^T) / 2, computed as ``0.5 * m + 0.5 * m.T``: it stays finite
    for every finite m, where ``0.5 * (m + m.T)`` overflows once entries
    pass about 9e307, and it has the same bits wherever that sum neither
    overflows nor leaves a subnormal."""
    return 0.5 * m + 0.5 * m.T
