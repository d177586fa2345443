"""Dense real linear-algebra kernel with an explicit tolerance policy.

Everything downstream funnels its numerics through here: symmetric square
roots, adjoints with respect to a metric, and rank/kernel decisions.  All
operations are pure; matrices are plain ``numpy`` arrays of floats and are
never mutated.  ``batched`` is the one stacked ``np.linalg`` call that
falls back to one matrix at a time, to find the matrices it fails on.
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
    ``atol + rtol * max|w|`` (``eigen_cut``); residual checks accept
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

    def rank_threshold(self, smax):
        return self.atol + self.rtol * smax

    def eigen_cut(self, w):
        """The cut of every eigenvalue-sign decision on the eigenvalues
        ``w``: an eigenvalue within ``atol + rtol * max|w|`` of zero counts
        as zero.  It is not finite when some eigenvalue is not."""
        return self.rank_threshold(np.abs(w).max(initial=0.0))


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


def fro(a):
    """Frobenius norm: for float64 and integer input, the computation
    ``np.linalg.norm(a)`` makes, bit for bit, without its per-call dispatch,
    except where the sum of squares overflows.  For finite entries whose
    sum of squares passes the largest double (entries above about 1.3e154)
    it is the scaled norm ``m * sqrt(sum((x / m)**2))``, ``m = max|x|``,
    which stays finite up to a norm of about 1.8e308; entries holding an
    inf or a NaN still give inf or NaN."""
    x = np.asarray(a, dtype=float).ravel(order="K")
    d = x.dot(x)
    if d == math.inf and np.isfinite(x).all():
        m = float(np.abs(x).max())
        y = x / m
        return m * math.sqrt(y.dot(y))
    return math.sqrt(d)


def fro_each(stack):
    """``fro`` of each matrix of a ``(P, n, m)`` stack, bit for bit: one
    ``vecdot`` of the flattened matrices with themselves (the dot ``fro``
    takes, row by row), and ``fro`` itself on the rows whose norm comes out
    infinite, looked for only when some norm is infinite."""
    stack = np.asarray(stack, dtype=float)
    p, n, m = stack.shape
    rows = stack.reshape(p, n * m)
    out = np.sqrt(np.vecdot(rows, rows))
    if math.inf in out.tolist():
        for k in np.flatnonzero(out == math.inf):
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
        Symmetric R with ``R @ R == m`` within ``rtol*|m| + atol``.

    Raises
    ------
    InvalidInput
        ``m`` is not symmetric or not positive definite.
    """
    m = as_matrix(m, square=True)
    asym = fro(m - m.T)
    if not tol.accepts(asym, fro(m)):
        raise InvalidInput(f"asymmetry {asym:.3e} exceeds tolerance")
    w, q = np.linalg.eigh(symmetric_part(m))
    cut = tol.eigen_cut(w)
    if w.min(initial=np.inf) <= cut:
        raise InvalidInput(f"smallest eigenvalue {w.min():.3e} <= {cut:.3e}")
    return symmetric_part((q * np.sqrt(w)) @ q.T)


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

    Singular values below ``atol + rtol * smax`` are treated as zero.

    Returns
    -------
    (kernel, image, rank)
        ``kernel`` has shape (cols, cols - rank), ``image`` has shape
        (rows, rank); both have orthonormal columns.
    """
    a = as_matrix(a)
    u, s, vt = np.linalg.svd(a)
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > tol.rank_threshold(smax)))
    kernel = vt[rank:].T
    image = u[:, :rank]
    return kernel, image, rank


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
    ``atol + rtol * smax`` (singular values only; 0 for an empty array)."""
    if np.size(a) == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(s > tol.rank_threshold(s[0])))


def signature_of(g, tol: Tolerance = DEFAULT_TOL):
    """Eigenvalue sign counts (n_plus, n_minus, n_zero) of a symmetric matrix.

    Eigenvalues within ``tol.eigen_cut``, ``atol + rtol*max|eig|``, of zero
    count as zero.  When the largest eigenvalue overflows (a finite g with
    entries near the largest double), the eigenvalues are those of
    ``g / max|g|``, a positive multiple of g, which has g's signs.
    """
    g = as_matrix(g, square=True)
    w = np.linalg.eigvalsh(symmetric_part(g))
    cut = tol.eigen_cut(w)
    if not math.isfinite(cut):
        w = np.linalg.eigvalsh(symmetric_part(g / np.abs(g).max()))
        cut = tol.eigen_cut(w)
    n_plus = int(np.sum(w > cut))
    n_minus = int(np.sum(w < -cut))
    return n_plus, n_minus, g.shape[0] - n_plus - n_minus


def symmetric_part(m):
    """(m + m^T) / 2, computed as ``0.5 * m + 0.5 * m.T``: it stays finite
    for every finite m, where ``0.5 * (m + m.T)`` overflows once entries
    pass about 9e307, and it has the same bits wherever that sum neither
    overflows nor leaves a subnormal."""
    return 0.5 * m + 0.5 * m.T
