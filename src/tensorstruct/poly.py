"""Small multivariate polynomials with exact differentiation.

Coefficients are floats keyed by exponent tuples.  This is the exact
derivative mode for chart fields: differentiation is closed-form, so
polynomial-mode oracles carry no finite-difference truncation error.

Only the public constructor ``Poly(dim, coeffs)`` normalises its input:
exponents become tuples of ``int``, coefficients ``float``, and zero
coefficients are dropped.  Arithmetic and ``diff`` combine terms that are
already normal, so their results go through ``Poly._of``, which only drops
zero coefficients.  Every coefficient is the same float sum, in the same
order, as normalising would give, and the dict keeps the same key order, so
results are bit-identical to normalising every intermediate.

Evaluation is compiled: a ``PolyArray`` holds the union of the monomials of
several polynomials as an exponent matrix and their coefficients as one
``(terms, outputs)`` matrix, and evaluates a whole ``(..., d)`` array of
points in one numpy expression.  Only the variables that occur in some
exponent are read, so a constant evaluates at points of any length.
"""

from __future__ import annotations

from operator import add

import numpy as np

__all__ = ["Poly", "PolyArray"]


class PolyArray:
    """Several polynomials on one chart, evaluated together.

    ``PolyArray(polys)(points)`` has shape ``points.shape[:-1] + (len(polys),)``.
    """

    __slots__ = ("_vars", "_expos", "_coeffs")

    def __init__(self, polys):
        polys = list(polys)
        monomials = sorted({e for p in polys for e in p.coeffs})
        index = {e: t for t, e in enumerate(monomials)}
        self._coeffs = np.zeros((len(monomials), len(polys)))
        terms = [(index[expo], out, c)
                 for out, p in enumerate(polys) for expo, c in p.coeffs.items()]
        if terms:
            rows, outs, values = zip(*terms)
            self._coeffs[rows, outs] = values
        expos = np.array(monomials, dtype=int) if monomials else np.zeros((0, 0), int)
        self._vars = np.flatnonzero(expos.any(axis=0))
        self._expos = expos[:, self._vars]

    def __call__(self, points):
        x = np.asarray(points, dtype=float)
        # (..., terms): every monomial at every point
        monomials = np.prod(x[..., None, self._vars] ** self._expos, axis=-1)
        return monomials @ self._coeffs


class Poly:
    """sum_e coeffs[e] * x^e with e an exponent tuple of fixed length.

    A Poly is immutable once built: its compiled evaluator and its partial
    derivatives are computed on first use and kept.
    """

    __slots__ = ("dim", "coeffs", "_compiled", "_diffs")

    def __init__(self, dim, coeffs=None):
        self.dim = int(dim)
        self.coeffs = {}
        self._compiled = None
        self._diffs = {}
        if coeffs:
            for expo, c in coeffs.items():
                if c != 0.0:
                    self.coeffs[tuple(int(e) for e in expo)] = float(c)

    @classmethod
    def _of(cls, dim, coeffs):
        """A Poly of normal terms (``int`` exponent tuples, ``float``
        coefficients, as arithmetic produces them); only zeros are dropped."""
        p = cls.__new__(cls)
        p.dim = dim
        p.coeffs = {e: c for e, c in coeffs.items() if c != 0.0}
        p._compiled = None
        p._diffs = {}
        return p

    @classmethod
    def constant(cls, dim, value):
        return cls(dim, {(0,) * dim: float(value)})

    @classmethod
    def coordinate(cls, dim, index):
        expo = [0] * dim
        expo[index] = 1
        return cls(dim, {tuple(expo): 1.0})

    def __call__(self, x):
        """Value at one point (a scalar) or at each row of a (..., d) array."""
        if self._compiled is None:
            self._compiled = PolyArray([self])
        return self._compiled(np.atleast_1d(np.asarray(x, dtype=float)))[..., 0]

    def _binary(self, other, sign):
        if not isinstance(other, Poly):
            other = Poly.constant(self.dim, other)
        out = dict(self.coeffs)
        for expo, c in other.coeffs.items():
            out[expo] = out.get(expo, 0.0) + sign * c
        return Poly._of(self.dim, out)

    def __add__(self, other):
        return self._binary(other, 1.0)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Poly._of(self.dim, {e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, Poly):
            scale = float(other)
            return Poly._of(self.dim, {e: c * scale for e, c in self.coeffs.items()})
        out = {}
        get, terms = out.get, list(other.coeffs.items())
        for e1, c1 in self.coeffs.items():
            for e2, c2 in terms:
                expo = tuple(map(add, e1, e2))
                out[expo] = get(expo, 0.0) + c1 * c2
        return Poly._of(self.dim, out)

    __rmul__ = __mul__

    def diff(self, index):
        cached = self._diffs.get(index)
        if cached is not None:
            return cached
        out = {}
        for expo, c in self.coeffs.items():
            e = expo[index]
            if e:
                new = list(expo)
                new[index] = e - 1
                key = tuple(new)
                out[key] = out.get(key, 0.0) + c * e
        self._diffs[index] = Poly._of(self.dim, out)
        return self._diffs[index]

    def __repr__(self):
        return f"Poly(dim={self.dim}, terms={len(self.coeffs)})"
