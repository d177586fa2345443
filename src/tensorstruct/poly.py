"""Small multivariate polynomials with exact differentiation.

Coefficients are floats keyed by exponent tuples.  This is the exact
derivative mode for chart fields: differentiation is closed-form, so
polynomial-mode oracles carry no finite-difference truncation error.

Evaluation is compiled: a ``PolyArray`` holds the union of the monomials of
several polynomials as an exponent matrix and their coefficients as one
``(terms, outputs)`` matrix, and evaluates a whole ``(..., d)`` array of
points in one numpy expression.  Only the variables that occur in some
exponent are read, so a constant evaluates at points of any length.
"""

from __future__ import annotations

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
        for out, p in enumerate(polys):
            for expo, c in p.coeffs.items():
                self._coeffs[index[expo], out] = c
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
        return Poly(self.dim, out)

    def __add__(self, other):
        return self._binary(other, 1.0)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Poly(self.dim, {e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly(self.dim, {e: c * float(other) for e, c in self.coeffs.items()})
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                out[expo] = out.get(expo, 0.0) + c1 * c2
        return Poly(self.dim, out)

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
        self._diffs[index] = Poly(self.dim, out)
        return self._diffs[index]

    def __repr__(self):
        return f"Poly(dim={self.dim}, terms={len(self.coeffs)})"
