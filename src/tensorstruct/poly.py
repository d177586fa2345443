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
points from a power table.  The table has a column of 1.0 for exponent 0,
the column x_v for exponent 1, and one column x_v ** e for each distinct
exponent e >= 2 of a variable (indexed by position, since exponents reach
2**62); only those go through ``np.power``.  Each monomial multiplies its
gathered factors in variable order, and one matrix product with the
coefficients gives every polynomial at every point.  The floats are those
of ``prod(x ** expos, axis=-1) @ coeffs``, bit for bit except for the sign
of a NaN.  Only the variables that occur in some exponent are read, so a
constant evaluates at points of any length.  ``PolyArray.from_terms``
compiles terms given as arrays, as a pullback metric's coefficient table
holds them.
"""

from __future__ import annotations

from operator import add

import numpy as np

__all__ = ["Poly", "PolyArray"]


class PolyArray:
    """Several polynomials on one chart, evaluated together.

    ``PolyArray(polys)(points)`` has shape ``points.shape[:-1] + (len(polys),)``.
    """

    __slots__ = ("_vars", "_expos", "_coeffs", "_bases", "_exponents", "_gather")

    def __init__(self, polys):
        polys = list(polys)
        monomials = sorted({e for p in polys for e in p.coeffs})
        index = {e: t for t, e in enumerate(monomials)}
        coeffs = np.zeros((len(monomials), len(polys)))
        terms = [(index[expo], out, c)
                 for out, p in enumerate(polys) for expo, c in p.coeffs.items()]
        if terms:
            rows, outs, values = zip(*terms)
            coeffs[rows, outs] = values
        expos = np.array(monomials, dtype=int) if monomials else np.zeros((0, 0), int)
        self._compile(expos, coeffs)

    @classmethod
    def from_terms(cls, expos, outputs, values, size):
        """The ``PolyArray`` of ``size`` polynomials whose terms are given
        as arrays: term t is ``values[t] * x^expos[t]`` in polynomial
        ``outputs[t]``.  No two terms may share exponents and output, and
        none may be zero; then it equals ``PolyArray`` of those polynomials,
        bit for bit."""
        order = np.lexsort(expos.T[::-1])
        expos = expos[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = (expos[1:] != expos[:-1]).any(axis=1)
        coeffs = np.zeros((np.count_nonzero(new), size))
        coeffs[np.cumsum(new) - 1, outputs[order]] = values[order]
        compiled = cls.__new__(cls)
        compiled._compile(expos[new], coeffs)
        return compiled

    def _compile(self, expos, coeffs):
        """Keep the used variables' columns of the sorted exponent matrix
        ``expos`` and lay out the power table of ``__call__``."""
        self._coeffs = coeffs
        self._vars = np.flatnonzero(expos.any(axis=0))
        expos = self._expos = expos[:, self._vars]
        # table columns: 0 is 1.0 (exponent 0), 1 + v is x_v (exponent 1),
        # then x_v ** e for each distinct (v, e) with e >= 2, by (v, e);
        # _gather[v, t] is the column of variable v's factor in term t (with
        # no variable, one row of 1.0 factors)
        nv = expos.shape[1]
        self._gather = (np.where(expos.T == 0, 0, np.arange(1, nv + 1)[:, None]) if nv
                        else np.zeros((1, len(expos)), dtype=int))
        self._bases = self._exponents = None
        terms, cols = np.nonzero(expos >= 2)
        if not terms.size:
            return
        powers = expos[terms, cols]
        order = np.lexsort((powers, cols))
        terms, cols, powers = terms[order], cols[order], powers[order]
        new = np.ones(powers.size, dtype=bool)
        new[1:] = (cols[1:] != cols[:-1]) | (powers[1:] != powers[:-1])
        self._gather[cols, terms] = nv + np.cumsum(new)
        self._bases, self._exponents = self._vars[cols[new]], powers[new].astype(float)
        # numpy's power squares by x * x when the exponent is constant along
        # its inner loop, which ``x ** expos`` meets only for one monomial in
        # one variable: a 0-d exponent keeps that case, and a second copy of
        # a lone column keeps every other case on the general power loop
        if self._exponents.size == 1 and expos.shape == (1, 1):
            self._exponents = self._exponents.reshape(())
        elif self._exponents.size == 1:
            self._bases, self._exponents = self._bases.repeat(2), self._exponents.repeat(2)

    def __call__(self, points):
        x = np.asarray(points, dtype=float)
        columns = [np.ones(x.shape[:-1] + (1,)), x[..., self._vars]]
        if self._bases is not None:
            columns.append(np.power(x[..., self._bases], self._exponents))
        table = np.concatenate(columns, axis=-1)
        # (..., terms): every monomial at every point, its factors multiplied
        # in variable order, as np.prod over them does
        monomials = np.take(table, self._gather[0], axis=-1)
        for column in self._gather[1:]:
            monomials = monomials * np.take(table, column, axis=-1)
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
