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
constant evaluates at points of any length.

Every table is compiled one way, from terms given as arrays
(``term_arrays`` flattens ``Poly`` objects to them, and a pullback
metric's coefficient table holds them): ``PolyArray(polys)`` is
``PolyArray.from_terms`` of their terms.  ``derivative_terms`` is the one
derivative rule on term arrays, d_v(c x^e) = c e_v x^(e - e_v), and
``PolyArray.partials`` compiles every first partial of a table through it.
The partials have the bits of the table compiled from ``Poly.diff``.
"""

from __future__ import annotations

from operator import add

import numpy as np

__all__ = ["Poly", "PolyArray", "derivative_terms", "term_arrays"]


def term_arrays(polys):
    """The terms of a list of polynomials as arrays ``(expos, outputs,
    values)``: term t is ``values[t] * x^expos[t]`` in polynomial
    ``outputs[t]``, and each polynomial's terms come in its key order."""
    expos = [e for p in polys for e in p.coeffs]
    return (np.array(expos, dtype=np.int64).reshape(len(expos), polys[0].dim if polys else 0),
            np.array([k for k, p in enumerate(polys) for _ in p.coeffs], dtype=int),
            np.array([c for p in polys for c in p.coeffs.values()], dtype=float))


def derivative_terms(expos, outputs, values):
    """Every first partial of polynomials given as term arrays (as
    ``term_arrays`` gives them): d_v of c x^e is c e_v x^(e - e_v), one term
    for each term and variable v with e_v > 0.  Returns ``(outputs,
    variables, expos, values)``, ordered by output, then variable, then
    input term: the key order of ``Poly.diff`` when each polynomial's terms
    come in its key order.  A coefficient c e_v past the float range is
    inf, as ``Poly.diff`` makes it, without a warning."""
    term, var = np.nonzero(expos > 0)  # by term, then variable
    order = np.lexsort((var, outputs[term]))  # stable: terms stay in order
    term, var = term[order], var[order]
    with np.errstate(over="ignore"):
        values = values[term] * expos[term, var]
    return outputs[term], var, expos[term] - np.eye(expos.shape[1], dtype=np.int64)[var], values


class PolyArray:
    """Several polynomials on one chart, evaluated together.

    ``PolyArray(polys)(points)`` has shape ``points.shape[:-1] + (len(polys),)``.
    """

    __slots__ = ("_monomials", "_vars", "_expos", "_coeffs", "_bases", "_exponents",
                 "_gather")

    def __init__(self, polys):
        polys = list(polys)
        self._compile(*term_arrays(polys), len(polys))

    @classmethod
    def from_terms(cls, expos, outputs, values, size):
        """The ``PolyArray`` of ``size`` polynomials whose terms are given
        as arrays: term t is ``values[t] * x^expos[t]`` in polynomial
        ``outputs[t]``.  No two terms may share exponents and output, and
        none may be zero."""
        compiled = cls.__new__(cls)
        compiled._compile(expos, outputs, values, size)
        return compiled

    def partials(self):
        """Every first partial, compiled: output ``i * size + k`` is d_i of
        polynomial k, for ``size`` polynomials in d variables."""
        terms, outputs = np.nonzero(self._coeffs)
        size = self._coeffs.shape[1]
        outputs, var, expos, values = derivative_terms(self._monomials[terms], outputs,
                                                       self._coeffs[terms, outputs])
        return PolyArray.from_terms(expos, var * size + outputs, values,
                                    self._monomials.shape[1] * size)

    def _compile(self, expos, outputs, values, size):
        """Sort the terms by exponents into the full exponent matrix
        ``_monomials`` and the ``(terms, size)`` coefficient matrix, keep
        the used variables' columns and lay out the power table of
        ``__call__``."""
        order = np.lexsort(expos.T[::-1]) if expos.shape[1] else np.arange(len(expos))
        expos = expos[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = (expos[1:] != expos[:-1]).any(axis=1)
        self._coeffs = np.zeros((np.count_nonzero(new), size))
        self._coeffs[np.cumsum(new) - 1, outputs[order]] = values[order]
        expos = self._monomials = expos[new]
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
