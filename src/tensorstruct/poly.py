"""Small multivariate polynomials with exact differentiation, on term tables.

This is the exact derivative mode for chart fields: differentiation is
closed-form, so polynomial-mode oracles carry no finite-difference
truncation error.

``Poly(dim, coeffs)`` is the input record of one polynomial: float
coefficients keyed by exponent tuples of length ``dim``.  Its constructor
normalises them (exponents become tuples of ``int``, coefficients ``float``,
and zero coefficients are dropped; an exponent of another length raises
``ShapeMismatch``).  A ``Poly`` evaluates and differentiates but has no
arithmetic: every computation on polynomials runs on term tables.

A term table is three arrays ``(outputs, expos, values)``: term t is
``values[t] * x^expos[t]`` in polynomial ``outputs[t]``.  ``term_arrays``
flattens ``Poly`` objects to one, in their key order, and
``PolyArray.terms`` reads a compiled table back, by output and in monomial
order within each output.  ``derivative_terms`` is the one derivative rule
on term tables, d_v(c x^e) = c e_v x^(e - e_v), and ``sum_of_products`` the
one product rule: weighted sums of products of the polynomials of two
tables, folded as dict arithmetic folds them.  Pullback metrics, Lie
brackets and images of vector fields under matrix fields are built by it.

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
constant evaluates at points of any length.  Every table is compiled one
way, by ``PolyArray.from_terms``: ``PolyArray(polys)`` compiles
``term_arrays(polys)``, and ``PolyArray.partials`` compiles every first
partial of a table through ``derivative_terms``.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch

__all__ = ["Poly", "PolyArray", "derivative_terms", "sum_of_products", "term_arrays"]


def term_arrays(polys):
    """The term table ``(outputs, expos, values)`` of a list of
    polynomials: polynomial k is output k, and its terms come in its key
    order."""
    expos = [e for p in polys for e in p.coeffs]
    return (np.array([k for k, p in enumerate(polys) for _ in p.coeffs], dtype=int),
            np.array(expos, dtype=np.int64).reshape(len(expos), polys[0].dim if polys else 0),
            np.array([c for p in polys for c in p.coeffs.values()], dtype=float))


def derivative_terms(outputs, expos, values):
    """Every first partial of the polynomials of a term table: d_v of
    c x^e is c e_v x^(e - e_v), one term for each term and variable v with
    e_v > 0.  Returns ``(outputs, variables, expos, values)``, ordered by
    output, then variable, then input term: the key order of ``Poly.diff``
    when each polynomial's terms come in its key order.  A coefficient
    c e_v past the float range is inf, without a warning."""
    term, var = np.nonzero(expos > 0)  # by term, then variable
    order = np.lexsort((var, outputs[term]))  # stable: terms stay in order
    term, var = term[order], var[order]
    with np.errstate(over="ignore"):
        values = values[term] * expos[term, var]
    return outputs[term], var, expos[term] - np.eye(expos.shape[1], dtype=np.int64)[var], values


def sum_of_products(left, right, cases, size):
    """The ``PolyArray`` of ``size`` polynomials, each a weighted sum of
    products of a polynomial of the term table ``left`` and one of
    ``right``.  Both tables are sorted by output.  ``cases`` is
    ``(out, l, r, weight)``, sorted by ``out``: case c adds ``weight[c]``
    times the product of polynomial ``l[c]`` of ``left`` and polynomial
    ``r[c]`` of ``right`` to polynomial ``out[c]``.

    The floats are those of dict arithmetic.  Within a product, a left fold
    from 0.0 over its term pairs, row-major in the tables' term order, whose
    total of 0 drops the product's term; that times the weight; then a left
    fold over the cases in order, whose total of 0 drops the term.
    ``np.add.at`` adds in index order, so both are left folds.  A float past
    the range is inf, and an invalid one NaN, without a warning.  Raises
    OverflowError when a product's exponent exceeds the int64 range.
    """
    out, l, r, weight = cases
    (l_out, l_expos, l_values), (r_out, r_expos, r_values) = left, right
    l_start, r_start = np.searchsorted(l_out, l), np.searchsorted(r_out, r)
    width = np.searchsorted(r_out, r, side="right") - r_start
    counts = (np.searchsorted(l_out, l, side="right") - l_start) * width
    # every pair of terms of every case, in the order (case, left term,
    # right term)
    case = np.repeat(np.arange(len(counts)), counts)
    k = np.arange(len(case)) - np.repeat(np.cumsum(counts) - counts, counts)
    first = l_start[case] + k // width[case]
    second = r_start[case] + k % width[case]
    expos = l_expos[first] + r_expos[second]
    if (expos < 0).any():
        raise OverflowError("a product's exponent exceeds the int64 range")

    # sort by monomial, then case; stable, so each product's pairs keep
    # their order and each output's products come in case order
    order = np.lexsort((case, *expos.T[::-1]))
    expos, case = expos[order], case[order]
    entry = out[case]
    same = np.zeros(len(order), dtype=bool)
    same[1:] = (expos[1:] == expos[:-1]).all(axis=1)
    new_product = np.ones(len(order), dtype=bool)
    new_product[1:] = ~(same[1:] & (case[1:] == case[:-1]))
    new_term = np.ones(len(order), dtype=bool)
    new_term[1:] = ~(same[1:] & (entry[1:] == entry[:-1]))
    folded = np.zeros(np.count_nonzero(new_product))
    totals = np.zeros(np.count_nonzero(new_term))
    with np.errstate(over="ignore", invalid="ignore"):
        products = (l_values[first] * r_values[second])[order]
        np.add.at(folded, np.cumsum(new_product) - 1, products)
        kept = folded != 0.0
        np.add.at(totals, (np.cumsum(new_term) - 1)[new_product][kept],
                  folded[kept] * weight[case[new_product][kept]])
    survive = totals != 0.0
    return PolyArray.from_terms(entry[new_term][survive], expos[new_term][survive],
                                totals[survive], size)


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
    def from_terms(cls, outputs, expos, values, size):
        """The ``PolyArray`` of ``size`` polynomials given as a term table.
        No two terms may share exponents and output, and none may be
        zero."""
        compiled = cls.__new__(cls)
        compiled._compile(outputs, expos, values, size)
        return compiled

    def terms(self):
        """The table's terms ``(outputs, expos, values)``, by output and in
        monomial order within each output."""
        outputs, terms = np.nonzero(self._coeffs.T)
        return outputs, self._monomials[terms], self._coeffs[terms, outputs]

    def partials(self):
        """Every first partial, compiled: output ``i * size + k`` is d_i of
        polynomial k, for ``size`` polynomials in d variables."""
        size = self._coeffs.shape[1]
        outputs, var, expos, values = derivative_terms(*self.terms())
        return PolyArray.from_terms(var * size + outputs, expos, values,
                                    self._monomials.shape[1] * size)

    def _compile(self, outputs, expos, values, size):
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
    """sum_e coeffs[e] * x^e with e an exponent tuple of length ``dim``.

    A Poly is immutable once built: its compiled evaluator and its partial
    derivatives are computed on first use and kept.
    """

    __slots__ = ("dim", "coeffs", "_compiled", "_diffs")

    def __init__(self, dim, coeffs=None):
        self.dim = int(dim)
        self.coeffs = {}
        self._compiled = None
        self._diffs = {}
        for expo, c in (coeffs or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != self.dim:
                raise ShapeMismatch(f"exponent {expo} in a polynomial of {self.dim} variables")
            if c != 0.0:
                self.coeffs[expo] = float(c)

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

    def diff(self, index):
        """d_index of this polynomial, by ``derivative_terms`` (``index``
        counts as a sequence index does, so -1 is the last variable)."""
        cached = self._diffs.get(index)
        if cached is None:
            _, var, expos, values = derivative_terms(*term_arrays([self]))
            keep = var == range(self.dim)[index]
            cached = self._diffs[index] = Poly(self.dim, dict(
                zip(map(tuple, expos[keep].tolist()), values[keep].tolist())))
        return cached

    def __repr__(self):
        return f"Poly(dim={self.dim}, terms={len(self.coeffs)})"
