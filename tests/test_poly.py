"""Polynomial products and derivatives against dict arithmetic.

``DictPoly`` keeps the dict arithmetic that ``Poly`` once had, with every
intermediate going through the normalising constructor, and
``ref_pullback_metric``, ``ref_bracket`` and ``ref_image`` build each entry
as a sum of ``DictPoly`` steps.  ``Poly.diff`` must give ``DictPoly.diff``'s
terms, with the same coefficient bits in the same key order.  Pullback
metrics, Lie brackets and images, built by ``poly.sum_of_products``, must
compile to the same monomials and coefficient bytes as the reference
entries: for brackets and images when each operand's terms come in monomial
order, the order the fold takes them in.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tensorstruct.calculus import (
    PolyMap,
    TensorFieldOnChart,
    VectorField,
    lie_bracket,
    pullback_endomorphism,
    pullback_metric,
)
from tensorstruct.poly import Poly, PolyArray


class DictPoly:
    """The reference: sum_e coeffs[e] * x^e, every result normalised."""

    def __init__(self, dim, coeffs=None):
        self.dim = int(dim)
        self.coeffs = {}
        self._diffs = {}
        if coeffs:
            for expo, c in coeffs.items():
                if c != 0.0:
                    self.coeffs[tuple(int(e) for e in expo)] = float(c)

    @classmethod
    def constant(cls, dim, value):
        return cls(dim, {(0,) * dim: float(value)})

    def _binary(self, other, sign):
        if not isinstance(other, DictPoly):
            other = DictPoly.constant(self.dim, other)
        out = dict(self.coeffs)
        for expo, c in other.coeffs.items():
            out[expo] = out.get(expo, 0.0) + sign * c
        return DictPoly(self.dim, out)

    def __add__(self, other):
        return self._binary(other, 1.0)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return DictPoly(self.dim, {e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, DictPoly):
            return DictPoly(self.dim, {e: c * float(other) for e, c in self.coeffs.items()})
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                out[expo] = out.get(expo, 0.0) + c1 * c2
        return DictPoly(self.dim, out)

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
        self._diffs[index] = DictPoly(self.dim, out)
        return self._diffs[index]


def ref_pullback_metric(components, g0):
    """Entries of DPhi^T G0 DPhi, summed one DictPoly step at a time."""
    g0 = np.asarray(g0, dtype=float)
    dim = components[0].dim
    jac = [[p.diff(j) for j in range(dim)] for p in components]
    entries = [[DictPoly(dim) for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            acc = DictPoly(dim)
            for a in range(dim):
                for b in range(dim):
                    if g0[a, b]:
                        acc = acc + jac[a][i] * jac[b][j] * g0[a, b]
            entries[i][j] = acc
    return entries


def ref_bracket(xs, ys):
    """Components of [X, Y]: sum_j d_j Y_i X_j - d_j X_i Y_j, step by step."""
    dim = len(xs)
    out = []
    for i in range(dim):
        acc = DictPoly(dim)
        for j in range(dim):
            acc = acc + ys[i].diff(j) * xs[j]
            acc = acc - xs[i].diff(j) * ys[j]
        out.append(acc)
    return out


def ref_image(ts, xs):
    """Components of T X: sum_j T_ij X_j, step by step."""
    dim = len(xs)
    out = []
    for i in range(dim):
        acc = DictPoly(dim)
        for j in range(dim):
            acc = acc + ts[i][j] * xs[j]
        out.append(acc)
    return out


def terms(p):
    """Exponents, their types and coefficient bits, in key order."""
    return [(e, tuple(map(type, e)), struct.pack("<d", c)) for e, c in p.coeffs.items()]


def assert_same_table(got, entries):
    """``got`` compiles to the monomials and coefficient bytes of the
    ``PolyArray`` of the reference ``entries``."""
    want = PolyArray(entries)
    assert got._monomials.shape == want._monomials.shape
    assert np.array_equal(got._monomials, want._monomials)
    assert got._coeffs.shape == want._coeffs.shape
    assert got._coeffs.tobytes() == want._coeffs.tobytes()


# few distinct values, so sums and products cancel to exact zero; the tiny
# ones underflow to zero in products
COEFFS = st.sampled_from([1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 0.1, -0.1, 0.3, 3.0, 0.0,
                          1e-200, -1e-200])


@st.composite
def polys(draw, dim, degree=3, max_terms=6):
    """A term dict with exponents up to ``degree``, some of them numpy ints."""
    expo = st.tuples(*[st.integers(0, degree)] * dim)
    raw = draw(st.dictionaries(expo, COEFFS, max_size=max_terms))
    if draw(st.booleans()):
        raw = {tuple(np.int64(e) for e in k): np.float64(c) for k, c in raw.items()}
    return raw


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_diff_is_bit_identical_to_the_reference(data):
    dim = data.draw(st.integers(1, 3))
    raw = data.draw(polys(dim))
    p, rp = Poly(dim, raw), DictPoly(dim, raw)
    assert terms(p) == terms(rp)
    for i in range(dim):
        assert p.diff(i).dim == dim
        assert terms(p.diff(i)) == terms(rp.diff(i))
    assert terms(p.diff(-1)) == terms(rp.diff(dim - 1))
    assert p.diff(0) is p.diff(0)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_brackets_and_images_are_bit_identical_to_the_reference(data):
    dim = data.draw(st.integers(1, 3))

    def operands(count):
        # each one's terms in monomial order
        raws = [dict(sorted(data.draw(polys(dim)).items())) for _ in range(count)]
        return [Poly(dim, r) for r in raws], [DictPoly(dim, r) for r in raws]

    (xs, rxs), (ys, rys), (ts, rts) = operands(dim), operands(dim), operands(dim * dim)
    x, y = VectorField.from_polys(xs), VectorField.from_polys(ys)
    t = TensorFieldOnChart.from_polys([ts[i * dim:(i + 1) * dim] for i in range(dim)],
                                      "1,1")
    assert_same_table(lie_bracket(x, y).values, ref_bracket(rxs, rys))
    assert_same_table(t.apply(x).values,
                      ref_image([rts[i * dim:(i + 1) * dim] for i in range(dim)], rxs))


def test_a_product_exponent_past_the_int64_range_raises():
    # [X, Y] = 2**40 x^(2**63 + 2**40 - 1), an exponent that int64 wraps
    x = VectorField.from_polys([Poly(1, {(2**62,): 1.0})])
    y = VectorField.from_polys([Poly(1, {(2**62 + 2**40,): 1.0})])
    with pytest.raises(OverflowError):
        lie_bracket(x, y)


@st.composite
def cubic_maps(draw):
    """Cubic maps whose products cancel in places, and a symmetric g0 that
    is often not diagonal and often indefinite."""
    dim = draw(st.integers(1, 3))
    comps = []
    for i in range(dim):
        raw = draw(polys(dim, degree=3, max_terms=5))
        linear = tuple(int(k == i) for k in range(dim))
        raw[linear] = raw.get(linear, 0.0) + 1.0
        comps.append(raw)
    entries = st.sampled_from([0.0, 1.0, -1.0, 0.5, -0.3, 2.0, 1e-200])
    g0 = np.array([[draw(entries) for _ in range(dim)] for _ in range(dim)])
    return dim, comps, g0 + g0.T


@settings(max_examples=120, deadline=None)
@given(case=cubic_maps())
def test_pullback_metric_is_bit_identical_to_the_step_by_step_sum(case):
    dim, comps, g0 = case
    field = pullback_metric(PolyMap([Poly(dim, c) for c in comps]), g0)
    want = ref_pullback_metric([DictPoly(dim, c) for c in comps], g0)
    assert_same_table(field.values, [p for row in want for p in row])


def test_pullback_metric_cancels_to_exact_zero_like_the_reference():
    # phi = (x + y, x - y) with g0 = diag(1, -1): g = [[0, 2], [2, 0]]
    comps = [{(1, 0): 1.0, (0, 1): 1.0}, {(1, 0): 1.0, (0, 1): -1.0}]
    g0 = np.diag([1.0, -1.0])
    field = pullback_metric(PolyMap([Poly(2, c) for c in comps]), g0)
    want = ref_pullback_metric([DictPoly(2, c) for c in comps], g0)
    assert field.values.terms()[0].tolist() == [1, 2]  # g_00 and g_11 have no terms
    assert_same_table(field.values, [p for row in want for p in row])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_poly_array_fills_the_coefficient_matrix_like_the_per_term_loop(data):
    dim = data.draw(st.integers(1, 3))
    polys_ = [Poly(dim, data.draw(polys(dim))) for _ in range(data.draw(st.integers(0, 4)))]
    compiled = PolyArray(polys_)
    monomials = sorted({e for p in polys_ for e in p.coeffs})
    want = np.zeros((len(monomials), len(polys_)))
    for out, p in enumerate(polys_):
        for expo, c in p.coeffs.items():
            want[monomials.index(expo), out] = c
    assert compiled._coeffs.tobytes() == want.tobytes()
    assert compiled._coeffs.shape == want.shape
    x = np.full((2, dim), 0.5)
    assert compiled(x).shape == (2, len(polys_))


def test_poly_maps_compile_only_what_is_evaluated():
    phi = PolyMap([Poly(2, {(1, 0): 1.0, (0, 2): 0.1}), Poly(2, {(0, 1): 1.0})])
    pullback_metric(phi, np.eye(2))
    assert "_values" not in vars(phi) and "_jac_values" not in vars(phi)
    field = pullback_endomorphism(phi, [[0.0, 1.0], [1.0, 0.0]])
    field(np.zeros((3, 2)))
    assert "_values" not in vars(phi) and "_jac_values" in vars(phi)
    assert phi(np.array([1.0, 2.0])).tolist() == [1.4, 2.0]
    assert "_values" in vars(phi)



@pytest.mark.parametrize("method", ["__call__", "diff"])
def test_traced_methods_live_on_poly(method):
    # bench/tracing.py wraps these by name on the class
    assert method in Poly.__dict__
