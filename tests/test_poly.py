"""Exact polynomial arithmetic against a reference that normalises every term.

``DictPoly`` keeps the dict arithmetic that ``Poly`` used before results
skipped re-normalisation: every intermediate goes through the normalising
constructor, and ``ref_pullback_metric`` builds each entry as a sum of
three-object ``Poly`` steps.  The properties require identical terms, with
the same coefficient bits in the same key order.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tensorstruct.calculus import PolyMap, pullback_endomorphism, pullback_metric
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


def terms(p):
    """Exponents, their types and coefficient bits, in key order."""
    return [(e, tuple(map(type, e)), struct.pack("<d", c)) for e, c in p.coeffs.items()]


def pair(dim, coeffs):
    return Poly(dim, coeffs), DictPoly(dim, coeffs)


# few distinct values, so sums and products cancel to exact zero; the tiny
# ones underflow to zero in products
COEFFS = st.sampled_from([1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 0.1, -0.1, 0.3, 3.0, 0.0,
                          1e-200, -1e-200])
SCALARS = st.sampled_from([0, 0.0, -0.0, 1, -3, 0.25, 1e-200, 1e300,
                           np.float64(0.0), np.float64(-0.7), np.int64(0), np.int64(2),
                           np.float32(1.5)])


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
def test_arithmetic_is_bit_identical_to_the_normalising_reference(data):
    dim = data.draw(st.integers(1, 3))
    p, rp = pair(dim, data.draw(polys(dim)))
    q, rq = pair(dim, data.draw(polys(dim)))
    assert terms(p) == terms(rp)
    s = data.draw(SCALARS)
    results = [(p + q, rp + rq), (p - q, rp - rq), (p - p, rp - rp), (p * q, rp * rq),
               (p * (q - p), rp * (rq - rp)), (-p, -rp), (p * s, rp * s), (s * p, s * rp),
               (p + s, rp + s), (s - p, s - rp), (p * q * s + p, rp * rq * s + rp)]
    results += [(p.diff(i), rp.diff(i)) for i in range(dim)]
    results += [((p * q).diff(i), (rp * rq).diff(i)) for i in range(dim)]
    for got, want in results:
        assert got.dim == want.dim
        assert terms(got) == terms(want)


def test_cancellation_to_exact_zero_drops_the_term_and_keeps_key_order():
    x, y = Poly.coordinate(2, 0), Poly.coordinate(2, 1)
    product = (x + y) * (x - y)
    assert list(product.coeffs) == [(2, 0), (0, 2)]
    assert list((product + x * y - x * y).coeffs) == [(2, 0), (0, 2)]
    assert (x - x).coeffs == {}
    assert (x * 0).coeffs == {} and (x * np.float64(-0.0)).coeffs == {}


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
    for i in range(dim):
        for j in range(dim):
            assert terms(field.polys[i][j]) == terms(want[i][j])


def test_pullback_metric_cancels_to_exact_zero_like_the_reference():
    # phi = (x + y, x - y) with g0 = diag(1, -1): g = [[0, 2], [2, 0]]
    comps = [{(1, 0): 1.0, (0, 1): 1.0}, {(1, 0): 1.0, (0, 1): -1.0}]
    g0 = np.diag([1.0, -1.0])
    field = pullback_metric(PolyMap([Poly(2, c) for c in comps]), g0)
    want = ref_pullback_metric([DictPoly(2, c) for c in comps], g0)
    assert field.polys[0][0].coeffs == {} and field.polys[1][1].coeffs == {}
    assert [terms(p) for row in field.polys for p in row] == [
        terms(p) for row in want for p in row]


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
