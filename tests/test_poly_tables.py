"""Compiled polynomials against the kernels they replace.

``reference`` is the evaluation kernel ``PolyArray`` used before power
tables, verbatim: one ``**`` over the ``(..., terms, vars)`` broadcast of
the points against the exponent matrix.  The power table must give the same
bytes, with one exception: the sign of a NaN.  numpy's product reduction
returns one operand's NaN or the other's depending on the memory layout of
its input, and the two kernels lay their factors out differently; every
output writes a NaN alike, so the comparison takes each NaN for any NaN.

A pullback metric compiles its values from the table ``poly.sum_of_products``
builds, and every table compiles its partials through
``poly.derivative_terms``; they must equal the ``PolyArray`` compiled from
the entries of the step-by-step reference of ``tests/test_poly.py`` and
from their ``diff`` partials.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from tensorstruct.calculus import PolyMap, pullback_metric
from tensorstruct.poly import Poly, PolyArray

from test_poly import DictPoly, ref_pullback_metric

COMPILED = ("_monomials", "_vars", "_expos", "_coeffs", "_bases", "_exponents", "_gather")


def reference(compiled, points):
    """``PolyArray.__call__`` before power tables."""
    x = np.asarray(points, dtype=float)
    # (..., terms): every monomial at every point
    monomials = np.prod(x[..., None, compiled._vars] ** compiled._expos, axis=-1)
    return monomials @ compiled._coeffs


def assert_same_bits(got, want):
    """Equal shapes and bytes, a NaN standing for any NaN."""
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def assert_same_compiled(got, want):
    for name in COMPILED:
        a, b = getattr(got, name), getattr(want, name)
        if a is None or b is None:
            assert a is b, name
        else:
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


EXPONENTS = st.one_of(st.integers(0, 5), st.sampled_from([2**62, 2**62 - 1, 2**40 + 1]))
COEFFS = st.one_of(st.sampled_from([1.0, -1.0, 0.5, 3.0, 1e-300, 1e300]),
                   st.floats(-1e3, 1e3, allow_nan=False))
SPECIAL = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308,
           -1.0, 1.0]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(-4.0, 4.0),
                   st.floats(allow_nan=True, allow_infinity=True))
LEADING = st.sampled_from([(), (1,), (2,), (7,), (1, 1), (2, 3), (3, 1, 2), (20,)])


@st.composite
def poly_lists(draw):
    """0-4 polynomials in 1-4 variables: constants, empty polynomials and
    exponents up to 2**62 among them."""
    dim = draw(st.integers(1, 4))
    constant = draw(st.booleans()) and draw(st.booleans())
    expo = (st.just((0,) * dim) if constant
            else st.tuples(*[EXPONENTS] * dim))
    return dim, [Poly(dim, draw(st.dictionaries(expo, COEFFS, max_size=6)))
                 for _ in range(draw(st.integers(0, 4)))]


@st.composite
def poly_arrays(draw):
    """The PolyArray of a ``poly_lists`` draw."""
    dim, polys = draw(poly_lists())
    return dim, PolyArray(polys)


@st.composite
def points(draw, dim):
    """Points of a drawn leading shape, sometimes a broadcast view of one
    row or of one value."""
    shape = draw(LEADING) + (dim,)
    how = draw(st.sampled_from(["full", "row", "value"]))
    if how == "value":
        return np.broadcast_to(draw(VALUES), shape)
    if how == "row":
        row = np.array(draw(st.lists(VALUES, min_size=dim, max_size=dim)))
        return np.broadcast_to(row, shape)
    size = int(np.prod(shape))
    return np.array(draw(st.lists(VALUES, min_size=size, max_size=size))).reshape(shape)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_power_tables_evaluate_like_the_broadcast_kernel(data):
    dim, compiled = data.draw(poly_arrays())
    x = data.draw(points(dim))
    with np.errstate(all="ignore"):
        assert_same_bits(compiled(x), reference(compiled, x))


def test_power_tables_evaluate_like_the_broadcast_kernel_on_random_draws():
    # dense random coefficients and points, where a sum taken in another
    # order, or over another memory layout, shows in the last bits
    rng = np.random.default_rng(2024)
    for _ in range(3000):
        dim = int(rng.integers(1, 5))
        polys = []
        for _ in range(rng.integers(1, 4)):
            expos = rng.integers(0, 4, (rng.integers(1, 12), dim))
            polys.append(Poly(dim, {tuple(e): rng.normal() for e in expos.tolist()}))
        compiled = PolyArray(polys)
        shape = [(), (1,), (int(rng.integers(2, 40)),), (2, 3), (3, 1, 2)][rng.integers(0, 5)]
        x = rng.normal(size=shape + (dim,))
        assert_same_bits(compiled(x), reference(compiled, x))


def test_a_lone_square_keeps_the_bits_of_its_evaluation_path():
    # numpy squares by x * x where the exponent is constant along its inner
    # loop, and the general power loop differs from x * x on some inputs:
    # a lone monomial x^2 takes the first path, x^2 + y the second
    x = np.random.default_rng(5).uniform(-2.0, 2.0, (4000, 2))
    for terms in ({(2, 0): 1.0}, {(2, 0): 1.0, (0, 1): 1.0}, {(2, 0): 1.0, (2, 1): 1.0}):
        compiled = PolyArray([Poly(2, terms)])
        assert_same_bits(compiled(x), reference(compiled, x))
        for row in x[:400]:
            assert_same_bits(compiled(row), reference(compiled, row))


# few distinct values, so sums and products cancel to exact zero; the tiny
# ones underflow to zero in products and the huge ones overflow
MAP_COEFFS = st.sampled_from([1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 0.1, -0.1, 0.3, 3.0,
                              1e-200, 1e200])


@st.composite
def maps(draw):
    """Maps of degree up to 3 in 1-4 variables, one of them sometimes with
    exponents near 2**61, and a constant metric that is often not diagonal,
    not symmetric or indefinite."""
    dim = draw(st.integers(1, 4))
    expo = st.tuples(*[st.integers(0, 3)] * dim)
    comps = [draw(st.dictionaries(expo, MAP_COEFFS, max_size=5)) for _ in range(dim)]
    if draw(st.booleans()):
        comps[0][(2**61,) + (1,) * (dim - 1)] = 1.0
    entries = st.sampled_from([0.0, 1.0, -1.0, 0.5, -0.3, 2.0, 1e-200, 1e300])
    g0 = np.array([[draw(entries) for _ in range(dim)] for _ in range(dim)])
    return dim, [Poly(dim, c) for c in comps], g0


@settings(max_examples=200, deadline=None)
@given(case=maps(), seed=st.integers(0, 2**32 - 1))
def test_pullback_metrics_compile_their_table_like_their_polys(case, seed):
    dim, comps, g0 = case
    with np.errstate(all="ignore"):
        field = pullback_metric(PolyMap(comps), g0)
        entries = [p for row in ref_pullback_metric([DictPoly(dim, p.coeffs) for p in comps], g0)
                   for p in row]
        want = PolyArray(entries)
        partials = PolyArray(p.diff(i) for i in range(dim) for p in entries)
        x = np.random.default_rng(seed).uniform(-1.5, 1.5, (6, dim))
        assert_same_compiled(field.values, want)
        assert_same_compiled(field.values.partials(), partials)
        assert_same_bits(field(x), want(x).reshape(6, dim, dim))
        assert_same_bits(field.partials(x), partials(x).reshape(6, dim, dim, dim))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_compiled_partials_are_the_compiled_diffs(data):
    # output i * size + k of partials() is d_i of polynomial k
    dim, polys = data.draw(poly_lists())
    got = PolyArray(polys).partials()
    want = PolyArray([p.diff(i) for i in range(dim) for p in polys])
    assert_same_compiled(got, want)
    x = data.draw(points(dim))
    with np.errstate(all="ignore"):
        assert_same_bits(got(x), want(x))


@settings(max_examples=100, deadline=None)
@given(case=maps())
def test_poly_map_jacobian_terms_come_in_diff_key_order(case):
    # entry a * d + i, in entry order, then its terms in the key order of
    # p_a.diff(i): the order pullback_metric's folds depend on
    dim, comps, _ = case
    entries, expos, coeffs = PolyMap(comps)._jac_terms
    want = [(a * dim + i, e, c) for a, p in enumerate(comps) for i in range(dim)
            for e, c in p.diff(i).coeffs.items()]
    assert entries.tolist() == [entry for entry, _, _ in want]
    assert list(map(tuple, expos.tolist())) == [e for _, e, _ in want]
    assert coeffs.tobytes() == np.array([c for _, _, c in want], dtype=float).tobytes()


@settings(max_examples=100, deadline=None)
@given(case=maps())
def test_poly_map_jacobians_compile_like_their_diffs(case):
    dim, comps, _ = case
    want = PolyArray(p.diff(i) for p in comps for i in range(dim))
    assert_same_compiled(PolyMap(comps)._jac_values, want)
