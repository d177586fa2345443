"""Verdicts that do not depend on the exponent range (a metamorphic property).

Every threshold is ``atol + rtol * scale`` at the check's true scale, so
with ``Tolerance(atol=0, rtol=r)``, scaling the input of a check of degree
1 by 2**k scales its residual and its scale by 2**k: exactly wherever
nothing overflows or underflows, and up to the last bits where ``fro``
takes its scaled fallback.  Each case measures its residual/scale ratio at
k = 0 and sets r a factor of 4 above or below it, so the verdict must be
the same at every k, up or down, that keeps every entry and every product
finite.  Going down, k stops where the smallest nonzero entry of an input,
a product or a residual reaches 2**-500: ``fro`` has no underflow rescue,
and a sum of squares of such entries is still a normal double.
"""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from tensorstruct.bundle import (
    Chart,
    ChartAtlas,
    ConstantTransition,
    StructureMatrix,
    check_cocycle,
    in_isotropy,
)
from tensorstruct.limits import BondingSystem, CoherentSequence, check_coherent
from tensorstruct.linalg import Tolerance, signature_of
from tensorstruct.structures import BilinearForm, validate


def _normal(rng, shape, norm=None):
    """A normal matrix, rescaled to a Frobenius norm in [norm, 2 norm)."""
    m = rng.normal(size=shape)
    return m if norm is None else m * (norm * (1 + rng.random()) / np.linalg.norm(m))


def _defect(rng, shape):
    """A perturbation of relative size 1e-12 to 1e-2."""
    return _normal(rng, shape) * 10.0 ** rng.uniform(-12, -2)


def _form(rng, symmetry):
    """(ratio, judge, arrays): a symmetric or skew form off by a defect."""
    m = _normal(rng, (3, 3))
    s = (m + m.T if symmetry == "symmetric" else m - m.T)
    s = s * (2.0 / np.linalg.norm(s)) + _defect(rng, (3, 3))
    off = s - s.T if symmetry == "symmetric" else s + s.T
    ratio = np.linalg.norm(off) / np.linalg.norm(s)

    def judge(k, tol):
        return validate(BilinearForm(s * 2.0 ** k, symmetry), tol).passed

    return ratio, judge, [s, off]


def _cocycle(rng):
    """T_ac = T_ab T_bc + E, with T_ab and T_ac scaled."""
    t_ab, t_bc = _normal(rng, (2, 2), 2.0), _normal(rng, (2, 2), 2.0)
    t_ab = t_ab * max(1.0, 2.0 / np.linalg.norm(t_ab @ t_bc))
    t_ac = t_ab @ t_bc + _defect(rng, (2, 2))
    ratio = np.linalg.norm(t_ac - t_ab @ t_bc) / np.linalg.norm(t_ac)

    def judge(k, tol):
        transitions = {("a", "b"): t_ab * 2.0 ** k, ("b", "c"): t_bc, ("a", "c"): t_ac * 2.0 ** k}
        atlas = ChartAtlas(2, [Chart(name, [-1.0], [1.0]) for name in "abc"],
                           {pair: np.zeros((1, 1)) for pair in transitions},
                           {pair: ConstantTransition(t) for pair, t in transitions.items()},
                           [("a", "b", "c", np.zeros((1, 1)))])
        [entry] = [e for e in check_cocycle(atlas, tol).entries if e.name == "cocycle[a,b,c]"]
        return entry.passed

    return ratio, judge, [t_ab, t_bc, t_ac, t_ab @ t_bc, t_ac - t_ab @ t_bc]


def _isotropy(rng):
    """A (2,0) model S, scaled, and a map g near the identity."""
    m = _normal(rng, (3, 3))
    s = (m + m.T) * (2.0 / np.linalg.norm(m + m.T))
    g = np.eye(3) + _defect(rng, (3, 3))
    g_inv = np.linalg.inv(g)
    acted = g_inv.T @ s @ g_inv
    ratio = np.linalg.norm(acted - s) / np.linalg.norm(s)

    def judge(k, tol):
        return in_isotropy(g, StructureMatrix(s * 2.0 ** k, "2,0"), tol)[0]

    return ratio, judge, [s, acted, g_inv.T @ s, acted - s]


def _coherent(rng):
    """A projective (2,0) sequence on a padded tower, S_1 = lam^T S_0 lam + E."""
    bonding = BondingSystem.padded([2, 3], "projective")
    lam = bonding.map(0, 1)
    s0 = _normal(rng, (2, 2), 2.0)
    s1 = lam.T @ s0 @ lam + _defect(rng, (3, 3))
    ratio = (np.linalg.norm(s1 - lam.T @ s0 @ lam)
             / max(np.linalg.norm(s0), np.linalg.norm(s1)))

    def judge(k, tol):
        scale = 2.0 ** k
        return check_coherent(CoherentSequence(bonding, [s0 * scale, s1 * scale], "2,0"),
                              tol).passed

    return ratio, judge, [s0, s1, lam.T @ s0 @ lam, s1 - lam.T @ s0 @ lam]


CASES = {
    "validate symmetric": lambda rng: _form(rng, "symmetric"),
    "validate skew": lambda rng: _form(rng, "skew"),
    "check_cocycle": _cocycle,
    "in_isotropy (2,0)": _isotropy,
    "check_coherent (2,0)": _coherent,
}


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from(sorted(CASES)), seed=st.integers(0, 2 ** 32 - 1),
       accept=st.booleans(), k=st.integers(-1100, 1100))
def test_a_verdict_does_not_depend_on_the_exponent(case, seed, accept, k):
    ratio, judge, arrays = CASES[case](np.random.default_rng(seed))
    tol = Tolerance(atol=0.0, rtol=ratio * 4 if accept else ratio / 4)
    # the largest k that keeps every entry below 2**1018, and the smallest
    # that keeps every nonzero one at least 2**-500
    top = 1018 - math.ceil(math.log2(max(np.abs(a).max() for a in arrays)))
    bottom = -500 - math.floor(math.log2(min(np.abs(a[a != 0]).min() for a in arrays)))
    with np.errstate(over="ignore"):  # a sum of squares overflows before fro scales it
        for exponent in sorted({bottom, 0, min(max(k, bottom), top), top}):
            assert judge(exponent, tol) == accept, exponent


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), plus=st.integers(0, 3), minus=st.integers(0, 3),
       k=st.integers(0, 1023))
def test_a_signature_does_not_depend_on_the_exponent(seed, plus, minus, k):
    # P^T J P for a signs matrix J and a P with singular values in [1, 2]:
    # its eigenvalues have J's signs and magnitudes within a factor 4 of
    # each other, so no tolerance decides them; scaled to a largest entry in
    # [1, 2), every 2**k up to 2**1023 keeps the entries finite, though the
    # eigenvalues may overflow
    assume(plus + minus)
    rng = np.random.default_rng(seed)
    n = plus + minus
    p = np.linalg.qr(rng.normal(size=(n, n)))[0] * rng.uniform(1.0, 2.0, size=n)
    g = p.T @ np.diag([1.0] * plus + [-1.0] * minus) @ p
    g = 0.5 * (g + g.T)
    g = g / 2.0 ** math.floor(math.log2(np.abs(g).max()))
    tol = Tolerance(atol=0.0, rtol=1e-9)
    for exponent in sorted({0, k, 1023}):
        assert signature_of(g * 2.0 ** exponent, tol) == (plus, minus, 0), exponent
