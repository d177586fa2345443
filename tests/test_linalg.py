import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from tensorstruct.bundle import _inverted
from tensorstruct.calculus import _solve
from tensorstruct.errors import BadAtPoint, InvalidInput, ShapeMismatch
from tensorstruct.linalg import (
    Tolerance,
    batched,
    fro,
    involution_eigenbases,
    kernel_and_complement,
    kernel_and_image,
    metric_adjoint,
    rank_of,
    signature_of,
    spd_sqrt,
    symmetric_part,
)
from tensorstruct.structures import square_defect

RNG = np.random.default_rng(20240811)


def random_orthogonal(n, rng=RNG):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def random_spd(n, rng=RNG, shift=0.5):
    m = rng.normal(size=(n, n))
    return m @ m.T + shift * np.eye(n)


def test_tolerance_rejects_degenerate_settings():
    with pytest.raises(ValueError):
        Tolerance(atol=-1.0)
    with pytest.raises(ValueError):
        Tolerance(atol=0.0, rtol=0.0)


def test_tolerance_never_accepts_an_infinite_residual():
    tol = Tolerance()
    assert tol.accepts(1e300, np.inf)
    assert not tol.accepts(np.inf, np.inf)
    assert not tol.accepts(np.nan, np.inf)
    np.testing.assert_array_equal(
        tol.accepts(np.array([0.0, np.inf, 1.0, np.inf]), np.array([1.0, np.inf, np.inf, 1.0])),
        [True, False, True, False])


def test_spd_sqrt_identity():
    np.testing.assert_allclose(spd_sqrt(np.eye(4)), np.eye(4), atol=1e-14)


def test_spd_sqrt_diagonal():
    np.testing.assert_allclose(spd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]),
                               atol=1e-14)


def test_spd_sqrt_against_eigendecomposition_oracle():
    # oracle: build m = Q^T D Q with known D, so sqrt(m) = Q^T sqrt(D) Q
    d = np.diag([0.3, 1.0, 2.5, 7.0, 11.0])
    q = random_orthogonal(5)
    m = q.T @ d @ q
    expected = q.T @ np.sqrt(d) @ q
    np.testing.assert_allclose(spd_sqrt(m), expected, atol=1e-12)


def test_spd_sqrt_rejects_asymmetric():
    with pytest.raises(InvalidInput, match="asymmetry .* exceeds tolerance"):
        spd_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_spd_sqrt_rejects_indefinite():
    # the cut is atol + rtol * max|w| = 1e-9 + 2e-9, signature_of's
    with pytest.raises(InvalidInput, match=r"smallest eigenvalue -2\.000e\+00 <= 3\.000e-09"):
        spd_sqrt(np.diag([1.0, -2.0]))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), signs=st.lists(st.sampled_from([-1.0, 0.0, 1.0]),
                                                         min_size=1, max_size=4),
       spread=st.floats(0.0, 12.0), power=st.integers(-60, 60),
       atol=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]),
       rtol=st.sampled_from([1e-12, 1e-9, 1e-6]))
def test_spd_sqrt_accepts_exactly_the_metrics_signature_of_calls_positive(
        seed, signs, spread, power, atol, rtol):
    # P^T D P with P orthogonal and |D| spread over up to 12 decades: both
    # decisions take one cut, tol.eigen_cut, on the same eigenvalues, so
    # they agree wherever no eigenvalue lies within rounding of the cut
    rng = np.random.default_rng(seed)
    n = len(signs)
    d = np.array(signs) * 10.0 ** -rng.uniform(0.0, spread, size=n) * 2.0 ** power
    p = random_orthogonal(n, rng)
    g = symmetric_part(p.T @ np.diag(d) @ p)
    tol = Tolerance(atol, rtol)
    w = np.linalg.eigvalsh(g)
    assume(np.all(np.abs(np.abs(w) - tol.eigen_cut(w)) > 1e-13 * np.abs(w).max()))
    try:
        spd_sqrt(g, tol)
        raised = False
    except InvalidInput:
        raised = True
    assert raised == (signature_of(g, tol) != (n, 0, 0))


def test_spd_sqrt_squares_back_randomized():
    # squaring the root recovers the input: 500 random SPD matrices, dims 1..20
    rng = np.random.default_rng(7)
    for _ in range(500):
        n = int(rng.integers(1, 21))
        m = random_spd(n, rng)
        r = spd_sqrt(m)
        assert np.linalg.norm(r @ r - m) <= 1e-9 * np.linalg.norm(m) + 1e-9
        np.testing.assert_allclose(r, r.T, atol=1e-12)


def test_metric_adjoint_euclidean_is_transpose():
    a = RNG.normal(size=(4, 4))
    np.testing.assert_allclose(metric_adjoint(a, np.eye(4)), a.T, atol=1e-14)


def test_metric_adjoint_fixed_point_for_self_adjoint_input():
    g = random_spd(4)
    b = RNG.normal(size=(4, 4))
    a = np.linalg.solve(g, b + b.T)  # g-self-adjoint by construction
    np.testing.assert_allclose(metric_adjoint(a, g), a, atol=1e-10)


def test_metric_adjoint_inner_product_identity():
    # oracle: direct evaluation of g(A*u, v) = g(u, Av) on random pairs
    g = random_spd(5)
    a = RNG.normal(size=(5, 5))
    astar = metric_adjoint(a, g)
    for _ in range(20):
        u = RNG.normal(size=5)
        v = RNG.normal(size=5)
        lhs = (astar @ u) @ g @ v
        rhs = u @ g @ (a @ v)
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0)


def test_metric_adjoint_is_involution():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        g = random_spd(n, rng)
        a = rng.normal(size=(n, n))
        back = metric_adjoint(metric_adjoint(a, g), g)
        assert np.linalg.norm(back - a) <= 1e-12 * max(np.linalg.norm(a), 1.0) * np.linalg.cond(g)


def test_metric_adjoint_dimension_mismatch():
    with pytest.raises(ShapeMismatch):
        metric_adjoint(np.eye(3), np.eye(4))


def test_kernel_and_image_zero_matrix():
    kernel, image, rank = kernel_and_image(np.zeros((3, 3)))
    assert rank == 0
    assert kernel.shape == (3, 3)
    assert image.shape == (3, 0)


def test_kernel_and_image_identity():
    kernel, image, rank = kernel_and_image(np.eye(3))
    assert rank == 3
    assert kernel.shape == (3, 0)


def test_kernel_and_image_hand_row_reduction():
    # [[0,1],[0,0]] kills e1 and sends e2 to e1
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    kernel, image, rank = kernel_and_image(a)
    assert rank == 1
    np.testing.assert_allclose(np.abs(kernel[:, 0]), [1.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(np.abs(image[:, 0]), [1.0, 0.0], atol=1e-14)


def test_kernel_and_image_reconstruction_properties():
    rng = np.random.default_rng(5)
    for _ in range(50):
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(1, 8))
        target_rank = int(rng.integers(0, min(rows, cols) + 1))
        a = (rng.normal(size=(rows, target_rank)) @ rng.normal(size=(target_rank, cols))
             if target_rank else np.zeros((rows, cols)))
        kernel, image, rank = kernel_and_image(a)
        assert rank + kernel.shape[1] == cols
        if kernel.shape[1]:
            assert np.linalg.norm(a @ kernel) <= 1e-8 * max(np.linalg.norm(a), 1.0)
        # image basis spans the column space: project a random a @ x back
        x = rng.normal(size=cols)
        y = a @ x
        resid = y - image @ (image.T @ y)
        assert np.linalg.norm(resid) <= 1e-8 * max(np.linalg.norm(y), 1.0)


def test_rank_threshold_borderline():
    # documented policy: singular values below atol + rtol * smax are zero
    tol = Tolerance(atol=1e-6, rtol=0.0)
    a = np.diag([1.0, 1e-7])
    assert kernel_and_image(a, tol)[2] == 1
    a = np.diag([1.0, 1e-5])
    assert kernel_and_image(a, tol)[2] == 2


def test_rank_of_matches_kernel_and_image():
    rng = np.random.default_rng(11)
    for tol in (Tolerance(), Tolerance(atol=1e-6, rtol=0.0)):
        for _ in range(30):
            rows, cols = (int(k) for k in rng.integers(1, 7, size=2))
            k = int(rng.integers(0, min(rows, cols) + 1))
            a = rng.normal(size=(rows, k)) @ rng.normal(size=(k, cols))
            assert rank_of(a, tol) == kernel_and_image(a, tol)[2]
    assert rank_of(np.zeros((3, 0))) == 0


def test_involution_eigenbases_signature():
    # a conjugated diag(1, 1, 1, -1, -1): the bases count n - rank(J -+ I)
    q = random_orthogonal(5)
    j = q @ np.diag([1.0, 1.0, 1.0, -1.0, -1.0]) @ q.T
    plus, minus = involution_eigenbases(j)
    assert (plus.shape[1], minus.shape[1]) == (3, 2)
    assert plus.shape[1] == 5 - rank_of(j - np.eye(5))
    np.testing.assert_allclose(j @ plus, plus, atol=1e-12)
    np.testing.assert_allclose(j @ minus, -minus, atol=1e-12)


def test_kernel_and_complement_split_the_space():
    a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
    kernel, complement = kernel_and_complement(a)
    assert (kernel.shape, complement.shape) == ((3, 1), (3, 2))
    np.testing.assert_allclose(a @ kernel, 0.0, atol=1e-14)
    np.testing.assert_allclose(complement.T @ kernel, 0.0, atol=1e-14)


def test_signature_of_minkowski():
    assert signature_of(np.diag([1.0, -1.0])) == (1, 1, 0)
    assert signature_of(np.diag([2.0, 3.0, -5.0])) == (2, 1, 0)
    assert signature_of(np.zeros((2, 2))) == (0, 0, 2)


@pytest.mark.parametrize("s", [9e307, 1.5e308, np.finfo(float).max])
def test_signature_of_a_neutral_metric_past_9e307(s):
    # 0.5 * (g + g.T) overflowed to inf there, and NaN eigenvalues counted
    # as zero
    assert signature_of(np.diag([s, -s])) == (1, 1, 0)
    assert signature_of(np.array([[0.0, s], [s, 0.0]])) == (1, 1, 0)
    # a dense neutral metric with largest entry s has eigenvalues past the
    # largest double, and read (0, 0, 4) from their inf
    p = np.linalg.qr(np.random.default_rng(1).normal(size=(4, 4)))[0] * [1.0, 1.5, 2.0, 1.25]
    g = p.T @ np.diag([1.0, 1.0, -1.0, -1.0]) @ p
    g = symmetric_part(g) / np.abs(g).max()
    assert signature_of(g * s) == signature_of(g) == (2, 2, 0)


MAGNITUDES = st.floats(-1e300, 1e300, allow_nan=False).filter(
    lambda v: v == 0 or abs(v) >= 1e-300)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(MAGNITUDES, min_size=n * n, max_size=n * n).map(
        lambda v: np.array(v).reshape(n, n))))
def test_symmetric_part_keeps_the_bits_of_the_halved_sum(m):
    # halving is exact on normal floats, so both round the true (m + m^T) / 2
    # once; they can differ only where that is subnormal
    want = 0.5 * (m + m.T)
    got = symmetric_part(m)
    normal = (want == 0) | (np.abs(want) >= np.finfo(float).tiny)
    assert got[normal].tobytes() == want[normal].tobytes()
    assert np.array_equal(got, got.T)


def test_fro_is_numpy_norm_bit_for_bit_unless_the_sum_overflows():
    for shape in [(0,), (3,), (4, 4), (2, 3, 5)]:
        for scale in (1e-200, 1.0, 1e150):
            x = RNG.normal(size=shape) * scale
            assert fro(x) == np.linalg.norm(x)
    assert fro(np.zeros((3, 3))) == 0.0
    assert fro([[3, 4]]) == 5.0


def test_fro_scales_a_sum_of_squares_that_overflows():
    # the sum of squares overflows as in np.linalg.norm, with numpy's
    # warning, which the CLI turns off; the fallback raises no other
    with warnings.catch_warnings(), np.errstate(over="ignore"):
        warnings.simplefilter("error")
        assert np.linalg.norm([1e200, 1e200]) == np.inf
        assert fro([1e200, 1e200]) == pytest.approx(1e200 * 2 ** 0.5, rel=1e-15)
        assert fro([[0.0, 1e160], [-1e160, 0.0]]) == pytest.approx(1e160 * 2 ** 0.5, rel=1e-15)
        # a norm past the largest double is still inf, and so are inf and NaN entries
        assert fro([1.7e308, 1.7e308]) == np.inf
        assert fro([np.inf, 1.0]) == np.inf
        assert np.isnan(fro([np.nan, 1e200]))


def test_square_defect_keeps_an_overflowing_scale_finite():
    with warnings.catch_warnings(), np.errstate(over="ignore"):
        warnings.simplefilter("error")
        m = np.array([[0.0, -1e100], [1e-100, 0.0]])
        assert square_defect(m, -1.0) == (0.0, fro(m) ** 2)
        defect, scale = square_defect(np.array([[0.0, -1e200], [1e200, 0.0]]), -1.0)
        assert (defect, scale) == (np.inf, sys.float_info.max)


# the per-row fallbacks of calculus._solve and bundle._inverted before
# linalg.batched held them, verbatim
def old_solve(a, b, points, reason):
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        d = a.shape[-1]
        for point, ap, bp in zip(np.reshape(points, (-1, d)), a.reshape(-1, d, d),
                                 b.reshape(-1, d, b.shape[-1])):
            try:
                np.linalg.solve(ap, bp)
            except np.linalg.LinAlgError:
                raise BadAtPoint(point, reason) from None
        raise


def old_inverted(stack):
    try:
        return np.linalg.inv(stack), np.zeros(len(stack), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    out = np.empty(stack.shape)
    singular = np.zeros(len(stack), dtype=bool)
    for k, m in enumerate(stack):
        try:
            out[k] = np.linalg.inv(m)
        except np.linalg.LinAlgError:
            out[k], singular[k] = np.eye(len(m)), True
    return out, singular


def stack_with_bad_rows(rng, batch, n, share):
    """Matrices of shape ``batch + (n, n)`` at scales 1e-5 to 1e5; a share
    of them zero, as many with a repeated row, and as many holding an inf or
    a NaN."""
    mats = rng.normal(size=batch + (n, n)) * 10.0 ** rng.integers(-5, 6, batch + (1, 1))
    flat = mats.reshape(-1, n, n)
    kind = rng.choice(4, len(flat), p=[1.0 - 3.0 * share, share, share, share])
    flat[kind == 1] = 0.0
    flat[kind == 2, -1] = flat[kind == 2, 0]
    flat[kind == 3, 0, -1] = rng.choice([np.inf, -np.inf, np.nan], int(np.sum(kind == 3)))
    return mats


def outcome(solve, *args):
    """The bytes of a solve, or the point and reason of its BadAtPoint."""
    try:
        return solve(*args).tobytes()
    except BadAtPoint as err:
        return np.asarray(err.point).tobytes(), err.reason


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
       batch=st.sampled_from([(), (1,), (5,), (3, 4)]), share=st.sampled_from([0.0, 0.1, 0.3]))
def test_the_stacked_fallback_keeps_the_bits_of_the_old_row_loops(seed, n, batch, share):
    rng = np.random.default_rng(seed)
    a = stack_with_bad_rows(rng, batch, n, share)
    b = rng.normal(size=batch + (n, 2 * n))
    points = rng.normal(size=batch + (n,))
    with np.errstate(all="ignore"):
        assert outcome(_solve, a, b, points, "why") == outcome(old_solve, a, b, points, "why")
        if len(batch) == 1:
            (got, got_mask), (want, want_mask) = _inverted(a), old_inverted(a)
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(got_mask, want_mask)
        x, failed = batched(np.linalg.solve, a, b)
        own = [row_solve(ar, br) for ar, br in zip(a.reshape(-1, n, n), b.reshape(-1, n, 2 * n))]
    assert x.shape == b.shape
    assert failed.tolist() == [r is None for r in own]
    for row, want in zip(x.reshape(-1, n, 2 * n), own):
        assert row.tobytes() == (np.zeros((n, 2 * n)) if want is None else want).tobytes()


def row_solve(a, b):
    """``np.linalg.solve`` of one matrix, None where it fails."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return None


def test_the_stacked_fallback_marks_only_the_failing_rows():
    a = np.stack([np.eye(2), np.zeros((2, 2)), 2.0 * np.eye(2), np.ones((2, 2))])
    out, failed = batched(np.linalg.inv, a)
    assert failed.tolist() == [False, True, False, True]
    assert out.tobytes() == np.stack([np.eye(2), np.zeros((2, 2)), 0.5 * np.eye(2),
                                      np.zeros((2, 2))]).tobytes()
    out, failed = batched(np.linalg.inv, a[[0, 2]])
    assert failed.tolist() == [False, False]
    assert out.tobytes() == np.linalg.inv(a[[0, 2]]).tobytes()
