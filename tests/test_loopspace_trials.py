"""The loop-space checks against the trial-by-trial loops they replace.

``reference_check_induced_compatibility`` and the induced-agreement loop of
``reference_ascending_coherence`` are the checks as they were before they
evaluated all trials at once: one ``rng.normal`` draw per tangent array and
per trial, and one ``induced_forms`` call per identity and per trial.
``reference_induced_forms`` is ``induced_forms`` as it was before it called
the stacked kernel ``loopspace._forms``.  On block Kahler and para-Kahler
targets and on completed dense pairs, with 1 to 16 samples, 0 to 30 trials
and scales up to the overflow of the quadrature to inf and NaN, the stacked
checks must give the same entry names, verdicts, locations and notes, and
leave the generator in the same state.  Where a quadrature of finite
tangents overflows, the stacked check judges the target at its own scale,
and the trial loop it is compared with runs on the target ``divided`` by the
largest entry of its form and metric.

With N >= 3 samples the residuals must have the same bits.  With N <= 2,
numpy's einsum sums a trial's ``(N, d)`` arrays over (i, j) in another
order than it sums the same trial inside a ``(trials, N, d)`` stack (seen
only for 2-dimensional targets), so a quadrature value may move by
rounding, and a residual with it, by at most the bounds of
``moved_quadrature`` and ``moved_residual``.
"""

import math
import struct
from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from tensorstruct.compat import check_triple, complete_triple
from tensorstruct.limits import BondingSystem, CoherentSequence, check_coherent
from tensorstruct.linalg import DEFAULT_TOL, Tolerance, fro, signature_of
from tensorstruct.loopspace import (
    DiscretizedLoopSpace,
    _conform,
    ascending_coherence,
    block_kahler_target,
    block_para_target,
    check_induced_compatibility,
    induced_forms,
)
from tensorstruct.report import Report, worst
from tensorstruct.structures import (
    BilinearForm,
    ComplexStructure,
    SymplecticForm,
    krein_from_matrix,
)

# ---------------------------------------------------------------------------
# the trial-by-trial checks
# ---------------------------------------------------------------------------


def reference_induced_forms(space: DiscretizedLoopSpace, x, y):
    """Quadrature values (Omega(X, Y), g(X, Y)) and the pointwise image I X."""
    x = _conform(space, x)
    y = _conform(space, y)
    s = space.target.omega.matrix
    g = space.target.metric_matrix
    i = space.target.structure.matrix
    omega_val = float(np.sum(space.weights * np.einsum("ti,ij,tj->t", x, s, y)))
    metric_val = float(np.sum(space.weights * np.einsum("ti,ij,tj->t", x, g, y)))
    image = x @ i.T
    return omega_val, metric_val, image


def reference_check_induced_compatibility(space: DiscretizedLoopSpace, trials=20,
                                          tol: Tolerance = DEFAULT_TOL,
                                          rng=None) -> Report:
    """Random-tangent verification that the induced data stays compatible.

    Checks, for ``trials`` random tangent pairs: antisymmetry of the induced
    form, invariance under the structure, the linking identity
    g(X, Y) = Omega(X, I Y), and positivity (Kahler) of g(X, X).  The
    induced metric's signature is reported: block-diagonal with one target
    block per sample point, so it is N * signature(target).
    """
    rng = rng or np.random.default_rng(0)
    report = Report(tol=tol)
    flavor = space.target.flavor
    i = space.target.structure.matrix

    # one residual per trial for each identity; each entry keeps the worst
    antisymmetry, invariance, linking = [], [], []
    positive_ok = True
    for _ in range(trials):
        x = rng.normal(size=space.loop.shape)
        y = rng.normal(size=space.loop.shape)
        o_xy, g_xy, ix = reference_induced_forms(space, x, y)
        o_yx, _, iy = reference_induced_forms(space, y, x)
        scale = max(abs(o_xy), 1.0)
        antisymmetry.append(abs(o_xy + o_yx) / scale)
        o_ii, _, _ = reference_induced_forms(space, ix, iy)
        sign = 1.0 if flavor == "kahler" else -1.0
        invariance.append(abs(o_ii - sign * o_xy) / scale)
        o_x_iy, _, _ = reference_induced_forms(space, x, iy)
        linking.append(abs(g_xy - o_x_iy) / max(abs(g_xy), 1.0))
        if flavor == "kahler":
            _, g_xx, _ = reference_induced_forms(space, x, x)
            positive_ok = positive_ok and g_xx > 0

    for name, residuals, where in (("antisymmetry", antisymmetry, f"{trials} trials"),
                                   ("form_invariance", invariance, ""),
                                   ("metric_is_form_of_structure", linking, "")):
        report.measured(name, worst(residuals), location=where)
    if flavor == "kahler":
        report.add("metric_positive_on_trials", positive_ok,
                   0.0 if positive_ok else 1.0)
    else:
        p, q = reference_induced_signature(space)
        report.add("metric_neutral", p == q, float(abs(p - q)),
                   f"signature ({p}, {q})")
    return report


def overflows(space, trials, seed):
    """Whether a quadrature of finite tangents comes out non-finite in the
    trial loop of ``reference_check_induced_compatibility`` on ``seed``."""
    rng = np.random.default_rng(seed)
    i = space.target.structure.matrix
    with np.errstate(all="ignore"):
        for _ in range(trials):
            x = rng.normal(size=space.loop.shape)
            y = rng.normal(size=space.loop.shape)
            ix, iy = x @ i.T, y @ i.T
            pairs = [(x, y), (y, x), (ix, iy), (x, iy)]
            for p, q in pairs + ([(x, x)] if space.target.flavor == "kahler" else []):
                if (np.isfinite(p).all() and np.isfinite(q).all()
                        and not np.isfinite(reference_induced_forms(space, p, q)[:2]).all()):
                    return True
    return False


def divided(space):
    """The loop space on the target divided by the largest entry of its form
    and metric."""
    t = space.target
    scale = max(np.abs(t.omega.matrix).max(), np.abs(t.metric_matrix).max())
    triple = replace(t, omega=replace(t.omega, matrix=t.omega.matrix / scale),
                     metric=replace(t.metric, matrix=t.metric_matrix / scale))
    return DiscretizedLoopSpace(triple, space.loop, space.weights)


def judged(space, trials, seed):
    """The loop space the check with ``seed`` judges: ``divided`` where its
    quadratures overflow, else ``space`` itself."""
    return divided(space) if overflows(space, trials, seed) else space


def reference_induced_signature(space):
    p, q, _ = signature_of(space.target.metric_matrix)
    return space.samples * p, space.samples * q


def reference_ascending_coherence(targets, samples,
                                  tol: Tolerance = DEFAULT_TOL, rng=None) -> Report:
    """Coherence of induced loop-space data over an ascending target family.

    ``targets`` live on padded ambient spaces (dim_0 <= dim_1 <= ...); the
    per-point structures must form coherent direct sequences, and then the
    induced forms agree across levels on included tangent arrays exactly
    (linearity of the quadrature).  Both facts are checked: the pointwise
    sequences through the tower machinery, the induced agreement on random
    tangent data.
    """
    rng = rng or np.random.default_rng(0)
    report = Report(tol=tol)
    dims = [t.dim for t in targets]
    bonding = BondingSystem.padded(dims, "direct")

    for name, kind, extract in (
        ("structure", "1,1", lambda t: t.structure.matrix),
        ("form", "2,0", lambda t: t.omega.matrix),
        ("metric", "2,0", lambda t: t.metric_matrix),
    ):
        seq = CoherentSequence(bonding, [extract(t) for t in targets], kind)
        rep = check_coherent(seq, tol)
        report.extend(rep, prefix=f"{name}/")

    for lvl, triple in enumerate(targets):
        rep = check_triple(triple, tol)
        report.add(f"target_compatible[{lvl}]", rep.passed, rep.worst_residual)

    # induced agreement: evaluate at level i on random tangents, include
    # into level j, evaluate there
    maps = bonding.map_table()
    for i in range(len(targets)):
        for j in range(i + 1, len(targets)):
            inc = maps[i][j]
            residuals = []
            for _ in range(5):
                loop_i = rng.normal(size=(samples, dims[i]))
                x_i = rng.normal(size=(samples, dims[i]))
                y_i = rng.normal(size=(samples, dims[i]))
                space_i = DiscretizedLoopSpace(targets[i], loop_i)
                space_j = DiscretizedLoopSpace(targets[j], loop_i @ inc.T)
                o_i, g_i, ix_i = reference_induced_forms(space_i, x_i, y_i)
                o_j, g_j, ix_j = reference_induced_forms(space_j, x_i @ inc.T, y_i @ inc.T)
                residuals += [abs(o_i - o_j) / max(abs(o_i), 1.0),
                              abs(g_i - g_j) / max(abs(g_i), 1.0),
                              fro(ix_i @ inc.T - ix_j) / max(fro(ix_i), 1.0)]
            report.measured(f"induced_agreement[{i},{j}]", worst(residuals))
    report.note(f"{samples} circle samples per loop")
    return report


# ---------------------------------------------------------------------------
# targets
# ---------------------------------------------------------------------------

# 1.5e308 overflows single products; 8e307 overflows the sums of a few of them
SCALES = [1.0, 1e150, 1e300, 8e307, 1.5e308]


def scaled(triple, s):
    """The triple with its form and metric rescaled to largest entry ``s``."""
    def rescale(matrix):
        return s * (matrix / np.abs(matrix).max())
    return replace(triple, omega=replace(triple.omega, matrix=rescale(triple.omega.matrix)),
                   metric=replace(triple.metric, matrix=rescale(triple.metric_matrix)))


def conditioned(rng, n):
    """An invertible n x n matrix with singular values between 1 and 2."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q * rng.uniform(1.0, 2.0, size=n)


def dense_pair(rng, pairs, kahler):
    """A dense triple completed from a metric and a form by the polar route:
    a block target in coordinates changed by a conditioned matrix."""
    block = (block_kahler_target if kahler else block_para_target)(pairs)
    p = conditioned(rng, 2 * pairs)
    g = p.T @ block.metric_matrix @ p
    g = 0.5 * (g + g.T)
    metric = BilinearForm(g, "symmetric") if kahler else krein_from_matrix(g)
    return complete_triple(metric, SymplecticForm(p.T @ block.omega.matrix @ p),
                           "kahler" if kahler else "para_kahler")


def target(rng, kind, pairs):
    if kind == "dense":
        return dense_pair(rng, pairs, kahler=rng.uniform() < 0.5)
    return (block_kahler_target if kind == "kahler" else block_para_target)(pairs)


def block_family(base, levels):
    """Level k is k + 1 copies of a 2-dimensional ``base`` down the
    diagonal, so the family is coherent under coordinate padding."""
    def copies(m, part):
        stacked = {name: np.kron(np.eye(m), getattr(part, name)) for name in part._BASES}
        if getattr(part, "decomposition", None) is not None:
            stacked["decomposition"] = None
        return replace(part, matrix=np.kron(np.eye(m), part.matrix), **stacked)
    return [replace(base, omega=copies(m, base.omega), metric=copies(m, base.metric),
                    structure=copies(m, base.structure)) for m in range(1, levels + 1)]


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

U = 2.0 ** -53  # unit roundoff of float64


def bits(value):
    return struct.pack("<d", value)


def gamma(n):
    return n * U / (1 - n * U)


def quadrature(space, x, s, y):
    """sum_t w_t x_t^T s y_t for each pair of a stack."""
    return np.sum(space.weights * np.einsum("...ti,ij,...tj->...t", x, s, y), axis=-1)


def absolute(space, x, s, y):
    """sum_t w_t sum_ij |x_ti s_ij y_tj| for each pair of a stack."""
    return quadrature(space, np.abs(x), np.abs(s), np.abs(y))


def moved_quadrature(space, x, s, y):
    """How far a stack of quadratures sum_t w_t x_t^T s y_t can move when
    each per-sample sum of its d^2 products x_ti s_ij y_tj is taken in
    another order (and each product with its factors grouped the other way).

    Each order is within gamma(d^2 + 2) * A_t of the exact per-sample value,
    A_t = sum_ij |x_ti s_ij y_tj| (Higham, "Accuracy and Stability of
    Numerical Algorithms", 2nd ed., sections 3.1 and 4.2), so two orders
    differ by at most twice that; the weighted sum over N samples, the same
    in both paths, adds a factor (1 + u)^(N + 1).  The bound is twice this,
    as a margin for the rounding of A itself.
    """
    n, d = space.loop.shape
    return 4 * gamma(d * d + 2) * (1 + U) ** (n + 1) * absolute(space, x, s, y)


def moved_residual(space, p, q, floor, q_space=None):
    """How far the residuals |p - q| / max(|floor|, 1) of a stack can move,
    where p, q and the floor are quadratures given as ``(x, s, y)``, q on
    ``q_space`` when it is given.  The numerator moves by at most dp + dq
    and the scale by d0; each path rounds its subtraction and division
    once (2u relative each, doubled as a margin), on a residual of at most
    (A_p + A_q) / scale.  Where an absolute sum overflows there is no
    bound, and the result is inf."""
    other = q_space or space
    dp, dq, d0 = (moved_quadrature(space, *p), moved_quadrature(other, *q),
                  moved_quadrature(space, *floor))
    scale = np.maximum(np.abs(quadrature(space, *floor)), 1.0)
    r = (absolute(space, *p) + absolute(other, *q)) * (1 + 4 * U) / scale
    bound = (dp + dq + r * d0) / np.maximum(scale - d0, 1.0) + 8 * U * (r + dp + dq)
    return np.nan_to_num(bound, nan=np.inf)


def induced_bounds(space, trials, seed):
    """The bound on the move of each entry of ``check_induced_compatibility``
    under reordered quadratures, from the tangents the check draws."""
    rng = np.random.default_rng(seed)
    x, y = np.moveaxis(rng.normal(size=(trials, 2, *space.loop.shape)), 1, 0)
    i = space.target.structure.matrix
    ix, iy = x @ i.T, y @ i.T
    s, g = space.target.omega.matrix, space.target.metric_matrix
    with np.errstate(all="ignore"):
        return {"antisymmetry": moved_residual(space, (x, s, y), (y, s, x), (x, s, y)),
                "form_invariance": moved_residual(space, (ix, s, iy), (x, s, y), (x, s, y)),
                "metric_is_form_of_structure": moved_residual(space, (x, g, y), (x, s, iy),
                                                              (x, g, y))}


def outcome(check, *args, seed):
    """The check's report, or the type and message of what it raised, and
    its generator's final state."""
    rng = np.random.default_rng(seed)
    try:
        with np.errstate(all="ignore"):
            report = check(*args, rng=rng)
    except Exception as exc:  # compared, not hidden: both sides must raise alike
        report = type(exc), str(exc)
    return report, rng.bit_generator.state


def agree(got, want, bounds=None):
    """Assert the same names, verdicts, locations, notes and generator
    state, and the same residual bits; with ``bounds`` (name: array of
    per-trial bounds), residuals within the worst of an entry's bounds
    instead, and NaN for NaN: the reports write every NaN alike, and which
    trial's NaN is the worst, with which sign bit, depends on the order of
    the sums.  Return the largest difference seen."""
    (report, state), (reference, reference_state) = got, want
    assert state == reference_state
    if not isinstance(reference, Report):
        assert report == reference
        return 0.0
    assert report.notes == reference.notes
    assert [(e.name, e.passed, e.location) for e in report.entries] == [
        (e.name, e.passed, e.location) for e in reference.entries]
    largest = 0.0
    for mine, theirs in zip(report.entries, reference.entries):
        a, b = mine.residual, theirs.residual
        bound = None if bounds is None else bounds.get(mine.name)
        if bound is None:
            assert bits(a) == bits(b), mine.name
        elif math.isnan(a) or math.isnan(b):
            assert math.isnan(a) and math.isnan(b), mine.name
        elif a != b:
            assert abs(a - b) <= worst(bound), (mine.name, a, b)
            largest = max(largest, abs(a - b))
    return largest


def compare_induced(seed, kind, pairs, samples, trials, s):
    rng = np.random.default_rng(seed)
    triple = scaled(target(rng, kind, pairs), s)
    space = DiscretizedLoopSpace(triple, rng.normal(size=(samples, triple.dim)))
    got = outcome(check_induced_compatibility, space, trials, seed=seed)
    space = judged(space, trials, seed)
    want = outcome(reference_check_induced_compatibility, space, trials, seed=seed)
    bounds = induced_bounds(space, trials, seed) if samples <= 2 else None
    return agree(got, want, bounds)


def agreement_bounds(targets, samples, seed):
    """The bound on the move of each ``induced_agreement`` entry, from the
    tangents ``ascending_coherence`` draws: per trial, the form's and the
    metric's residual move as above, and the image residual not at all."""
    rng = np.random.default_rng(seed)
    dims = [t.dim for t in targets]
    maps = BondingSystem.padded(dims, "direct").map_table()
    bounds = {}
    for i in range(len(targets)):
        for j in range(i + 1, len(targets)):
            inc = maps[i][j]
            loop, x, y = np.moveaxis(rng.normal(size=(5, 3, samples, dims[i])), 1, 0)
            space_i = DiscretizedLoopSpace(targets[i], loop[0])
            space_j = DiscretizedLoopSpace(targets[j], loop[0] @ inc.T)
            rows = []
            with np.errstate(all="ignore"):
                for s_i, s_j in ((targets[i].omega.matrix, targets[j].omega.matrix),
                                 (targets[i].metric_matrix, targets[j].metric_matrix)):
                    rows.append(moved_residual(space_i, (x, s_i, y),
                                               (x @ inc.T, s_j, y @ inc.T), (x, s_i, y),
                                               q_space=space_j))
            rows.append(np.zeros(5))
            bounds[f"induced_agreement[{i},{j}]"] = np.stack(rows, axis=1).ravel()
    return bounds


def compare_ascending(seed, kind, levels, samples, s):
    rng = np.random.default_rng(seed)
    targets = block_family(scaled(target(rng, kind, 1), s), levels)
    got = outcome(ascending_coherence, targets, samples, seed=seed)
    want = outcome(reference_ascending_coherence, targets, samples, seed=seed)
    return agree(got, want, agreement_bounds(targets, samples, seed) if samples <= 2 else None)


KINDS = st.sampled_from(["kahler", "para", "dense"])


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=KINDS, pairs=st.integers(1, 3),
       samples=st.integers(1, 16), trials=st.integers(0, 30), s=st.sampled_from(SCALES))
def test_induced_compatibility_matches_the_trial_loop(seed, kind, pairs, samples, trials, s):
    compare_induced(seed, kind, pairs, samples, trials, s)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=KINDS, levels=st.integers(1, 4),
       samples=st.integers(1, 16), s=st.sampled_from(SCALES))
def test_ascending_coherence_matches_the_trial_loop(seed, kind, levels, samples, s):
    compare_ascending(seed, kind, levels, samples, s)


def test_induced_forms_keeps_its_bits():
    """``induced_forms`` calls the stacked kernel on one pair of 2-D
    arrays, where its einsum is the reference's call."""
    rng = np.random.default_rng(0)
    for _ in range(300):
        samples, kind = int(rng.integers(1, 17)), ["kahler", "para", "dense"][rng.integers(3)]
        triple = scaled(target(rng, kind, int(rng.integers(1, 4))), float(rng.choice(SCALES)))
        space = DiscretizedLoopSpace(triple, np.zeros((samples, triple.dim)))
        x, y = rng.normal(size=(2, samples, triple.dim))
        with np.errstate(all="ignore"):
            got, want = induced_forms(space, x, y), reference_induced_forms(space, x, y)
        assert bits(got[0]) + bits(got[1]) == bits(want[0]) + bits(want[1])
        assert got[2].tobytes() == want[2].tobytes()


def test_the_draws_reach_every_path():
    """Over fixed draws: residuals that move at N <= 2 and stay within
    their bounds, the overflow of a trial judged at the target's own scale,
    images of tangents that overflow to NaN, and zero trials."""
    moved = [compare_induced(seed, "dense", 1, 1 + seed % 2, 20, 1.0) for seed in range(40)]
    assert any(moved)
    moved = [compare_ascending(seed, "dense", 3, 1 + seed % 2, 1.0) for seed in range(40)]
    assert any(moved)
    space = DiscretizedLoopSpace(scaled(block_kahler_target(1), 8e307), np.zeros((3, 2)))
    assert overflows(space, 20, 1)
    got = outcome(check_induced_compatibility, space, 20, seed=1)
    assert got[0].passed and got[0].worst_residual <= 1e-15
    agree(got, outcome(reference_check_induced_compatibility, divided(space), 20, seed=1))
    # I X overflows, or comes near it: dividing a target whose form and
    # metric are canonical changes nothing, and the trials read NaN
    wide = replace(block_kahler_target(1),
                   structure=ComplexStructure(np.array([[0.0, -1e308], [1e-308, 0.0]])))
    space = DiscretizedLoopSpace(wide, np.zeros((3, 2)))
    got = outcome(check_induced_compatibility, space, 20, seed=1)
    assert not got[0].passed and math.isnan(got[0].worst_residual)
    agree(got, outcome(reference_check_induced_compatibility, space, 20, seed=1))
    assert compare_induced(1, "kahler", 1, 4, 0, 1.0) == 0.0
