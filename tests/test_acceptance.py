"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line; run with ``pytest -s`` to see them.
The tolerances and batch sizes are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

from tensorstruct.bundle import (
    Chart,
    ChartAtlas,
    ConstantTransition,
    StructureMatrix,
    check_reduction,
)
from tensorstruct.calculus import (
    TensorFieldOnChart,
    curvature,
    grid_points,
    is_integrable_structure,
    levi_civita,
    lie_bracket,
    pullback_endomorphism,
    pullback_metric,
    random_quadratic_diffeo,
    sphere_stereographic_metric,
    VectorField,
)
from tensorstruct.compat import (
    check_triple,
    complete_triple,
    g_from,
    omega_from,
    structure_from,
)
from tensorstruct.limits import (
    BondingSystem,
    CoherentSequence,
    ConnectionFormSequence,
    LevelForm,
    LevelTuple,
    check_coherent,
    check_connection_coherence,
    gEn_membership,
    theta_projection,
    tuple_compose,
    tuple_membership,
)
from tensorstruct.linalg import Tolerance
from tensorstruct.loopspace import (
    DiscretizedLoopSpace,
    ascending_coherence,
    block_kahler_target,
    check_induced_compatibility,
)
from tensorstruct.poly import Poly
from tensorstruct.structures import (
    BilinearForm,
    ComplexStructure,
    SymplecticForm,
    complex_canonical,
    para_complex_canonical,
    symplectic_canonical,
    tangent_canonical,
)


def announce(name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {status} {name} {detail}")
    assert passed, f"{name}: {detail}"


def random_spd(n, rng):
    m = rng.normal(size=(n, n))
    return m @ m.T + 0.5 * np.eye(n)


def random_skew_nondegenerate(n, rng):
    while True:
        k = rng.normal(size=(n, n))
        s = k - k.T
        if abs(np.linalg.det(s)) > 1e-8:
            return s


def test_criterion_1_polar_construction_suite():
    # 500 random (SPD g, nondegenerate skew Omega), even dims 2-12:
    # structure squares to -Id <= 1e-8, corrected metric SPD, both
    # compatibility identities <= 1e-8 on full bases; runtime <= 10 s
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(500):
        n = 2 * int(rng.integers(1, 7))
        g = random_spd(n, rng)
        s = random_skew_nondegenerate(n, rng)
        structure, corrected, _ = structure_from(g, SymplecticForm(s))
        i = structure.matrix
        gm = corrected.matrix
        resid = np.linalg.norm(i @ i + np.eye(n))
        assert resid <= 1e-8, f"trial {trial}: structure squared residual {resid}"
        worst = max(worst, resid)
        assert np.linalg.eigvalsh(gm).min() > 0, f"trial {trial}: metric not SPD"
        inv_resid = np.linalg.norm(i.T @ s @ i - s)
        link_resid = np.linalg.norm(s @ i - gm)
        assert inv_resid <= 1e-8 * max(np.linalg.norm(s), 1.0)
        assert link_resid <= 1e-8 * max(np.linalg.norm(gm), 1.0)
        worst = max(worst, inv_resid, link_resid)
    elapsed = time.perf_counter() - start
    announce("polar-construction suite", elapsed <= 10.0,
             f"500 pairs, worst residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_triple_completion_round_trips():
    # 200 random compatible pairs per missing element; re-derivation <= 1e-9
    rng = np.random.default_rng(103)
    worst = 0.0
    for trial in range(200):
        n = 2 * int(rng.integers(1, 4))
        can = complex_canonical(n).matrix
        # random change of basis with bounded condition number, so the
        # 1e-9 contract is meaningful in float64
        q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
        q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
        p = q1 @ np.diag(rng.uniform(0.6, 1.8, size=n)) @ q2.T
        pinv = np.linalg.inv(p)
        i = pinv @ can @ p
        g = p.T @ p
        structure = ComplexStructure(i)
        metric = BilinearForm(g, "symmetric")

        # missing form: complete (g, I), re-derive g from (omega, I)
        triple = complete_triple(metric, structure)
        back = g_from(triple.omega, structure)
        worst = max(worst, np.max(np.abs(back.matrix - g)) / max(np.max(np.abs(g)), 1.0))

        # missing metric: complete (omega, I), re-derive omega from (g', I)
        omega = triple.omega
        triple2 = complete_triple(omega, structure)
        back_omega = omega_from(triple2.metric, structure)
        worst = max(worst, np.max(np.abs(back_omega.matrix - omega.matrix))
                    / max(np.max(np.abs(omega.matrix)), 1.0))

        # missing structure: complete (g, omega) by the polar route; the
        # corrected metric and recovered structure reproduce both inputs
        triple3 = complete_triple(metric, omega)
        re_omega = omega_from(triple3.metric, triple3.structure)
        worst = max(worst, np.max(np.abs(re_omega.matrix - omega.matrix))
                    / max(np.max(np.abs(omega.matrix)), 1.0))
        re_g = g_from(omega, triple3.structure)
        worst = max(worst, np.max(np.abs(re_g.matrix - triple3.metric_matrix))
                    / max(np.max(np.abs(triple3.metric_matrix)), 1.0))
    announce("triple-completion round trips", worst <= 1e-9,
             f"600 completions, worst relative defect {worst:.2e}")


def test_criterion_3_flatness_of_pullback_metrics():
    # 50 pullbacks of constant signature-(p,q) metrics by quadratic diffeos
    # on [-0.5, 0.5]^2: curvature residual <= 1e-5 on a 5x5 grid; the
    # stereographic sphere gives sectional curvature 1 +- 1e-4 as control
    rng = np.random.default_rng(107)
    grid = grid_points([-0.5, -0.5], [0.5, 0.5], 5)
    worst = 0.0
    for trial in range(50):
        signature = np.diag(np.where(rng.random(2) < 0.5, -1.0, 1.0))
        phi = random_quadratic_diffeo(2, rng)
        metric = pullback_metric(phi, signature)
        conn = levi_civita(metric)
        for x in grid:
            worst = max(worst, float(np.linalg.norm(curvature(conn, x))))
    flat_ok = worst <= 1e-5

    sphere = sphere_stereographic_metric()
    conn = levi_civita(sphere)
    control_worst = 0.0
    for x in grid:
        r = curvature(conn, x)
        g = sphere(x)
        k = float(g[0] @ r[:, 1, 0, 1]) / (g[0, 0] * g[1, 1] - g[0, 1] ** 2)
        control_worst = max(control_worst, abs(k - 1.0))
    control_ok = control_worst <= 1e-4
    announce("integrability-flatness forward direction", flat_ok and control_ok,
             f"flat residual {worst:.2e}, sphere curvature defect {control_worst:.2e}")


def test_criterion_4_nijenhuis_criterion():
    # 50 pullbacks of constant tangent/para-complex structures: N <= 1e-6;
    # 10 constructed non-involutive para fields: residual >= 1e-2
    rng = np.random.default_rng(109)
    grid = grid_points([-0.5, -0.5], [0.5, 0.5], 3)
    worst = 0.0
    for trial in range(50):
        if trial % 2:
            base = tangent_canonical(2).matrix
            kind = "tangent"
        else:
            base = para_complex_canonical(2).matrix
            kind = "para_complex"
        phi = random_quadratic_diffeo(2, rng)
        field = pullback_endomorphism(phi, base)
        report = is_integrable_structure(field, kind, grid, tol=Tolerance(atol=1e-6, rtol=0.0))
        assert report.passed, f"trial {trial}: residual {report.worst_residual}"
        worst = max(worst, report.worst_residual)
    pullback_ok = worst <= 1e-6

    grid4 = grid_points([-0.5] * 4, [0.5] * 4, 2)
    weakest = np.inf
    for trial in range(10):
        coeff = rng.uniform(0.5, 1.5) * (1 if rng.random() < 0.5 else -1)

        def fn(x, c=coeff):
            basis = np.eye(4)
            basis[2, 1] = c * x[0]
            return basis @ np.diag([1.0, 1.0, -1.0, -1.0]) @ np.linalg.inv(basis)

        field = TensorFieldOnChart(4, "1,1", fn, symmetry="none")
        report = is_integrable_structure(field, "para_complex", grid4,
                                         tol=Tolerance(atol=1e-6, rtol=0.0))
        assert not report.passed
        weakest = min(weakest, report.worst_residual)
    counter_ok = weakest >= 1e-2
    announce("bracket-defect criterion", pullback_ok and counter_ok,
             f"pullback worst {worst:.2e}, counterexample floor {weakest:.2e}")


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_criterion_5_cocycle_and_reduction():
    # generated atlases with isotropy-valued transitions pass; a 1e-3
    # off-group perturbation is detected within x2 of the injected size
    rng = np.random.default_rng(113)
    model = StructureMatrix(complex_canonical(2).matrix, "1,1")
    pts = rng.uniform(-0.5, 0.5, size=(4, 2))
    thetas = rng.uniform(0, 2 * np.pi, size=2)
    charts = [Chart(n, [-1, -1], [1, 1], pts) for n in "abc"]
    atlas = ChartAtlas(
        2, charts,
        overlaps={("a", "b"): pts, ("b", "c"): pts, ("a", "c"): pts},
        transitions={("a", "b"): ConstantTransition(rotation(thetas[0])),
                     ("b", "c"): ConstantTransition(rotation(thetas[1])),
                     ("a", "c"): ConstantTransition(rotation(thetas.sum()))},
        triple_overlaps=[("a", "b", "c", pts)])
    clean = check_reduction(atlas, model)

    eps = 1e-3
    perturbed = rotation(thetas.sum()) + eps * np.array([[1.0, 0.0], [0.0, 0.0]])
    atlas.transitions[("a", "c")] = ConstantTransition(perturbed)
    dirty = check_reduction(atlas, model)
    entry = [e for e in dirty.entries if e.name == "isotropy[a,c]"][0]
    detected = (not entry.passed) and eps / 2 <= entry.residual <= 2 * eps
    announce("cocycle and reduction", clean.passed and detected,
             f"clean pass, perturbation {eps:.0e} measured {entry.residual:.2e}")


def test_criterion_6_tower_suite():
    # depth-8 padded towers: coherent sequences of both kinds and variances
    # pass exactly; theta functoriality <= 1e-12 on 100 random members;
    # 1000 random tuple compositions keep the constraint <= 1e-10
    dims = list(range(1, 9))
    rng = np.random.default_rng(127)

    direct = BondingSystem.padded(dims, "direct")
    projective = BondingSystem.padded(dims, "projective")

    diag_levels = [np.diag(np.arange(1.0, d + 1)) for d in dims]
    top_sym = rng.normal(size=(8, 8))
    top_sym = top_sym + top_sym.T
    base_sym = top_sym[:1, :1]
    sequences = [
        CoherentSequence(direct, diag_levels, "1,1"),
        CoherentSequence(projective, diag_levels, "1,1"),
        CoherentSequence(direct, [top_sym[:d, :d] for d in dims], "2,0"),
        CoherentSequence(projective,
                         [np.pad(base_sym, (0, d - 1)) for d in dims], "2,0"),
    ]
    coherent_ok = True
    for seq in sequences:
        rep = check_coherent(seq)
        coherent_ok = coherent_ok and rep.passed and rep.worst_residual == 0.0

    def random_member():
        a = np.zeros((8, 8))
        prev = 0
        for d in dims:
            a[prev:d, prev:d] = rng.normal() + 2.0
            a[:prev, prev:d] = rng.normal(size=(prev, d - prev))
            prev = d
        return a

    theta_worst = 0.0
    for _ in range(100):
        a = random_member()
        member, _, _ = gEn_membership(a, direct)
        assert member
        via = theta_projection(theta_projection(a, 7, 3, direct), 3, 0, direct)
        straight = theta_projection(a, 7, 0, direct)
        theta_worst = max(theta_worst, float(np.linalg.norm(via - straight)))
    theta_ok = theta_worst <= 1e-12

    tuple_worst = 0.0
    for _ in range(1000):
        base1 = np.tril(rng.normal(size=(8, 8)) + 4 * np.eye(8))
        base2 = np.tril(rng.normal(size=(8, 8)) + 4 * np.eye(8))
        t1 = LevelTuple(projective, [base1[:d, :d] for d in dims])
        t2 = LevelTuple(projective, [base2[:d, :d] for d in dims])
        rep = tuple_membership(tuple_compose(t1, t2))
        tuple_worst = max(tuple_worst, rep.worst_residual)
        assert rep.passed
    tuple_ok = tuple_worst <= 1e-10
    announce("tower suite", coherent_ok and theta_ok and tuple_ok,
             f"theta defect {theta_worst:.2e}, tuple defect {tuple_worst:.2e}")


def test_criterion_7_connection_coherence():
    # block-extension towers of adapted forms pass both variances at 20
    # sample points; off-subalgebra perturbations localize to their level
    rng = np.random.default_rng(131)
    dims = [2, 3, 4]

    def skew(n):
        m = rng.normal(size=(n, n))
        return m - m.T

    # direct variant: higher levels zero-extend the base coefficients and
    # add fresh skew blocks in the new directions
    direct = BondingSystem.padded(dims, "direct")
    base_coeffs = [skew(2) for _ in range(2)]
    forms = []
    for lvl, d in enumerate(dims):
        coeffs = []
        for a in range(d):
            mat = np.zeros((d, d))
            if a < 2:
                mat[:2, :2] = base_coeffs[a]
            else:
                fresh = skew(d)
                mat[2:, 2:] = fresh[2:, 2:]
            coeffs.append(mat)
        forms.append(LevelForm(coeffs))
    models = [StructureMatrix(np.eye(d), "2,0") for d in dims]
    seq_direct = ConnectionFormSequence(direct, forms, models)
    pts2 = rng.uniform(-1, 1, size=(20, 2))
    direct_ok = check_connection_coherence(seq_direct, pts2).passed

    projective = BondingSystem.padded(dims, "projective")
    proj_forms = []
    for d in dims:
        coeffs = []
        for a in range(d):
            mat = np.zeros((d, d))
            if a < 2:
                mat[:2, :2] = base_coeffs[a]
                mat[2:, 2:] = skew(d)[2:, 2:]
            else:
                mat[2:, 2:] = skew(d)[2:, 2:]
            coeffs.append(mat)
        proj_forms.append(LevelForm(coeffs))
    seq_proj = ConnectionFormSequence(projective, proj_forms, models)
    pts4 = rng.uniform(-1, 1, size=(20, 4))
    projective_ok = check_connection_coherence(seq_proj, pts4).passed

    bad_coeffs = [c.copy() for c in forms[1].coeffs]
    bad_coeffs[0] = bad_coeffs[0] + 1e-3 * np.eye(3)
    seq_direct.forms[1] = LevelForm(bad_coeffs)
    rep = check_connection_coherence(seq_direct, pts2)
    failed = {e.name for e in rep.failures()}
    localized = ("adapted[1]" in failed and "adapted[0]" not in failed
                 and "adapted[2]" not in failed)
    announce("connection coherence", direct_ok and projective_ok and localized,
             f"localization to level 1: {sorted(failed)}")


def test_criterion_8_loopspace_demo():
    # canonical Kahler target, N = 16, 3 ascending levels: both reports
    # pass exactly; total runtime <= 1 s
    start = time.perf_counter()
    rng = np.random.default_rng(137)
    targets = [block_kahler_target(m) for m in (1, 2, 3)]
    loop = rng.normal(size=(16, 2))
    space = DiscretizedLoopSpace(targets[0], loop)
    induced = check_induced_compatibility(space, trials=20, rng=rng)
    ascending = ascending_coherence(targets, 16, rng=rng)
    elapsed = time.perf_counter() - start
    exact = all(e.residual <= 1e-12 for e in induced.entries + ascending.entries)
    announce("loop-space demo",
             induced.passed and ascending.passed and exact and elapsed <= 1.0,
             f"{elapsed:.3f}s, worst residual "
             f"{max(e.residual for e in induced.entries + ascending.entries):.2e}")


def test_criterion_9_fd_convergence():
    # halving the FD step on polynomial data reduces every derivative-based
    # residual by >= 3.5x (second-order contract)
    rng = np.random.default_rng(139)
    ratios = {}

    # residual 1: Lie bracket against the exact polynomial bracket
    x_polys = [Poly(2, {(3, 0): 0.6, (1, 1): -0.2}), Poly(2, {(0, 3): 0.8})]
    y_polys = [Poly(2, {(2, 1): 0.4}), Poly(2, {(1, 2): -0.5, (3, 0): 0.3})]
    p = np.array([0.25, 0.15])
    exact = lie_bracket(VectorField.from_polys(x_polys),
                        VectorField.from_polys(y_polys))(p)

    def bracket_err(h):
        xf = VectorField(2, VectorField.from_polys(x_polys).fn, step=h)
        yf = VectorField(2, VectorField.from_polys(y_polys).fn, step=h)
        return np.linalg.norm(lie_bracket(xf, yf)(p) - exact)

    ratios["lie_bracket"] = bracket_err(1e-2) / bracket_err(5e-3)

    # residual 2: Christoffel symbols of a cubic polynomial metric
    entries = [[Poly(2, {(0, 0): 1.5, (3, 0): 0.1, (1, 2): 0.05}),
                Poly(2, {(2, 1): 0.08})],
               [Poly(2, {(2, 1): 0.08}),
                Poly(2, {(0, 0): 2.0, (0, 3): 0.12})]]
    exact_metric = TensorFieldOnChart.from_polys(entries, "2,0")
    gamma_exact = levi_civita(exact_metric)(p)

    def gamma_err(h):
        fd = TensorFieldOnChart(2, "2,0", exact_metric.fn, step=h)
        return np.linalg.norm(levi_civita(fd)(p) - gamma_exact)

    ratios["christoffel"] = gamma_err(1e-2) / gamma_err(5e-3)

    # residual 3: curvature of the same metric (FD in the outer derivative)
    conn = levi_civita(exact_metric)
    riem_exact = curvature(conn, p, step=1e-6)

    def curv_err(h):
        return np.linalg.norm(curvature(conn, p, step=h) - riem_exact)

    ratios["curvature"] = curv_err(1e-2) / curv_err(5e-3)

    # residual 4: bracket-defect tensor of a cubic endomorphism field
    from tensorstruct.calculus import nijenhuis
    a_entries = [[Poly(2, {(0, 0): 1.0, (3, 0): 0.2}),
                  Poly(2, {(1, 2): 0.3})],
                 [Poly(2, {(2, 1): -0.25}),
                  Poly(2, {(0, 0): -1.0, (0, 3): 0.15})]]
    a_exact = TensorFieldOnChart.from_polys(a_entries, "1,1", symmetry="none")
    e1 = VectorField.coordinate(2, 0)
    e2 = VectorField.coordinate(2, 1)
    defect_exact = nijenhuis(a_exact, e1, e2, p)

    def defect_err(h):
        fd = TensorFieldOnChart(2, "1,1", a_exact.fn, step=h, symmetry="none")
        return np.linalg.norm(nijenhuis(fd, e1, e2, p) - defect_exact)

    ratios["defect_tensor"] = defect_err(1e-2) / defect_err(5e-3)

    ok = all(r >= 3.5 for r in ratios.values())
    announce("finite-difference convergence", ok,
             ", ".join(f"{k} x{v:.2f}" for k, v in ratios.items()))
