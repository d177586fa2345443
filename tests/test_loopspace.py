import contextlib
import io
import json

import numpy as np
import pytest

from tensorstruct import cli, compat, loopspace
from tensorstruct.calculus import TensorFieldOnChart, grid_points, is_integrable_structure
from tensorstruct.errors import ShapeMismatch
from tensorstruct.linalg import DEFAULT_TOL, Tolerance
from tensorstruct.loopspace import (
    DiscretizedLoopSpace,
    ascending_coherence,
    block_kahler_target,
    block_para_target,
    check_induced_compatibility,
    induced_forms,
)

RNG = np.random.default_rng(20240813)


def unit_circle_loop(n, dim):
    angles = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    loop = np.zeros((n, dim))
    loop[:, 0] = np.cos(angles)
    loop[:, 1] = np.sin(angles)
    return loop


def test_weights_default_uniform_and_validated():
    space = DiscretizedLoopSpace(block_kahler_target(1), unit_circle_loop(8, 2))
    np.testing.assert_allclose(space.weights, np.full(8, 1 / 8))
    with pytest.raises(ValueError):
        DiscretizedLoopSpace(block_kahler_target(1), unit_circle_loop(8, 2),
                             weights=np.full(8, 1.0))


def test_empty_loops_and_nonfinite_weights_are_rejected():
    target = block_kahler_target(1)
    with pytest.raises(ShapeMismatch, match="at least one sample"):
        DiscretizedLoopSpace(target, np.zeros((0, 2)))
    for weights in (np.full(4, np.nan), [0.5, 0.5, np.nan, 0.0], [np.inf, 0.5, 0.25, 0.25]):
        with pytest.raises(ValueError, match="finite"):
            DiscretizedLoopSpace(target, unit_circle_loop(4, 2), weights=weights)


def test_induced_signature_is_counted_under_the_checks_tolerance():
    # a neutral metric whose negative eigenvalue is 1e-3: zero to rtol 1e-2
    from tensorstruct.compat import CompatibleTriple
    from tensorstruct.structures import BilinearForm

    para = block_para_target(1)
    target = CompatibleTriple(para.omega, BilinearForm(np.diag([1.0, -1e-3]), "symmetric"),
                              para.structure, "para_kahler")
    space = DiscretizedLoopSpace(target, unit_circle_loop(4, 2))
    for tol, location in ((Tolerance(), "signature (4, 4)"),
                          (Tolerance(1e-9, 1e-2), "signature (4, 0)")):
        [entry] = [e for e in check_induced_compatibility(space, trials=0, tol=tol).entries
                   if e.name == "metric_neutral"]
        assert (entry.passed, entry.location) == (location == "signature (4, 4)", location)


def test_constant_tangents_reproduce_target_values():
    target = block_kahler_target(1)
    space = DiscretizedLoopSpace(target, unit_circle_loop(8, 2))
    x = np.tile([1.0, 0.0], (8, 1))
    y = np.tile([0.0, 1.0], (8, 1))
    o, g, _ = induced_forms(space, x, y)
    assert o == pytest.approx(target.omega(np.array([1.0, 0.0]),
                                           np.array([0.0, 1.0])))
    assert g == pytest.approx(0.0, abs=1e-14)


def test_structure_image_links_form_and_metric():
    target = block_kahler_target(2)
    space = DiscretizedLoopSpace(target, unit_circle_loop(8, 4))
    x = RNG.normal(size=(8, 4))
    _, _, ix = induced_forms(space, x, x)
    o_x_ix, g_xx, _ = induced_forms(space, x, ix)
    # with Y = I X pointwise: g(X, X) = Omega(X, I X) = Omega(X, Y)
    _, g_plain, _ = induced_forms(space, x, x)
    assert g_plain == pytest.approx(o_x_ix)


def test_induced_form_antisymmetric_exactly():
    target = block_kahler_target(1)
    space = DiscretizedLoopSpace(target, unit_circle_loop(16, 2))
    x = RNG.normal(size=(16, 2))
    y = RNG.normal(size=(16, 2))
    o_xy, _, _ = induced_forms(space, x, y)
    o_yx, _, _ = induced_forms(space, y, x)
    assert o_xy == pytest.approx(-o_yx, abs=1e-14)


def test_induced_compatibility_kahler():
    space = DiscretizedLoopSpace(block_kahler_target(1), unit_circle_loop(8, 2))
    rep = check_induced_compatibility(space, trials=20, rng=np.random.default_rng(1))
    assert rep.passed


def test_induced_compatibility_para_reports_signature():
    space = DiscretizedLoopSpace(block_para_target(1), unit_circle_loop(8, 2))
    rep = check_induced_compatibility(space, trials=20, rng=np.random.default_rng(2))
    assert rep.passed
    sig_entries = [e for e in rep.entries if e.name == "metric_neutral"]
    assert sig_entries and "(8, 8)" in sig_entries[0].location


def test_mismatched_structure_fails_compatibility():
    from tensorstruct.compat import CompatibleTriple
    from tensorstruct.structures import ComplexStructure

    good = block_kahler_target(1)
    bad = CompatibleTriple(good.omega, good.metric,
                           ComplexStructure(-good.structure.matrix), "kahler")
    space = DiscretizedLoopSpace(bad, unit_circle_loop(8, 2))
    rep = check_induced_compatibility(space, trials=10, rng=np.random.default_rng(3))
    assert not rep.passed


def test_tangent_shape_mismatch_raises():
    space = DiscretizedLoopSpace(block_kahler_target(1), unit_circle_loop(8, 2))
    with pytest.raises(ShapeMismatch):
        induced_forms(space, np.zeros((4, 2)), np.zeros((8, 2)))


# ---------------------------------------------------------------------------
# quadrature behaviour
# ---------------------------------------------------------------------------

def test_refinement_exact_for_constant_integrands():
    target = block_kahler_target(1)
    x = np.array([1.0, 0.5])
    y = np.array([-0.3, 2.0])
    vals = []
    for n in (8, 16, 32):
        space = DiscretizedLoopSpace(target, unit_circle_loop(n, 2))
        o, g, _ = induced_forms(space, np.tile(x, (n, 1)), np.tile(y, (n, 1)))
        vals.append((o, g))
    for other in vals[1:]:
        assert vals[0][0] == pytest.approx(other[0], abs=1e-14)
        assert vals[0][1] == pytest.approx(other[1], abs=1e-14)


def test_refinement_converges_for_smooth_integrands():
    # X_t depends smoothly on the sample angle; compare against the N = 4096
    # reference and watch the error drop as N doubles
    target = block_kahler_target(1)

    def tangents(n):
        angles = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        x = np.stack([np.cos(angles) + 0.2, np.sin(2 * angles)], axis=1)
        y = np.stack([np.sin(angles) - 0.1, np.cos(angles) ** 2], axis=1)
        return x, y

    def value(n):
        space = DiscretizedLoopSpace(target, unit_circle_loop(n, 2))
        x, y = tangents(n)
        return induced_forms(space, x, y)[0]

    reference = value(4096)
    errs = [abs(value(n) - reference) for n in (8, 16, 32)]
    assert errs[0] > errs[1] > errs[2] or errs[0] <= 1e-12


def test_pointwise_defect_vanishes_for_constant_target_structure():
    # the induced structure acts pointwise by the constant target structure,
    # whose bracket defect vanishes identically
    target = block_kahler_target(2)
    field = TensorFieldOnChart.constant(target.structure.matrix, "1,1")
    grid = grid_points([-0.5] * 4, [0.5] * 4, 2)
    report = is_integrable_structure(field, "complex", grid, tol=Tolerance(atol=1e-9, rtol=0.0))
    assert report.passed
    assert report.notes == ["verdict: formally integrable"]


# ---------------------------------------------------------------------------
# ascending families
# ---------------------------------------------------------------------------

def test_ascending_coherence_kahler_three_levels():
    targets = [block_kahler_target(m) for m in (1, 2, 3)]
    rep = ascending_coherence(targets, samples=8, rng=np.random.default_rng(4))
    assert rep.passed
    agreement = [e for e in rep.entries if e.name.startswith("induced_agreement")]
    assert agreement and all(e.residual <= 1e-12 for e in agreement)


def test_ascending_coherence_para_variant():
    targets = [block_para_target(m) for m in (1, 2, 3)]
    rep = ascending_coherence(targets, samples=8, rng=np.random.default_rng(5))
    assert rep.passed


@pytest.mark.parametrize("flavor", ["kahler", "para_kahler"])
def test_ascending_coherence_reads_the_reports_that_completed_its_targets(flavor):
    # block_target returns the check_triple report that accepted the
    # triple; given those, ascending_coherence gives the report it gives
    # when it checks each target itself
    targets, reports = zip(*(loopspace.block_target(m, flavor) for m in (1, 2, 3)))
    complete = block_kahler_target if flavor == "kahler" else block_para_target
    for m, triple, report in zip((1, 2, 3), targets, reports):
        assert report == compat.check_triple(triple)
        assert np.array_equal(triple.metric_matrix, complete(m).metric_matrix)
    given = ascending_coherence(targets, 8, rng=np.random.default_rng(5), reports=reports)
    checked = ascending_coherence(targets, 8, rng=np.random.default_rng(5))
    assert given.passed and given == checked
    with pytest.raises(ShapeMismatch, match="2 reports for 3 targets"):
        ascending_coherence(targets, 8, reports=reports[:2])


def test_ascending_coherence_detects_perturbed_level():
    from tensorstruct.compat import CompatibleTriple
    from tensorstruct.structures import ComplexStructure

    targets = [block_kahler_target(m) for m in (1, 2, 3)]
    bad_matrix = targets[1].structure.matrix.copy()
    bad_matrix[0, 1] += 1e-3
    targets[1] = CompatibleTriple(targets[1].omega, targets[1].metric,
                                  ComplexStructure(bad_matrix), "kahler")
    rep = ascending_coherence(targets, samples=8, rng=np.random.default_rng(6))
    failed = {e.name for e in rep.failures()}
    assert any(name.startswith("structure/coherent[0,1]")
               or name.startswith("structure/coherent[1,2]") for name in failed)


# ---------------------------------------------------------------------------
# the command's tolerance, and one check per target
# ---------------------------------------------------------------------------

def cli_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.run(argv)
    return status, out.getvalue(), err.getvalue()


@pytest.fixture
def completions(monkeypatch):
    """The ``Tolerance`` of every ``complete_pair`` call, through the name
    each module calls it by."""
    seen = []
    complete_pair = compat.complete_pair

    def recorded(first, second, flavor="kahler", tol=DEFAULT_TOL):
        seen.append(tol)
        return complete_pair(first, second, flavor, tol)

    monkeypatch.setattr(compat, "complete_pair", recorded)
    monkeypatch.setattr(loopspace, "complete_pair", recorded)
    return seen


def loop_doc(flavor, pairs):
    rng = np.random.default_rng(pairs)
    return {"target": {"flavor": flavor, "pairs": pairs}, "samples": 4,
            "loop": rng.normal(size=(4, 2 * pairs)).tolist()}


def test_loopspace_demo_completes_its_targets_under_the_command_tolerance(completions):
    status, out, err = cli_run(["--atol", "1e-7", "--seed", "1", "loopspace", "demo",
                                "--levels", "3", "--samples", "4"])
    assert (status, err) == (0, "")
    assert completions == [Tolerance(1e-7, 1e-9)] * 3


@pytest.mark.parametrize("flavor", ["kahler", "para_kahler"])
def test_a_pairs_loop_target_is_completed_under_the_command_tolerance(
        flavor, completions, tmp_path):
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(loop_doc(flavor, 2)))
    status, out, err = cli_run(["--atol", "1e-7", "--rtol", "1e-8", "--seed", "1",
                                "loopspace", "check", str(path)])
    assert (status, err) == (0, "")
    assert completions == [Tolerance(1e-7, 1e-8)]


def test_a_pairs_loop_target_is_judged_by_the_command_tolerance(tmp_path):
    # under --atol 10 the unit form of the block target is numerically zero,
    # as validate judges it; the default tolerance completed it
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(loop_doc("kahler", 1)))
    assert cli_run(["--atol", "10", "--seed", "1", "loopspace", "check", str(path)]) == (
        1, "", "error: constructed form is degenerate\n")
    assert cli_run(["--seed", "1", "loopspace", "check", str(path)])[0] == 0


@pytest.mark.parametrize("levels", [1, 2, 3, 4])
def test_loopspace_demo_checks_each_target_once(levels, monkeypatch):
    calls = []
    check_triple = compat.check_triple

    def counted(triple, tol=DEFAULT_TOL, **kwargs):
        calls.append(triple)
        return check_triple(triple, tol, **kwargs)

    monkeypatch.setattr(compat, "check_triple", counted)
    monkeypatch.setattr(loopspace, "check_triple", counted)
    status, out, err = cli_run(["--json", "--seed", "2", "loopspace", "demo",
                                "--levels", str(levels), "--samples", "4"])
    assert (status, err) == (0, "")
    assert [t.dim for t in calls] == [2 * m for m in range(1, levels + 1)]
    # every level keeps its entry, with the residual of a fresh check
    entries = {e["name"]: e for e in json.loads(out)["entries"]}
    for lvl, triple in enumerate(calls):
        entry = entries[f"ascending/target_compatible[{lvl}]"]
        fresh = check_triple(triple)
        assert (entry["passed"], entry["residual"]) == (fresh.passed, fresh.worst_residual)
