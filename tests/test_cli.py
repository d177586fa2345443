import json

import numpy as np
import pytest

from tensorstruct import cli
from tensorstruct.cli import run
from tensorstruct.documents import (
    DocumentError,
    field_step,
    parse_atlas,
    parse_field,
    parse_pair,
    parse_structure,
    parse_tower,
)
from tensorstruct.errors import TensorStructError


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def complex_canonical_doc():
    return {"kind": "complex", "dim": 2, "matrix": [[0.0, -1.0], [1.0, 0.0]]}


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return [[c, -s], [s, c]]


# ---------------------------------------------------------------------------
# document parsing
# ---------------------------------------------------------------------------

def test_parse_structure_kinds():
    s = parse_structure(complex_canonical_doc())
    np.testing.assert_allclose(s.matrix, [[0, -1], [1, 0]])
    k = parse_structure({"kind": "krein", "matrix": [[1.0, 0.0], [0.0, -1.0]]})
    assert k.signature == (1, 1)
    t = parse_structure({"kind": "tangent", "matrix": [[0.0, 1.0], [0.0, 0.0]]})
    assert t.kernel_basis.shape == (2, 1)


def test_parse_structure_rejects_unknown_kind():
    with pytest.raises(DocumentError):
        parse_structure({"kind": "mystery", "matrix": [[1.0]]})


def test_parse_pair_requires_exactly_two():
    with pytest.raises(DocumentError):
        parse_pair({"given": {"g": [[1.0]]}})


def test_parse_tower_padding_default():
    bonding, seq = parse_tower({"variance": "direct", "dims": [1, 2],
                                "sequence": {"kind": "1,1",
                                             "levels": [[[1.0]],
                                                        [[1.0, 0.0], [0.0, 2.0]]]}})
    assert bonding.map(0, 1).shape == (2, 1)
    assert seq.kind == "1,1"


def test_parse_field_builtins():
    field, grid = parse_field({"dim": 2,
                               "field": {"name": "sphere_stereographic"},
                               "grid": {"counts": 3}})
    assert grid.shape == (9, 2)
    assert field(np.zeros(2))[0, 0] == pytest.approx(4.0)


@pytest.mark.parametrize("doc, fd_step", [({"fd_step": 0}, None), ({"fd_step": -1e-3}, 1e-5),
                                          ({}, 0.0), ({}, float("nan"))])
def test_field_step_must_be_positive(doc, fd_step):
    with pytest.raises(DocumentError, match="fd_step must be positive"):
        field_step(doc, fd_step)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_validate_canonical_complex_exits_zero(tmp_path, capsys):
    path = write(tmp_path, "structure.json", complex_canonical_doc())
    assert run(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_validate_bad_structure_exits_one(tmp_path):
    doc = {"kind": "complex", "matrix": [[1.0, 0.0], [0.0, 1.0]]}
    path = write(tmp_path, "structure.json", doc)
    assert run(["validate", path]) == 1


def test_parse_error_exits_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(["validate", str(path)]) == 2


def test_missing_file_exits_two():
    assert run(["validate", "/nonexistent/never.json"]) == 2


def test_triple_complete_canonical(tmp_path, capsys):
    pair = {"flavor": "kahler",
            "given": {"g": [[1.0, 0.0], [0.0, 1.0]],
                      "omega": [[0.0, 1.0], [-1.0, 0.0]]}}
    path = write(tmp_path, "pair.json", pair)
    assert run(["--json", "triple", "complete", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    structure_note = [n for n in payload["notes"] if n.startswith("structure=")][0]
    matrix = json.loads(structure_note.split("=", 1)[1])
    np.testing.assert_allclose(matrix, [[0, -1], [1, 0]], atol=1e-10)


def test_darboux_subcommand(tmp_path, capsys):
    doc = {"kind": "symplectic", "matrix": [[0.0, 3.0], [-3.0, 0.0]]}
    path = write(tmp_path, "form.json", doc)
    assert run(["--json", "darboux", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    basis_note = [n for n in payload["notes"] if n.startswith("basis=")][0]
    basis = np.asarray(json.loads(basis_note.split("=", 1)[1]))
    s = np.array([[0.0, 3.0], [-3.0, 0.0]])
    np.testing.assert_allclose(basis.T @ s @ basis, [[0, 1], [-1, 0]], atol=1e-10)


def atlas_doc(perturb=0.0):
    pts = [[0.1, 0.2], [0.3, -0.1]]
    t13 = np.asarray(rotation(0.8))
    if perturb:
        t13 = t13 + perturb * np.array([[0.0, 1.0], [0.0, 0.0]])
    return {
        "fiber_dim": 2,
        "charts": [{"name": n, "lo": [-1, -1], "hi": [1, 1], "samples": pts}
                   for n in "abc"],
        "overlaps": [
            {"charts": ["a", "b"], "points": pts,
             "transition": {"constant": rotation(0.3)}},
            {"charts": ["b", "c"], "points": pts,
             "transition": {"constant": rotation(0.5)}},
            {"charts": ["a", "c"], "points": pts,
             "transition": {"constant": t13.tolist()}},
        ],
        "triples": [{"charts": ["a", "b", "c"], "points": pts}],
    }


def test_cocycle_subcommand_pass_and_fail(tmp_path):
    good = write(tmp_path, "good.json", atlas_doc())
    assert run(["cocycle", good]) == 0
    bad = write(tmp_path, "bad.json", atlas_doc(perturb=1e-3))
    assert run(["cocycle", bad]) == 1


def test_reduce_subcommand(tmp_path):
    atlas = write(tmp_path, "atlas.json", atlas_doc())
    tensor = write(tmp_path, "tensor.json",
                   {"kind": "1,1", "matrix": [[0.0, -1.0], [1.0, 0.0]]})
    assert run(["reduce", atlas, tensor]) == 0
    bad_tensor = write(tmp_path, "bad_tensor.json",
                       {"kind": "1,1", "matrix": [[1.0, 0.0], [0.0, 2.0]]})
    assert run(["reduce", atlas, bad_tensor]) == 1


def test_reduce_with_field_document(tmp_path):
    atlas = write(tmp_path, "atlas.json", atlas_doc())
    tensor = write(tmp_path, "tensor.json",
                   {"kind": "2,0", "matrix": [[1.0, 0.0], [0.0, 1.0]],
                    "symmetry": "symmetric"})
    # identity transitions are not required; rotations preserve the identity
    # form, and a constant SPD field is locally modelled on it
    field = write(tmp_path, "field.json",
                  {"dim": 2, "field": {"name": "constant", "kind": "2,0",
                                       "matrix": [[2.0, 0.3], [0.3, 1.0]]}})
    assert run(["reduce", atlas, tensor, "--field", field]) == 0


def test_reduce_digest_covers_the_field_document(tmp_path, capsys):
    atlas = write(tmp_path, "atlas.json", atlas_doc())
    tensor = write(tmp_path, "tensor.json",
                   {"kind": "2,0", "matrix": [[1.0, 0.0], [0.0, 1.0]],
                    "symmetry": "symmetric"})

    def digest(matrix):
        field = write(tmp_path, "field.json",
                      {"dim": 2, "field": {"name": "constant", "kind": "2,0",
                                           "matrix": matrix}})
        assert run(["--json", "reduce", atlas, tensor, "--field", field]) == 0
        return json.loads(capsys.readouterr().out)["inputs_digest"]

    first, second = digest([[2.0, 0.3], [0.3, 1.0]]), digest([[3.0, 0.3], [0.3, 1.0]])
    assert first != second
    assert first.split(",")[:2] == second.split(",")[:2]
    assert len(first.split(",")) == 3


def test_nan_in_pair_exits_two(tmp_path):
    pair = {"flavor": "kahler",
            "given": {"g": [[float("nan"), 0.0], [0.0, 1.0]],
                      "omega": [[0.0, 1.0], [-1.0, 0.0]]}}
    assert run(["triple", "complete", write(tmp_path, "pair.json", pair)]) == 2


def test_undeclared_chart_exits_two(tmp_path):
    doc = atlas_doc()
    doc["overlaps"].append(dict(doc["overlaps"][0], charts=["a", "zz"]))
    assert run(["cocycle", write(tmp_path, "overlap.json", doc)]) == 2
    doc = atlas_doc()
    doc["triples"][0]["charts"] = ["a", "b", "zz"]
    assert run(["cocycle", write(tmp_path, "triple.json", doc)]) == 2


def test_triple_without_a_transition_exits_two(tmp_path, capsys):
    # overlaps a-b and b-c only: T_ac of the triple (a, b, c) is undeclared
    doc = atlas_doc()
    doc["overlaps"] = doc["overlaps"][:2]
    atlas = write(tmp_path, "atlas.json", doc)
    tensor = write(tmp_path, "tensor.json",
                   {"kind": "1,1", "matrix": [[0.0, -1.0], [1.0, 0.0]]})
    for argv in (["cocycle", atlas], ["reduce", atlas, tensor]):
        assert run(argv) == 2
        assert "no transition declared between 'a' and 'c'" in capsys.readouterr().err


def flat_field_doc():
    return {"dim": 2,
            "field": {"name": "pullback_flat",
                      "base_metric": [[1.0, 0.0], [0.0, 1.0]],
                      "diffeo": [[[1, 0, 1.0], [0, 2, 0.05]],
                                 [[0, 1, 1.0], [2, 0, -0.05]]]},
            "grid": {"counts": 3}}


def connection_doc():
    zero2 = np.zeros((2, 2)).tolist()
    zero3 = np.zeros((3, 3)).tolist()
    return {"variance": "direct", "dims": [2, 3],
            "forms": [{"coeffs": [zero2, zero2]},
                      {"coeffs": [zero3, zero3, zero3]}],
            "models": [{"kind": "2,0", "matrix": np.eye(2).tolist()},
                       {"kind": "2,0", "matrix": np.eye(3).tolist()}],
            "sample_points": [[0.1, -0.2]],
            "morphisms": [{"levels": [0, 1], "left": np.eye(3)[:, :2].tolist(),
                           "right": np.eye(3)[:2].tolist()}]}


def loop_doc():
    return {"target": {"flavor": "kahler", "pairs": 1}, "loop": np.zeros((4, 2)).tolist()}


LOOP_CHECK = ["--seed", "1", "loopspace", "check"]


def _set(path, value):
    """Edit a copy of a document: set the entry at ``path`` to ``value``."""
    def edit(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return doc
    return edit


# (subcommand, valid document, edit that breaks one field): one case per
# scalar field made non-numeric, then numbers of the wrong value or shape
MALFORMED = {
    "structure dim": (["validate"], complex_canonical_doc, _set(["dim"], "x")),
    "field dim": (["curvature"], flat_field_doc, _set(["dim"], "x")),
    "fiber_dim": (["cocycle"], atlas_doc, _set(["fiber_dim"], "x")),
    "tower dims": (["tower", "check"], connection_doc, _set(["dims", 1], "x")),
    "diffeo exponent": (["curvature"], flat_field_doc,
                        _set(["field", "diffeo", 0, 0, 0], "x")),
    "diffeo coefficient": (["curvature"], flat_field_doc,
                           _set(["field", "diffeo", 0, 0, 2], None)),
    "grid counts": (["curvature"], flat_field_doc, _set(["grid", "counts"], "x")),
    "grid counts entry": (["curvature"], flat_field_doc, _set(["grid", "counts"], [3, {}])),
    "loop pairs": (LOOP_CHECK, loop_doc, _set(["target", "pairs"], "x")),
    "morphism levels": (["connection", "check"], connection_doc,
                        _set(["morphisms", 0, "levels"], ["x", 1])),
    "fd_step": (["curvature"], flat_field_doc, _set(["fd_step"], "x")),
    "fd_step zero": (["curvature"], flat_field_doc, _set(["fd_step"], 0)),
    "fd_step negative": (["curvature"], flat_field_doc, _set(["fd_step"], -1e-5)),
    "grid counts zero": (["curvature"], flat_field_doc, _set(["grid", "counts"], 0)),
    "grid counts entry zero": (["curvature"], flat_field_doc,
                               _set(["grid", "counts"], [3, 0])),
    "loop pairs below one": (LOOP_CHECK, loop_doc, _set(["target", "pairs"], -1)),
    "model shape": (["connection", "check"], connection_doc,
                    _set(["models", 1, "matrix"], np.eye(2).tolist())),
    "model kind": (["connection", "check"], connection_doc, _set(["models", 0, "kind"], "0,2")),
    "form size": (["connection", "check"], connection_doc,
                  _set(["forms", 0, "coeffs"], [np.zeros((3, 3)).tolist()] * 2)),
}


@pytest.mark.parametrize("field", MALFORMED)
def test_malformed_field_exits_two(field, tmp_path, capsys):
    command, make, edit = MALFORMED[field]
    path = write(tmp_path, "doc.json", make())
    assert run([*command, path]) in (0, 1)  # the unedited document is valid
    capsys.readouterr()
    path = write(tmp_path, "doc.json", edit(make()))
    assert run([*command, path]) == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("step", ["0", "-1e-5", "inf", "nan", "x"])
def test_fd_step_flag_must_be_positive_and_finite(step, tmp_path, capsys):
    path = write(tmp_path, "flat.json", flat_field_doc())
    assert run([f"--fd-step={step}", "curvature", path]) == 2
    assert "--fd-step" in capsys.readouterr().err


def test_connection_form_shorter_than_its_level_exits_two(tmp_path):
    zero2 = np.zeros((2, 2)).tolist()
    zero3 = np.zeros((3, 3)).tolist()
    doc = {"variance": "direct", "dims": [2, 3],
           "forms": [{"coeffs": [zero2, zero2]}, {"coeffs": [zero3, zero3]}],
           "models": [{"kind": "2,0", "matrix": np.eye(2).tolist()},
                      {"kind": "2,0", "matrix": np.eye(3).tolist()}],
           "sample_points": [[0.1, -0.2]]}
    assert run(["connection", "check", write(tmp_path, "conn.json", doc)]) == 2


@pytest.mark.parametrize("flag", ["--levels", "--samples"])
def test_loopspace_demo_rejects_counts_below_one(flag, capsys):
    assert run(["--seed", "1", "loopspace", "demo", flag, "0"]) == 2
    assert "at least 1" in capsys.readouterr().err
    assert run(["--seed", "1", "loopspace", "demo", flag, "1"]) == 0


def test_loopspace_check_document(tmp_path):
    loop = np.random.default_rng(0).normal(size=(8, 2)).tolist()
    doc = {"target": {"flavor": "kahler", "pairs": 1},
           "samples": 8, "loop": loop,
           "tangents": {"x": np.ones((8, 2)).tolist(),
                        "y": (np.ones((8, 2)) * 0.5).tolist()}}
    path = write(tmp_path, "loop.json", doc)
    assert run(["--seed", "1", "loopspace", "check", path]) == 0


def test_nijenhuis_subcommand(tmp_path, capsys):
    doc = {"dim": 2,
           "field": {"name": "pullback_structure",
                     "base_matrix": [[0.0, 1.0], [0.0, 0.0]],
                     "diffeo": [[[1, 0, 1.0], [2, 0, 0.1]],
                                [[0, 1, 1.0], [0, 2, -0.1]]]},
           "grid": {"counts": 3}}
    path = write(tmp_path, "field.json", doc)
    assert run(["nijenhuis", path, "--kind", "tangent"]) == 0
    capsys.readouterr()
    assert run(["--json", "nijenhuis", path, "--kind", "tangent"]) == 0
    payload = json.loads(capsys.readouterr().out)
    [entry] = payload["entries"]
    assert entry["name"] == "defect_tensor_tangent"
    assert (entry["residual"], entry["location"]) == (0.0, "")
    assert payload["notes"] == ["verdict: integrable"]


def test_curvature_subcommand(tmp_path, capsys):
    sphere = write(tmp_path, "sphere.json",
                   {"dim": 2, "field": {"name": "sphere_stereographic"},
                    "grid": {"counts": 3}})
    assert run(["curvature", sphere]) == 1  # curved: not integrable
    capsys.readouterr()
    assert run(["--json", "curvature", sphere]) == 1
    payload = json.loads(capsys.readouterr().out)
    [entry] = payload["entries"]
    assert entry["name"] == "curvature_residual"
    # |R| = 8 / (1 + |x|^2)^2 on the stereographic chart peaks at the origin
    assert entry["location"] == np.array2string(np.zeros(2), precision=3)
    assert entry["residual"] == pytest.approx(8.0, rel=1e-6)
    assert payload["notes"] == ["verdict: not integrable"]
    flat = write(tmp_path, "flat.json",
                 {"dim": 2,
                  "field": {"name": "pullback_flat",
                            "base_metric": [[1.0, 0.0], [0.0, 1.0]],
                            "diffeo": [[[1, 0, 1.0], [0, 2, 0.05]],
                                       [[0, 1, 1.0], [2, 0, -0.05]]]},
                  "grid": {"counts": 3}})
    assert run(["curvature", flat]) == 0
    capsys.readouterr()
    assert run(["--json", "curvature", flat]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [e["name"] for e in payload["entries"]] == ["curvature_residual"]
    assert payload["notes"] == ["verdict: integrable"]


def test_curvature_step_follows_fd_step_for_polynomial_metrics(tmp_path, capsys):
    # curvature differentiates the exact Christoffel symbols by central
    # differences, so the step must come from the document, else --fd-step
    doc = {"dim": 2,
           "field": {"name": "pullback_flat",
                     "base_metric": [[1.0, 0.0], [0.0, -1.0]],
                     "diffeo": [[[1, 0, 1.0], [0, 2, 0.1], [3, 0, 0.05]],
                                [[0, 1, 1.0], [2, 0, -0.1], [1, 2, 0.05]]]},
           "grid": {"counts": 3}}

    def residual(doc, *flags):
        path = write(tmp_path, "flat.json", doc)
        assert run(["--json", *flags, "curvature", path]) in (0, 1)
        return json.loads(capsys.readouterr().out)["entries"][0]["residual"]

    coarse, default, fine = (residual(doc, "--fd-step", h) for h in ("1e-2", "1e-5", "1e-7"))
    assert coarse > 100.0 * default
    assert fine != default
    assert residual(doc) == default
    assert residual(dict(doc, fd_step=1e-2), "--fd-step", "1e-5") == coarse


def test_tower_check_subcommand(tmp_path):
    doc = {"variance": "direct", "dims": [1, 2, 3],
           "sequence": {"kind": "1,1",
                        "levels": [[[1.0]],
                                   [[1.0, 0.0], [0.0, 2.0]],
                                   [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0],
                                    [0.0, 0.0, 3.0]]]}}
    path = write(tmp_path, "tower.json", doc)
    assert run(["tower", "check", path]) == 0
    doc["sequence"]["levels"][2][0][0] = 9.0
    bad = write(tmp_path, "bad_tower.json", doc)
    assert run(["tower", "check", bad]) == 1


def test_connection_check_subcommand(tmp_path):
    zero2 = np.zeros((2, 2)).tolist()
    zero3 = np.zeros((3, 3)).tolist()
    doc = {"variance": "direct", "dims": [2, 3],
           "forms": [{"coeffs": [zero2, zero2]},
                     {"coeffs": [zero3, zero3, zero3]}],
           "models": [{"kind": "2,0", "matrix": np.eye(2).tolist()},
                      {"kind": "2,0", "matrix": np.eye(3).tolist()}],
           "sample_points": [[0.1, -0.2], [0.3, 0.4]]}
    path = write(tmp_path, "conn.json", doc)
    assert run(["connection", "check", path]) == 0


def test_loopspace_demo(capsys):
    assert run(["loopspace", "demo", "--levels", "2", "--samples", "8"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_loopspace_demo_json_requires_seed(capsys):
    assert run(["--json", "loopspace", "demo"]) == 2
    assert run(["--json", "--seed", "7", "loopspace", "demo"]) == 0


def test_json_report_round_trip(tmp_path, capsys):
    path = write(tmp_path, "structure.json", complex_canonical_doc())
    assert run(["--json", "validate", path]) == 0
    first = capsys.readouterr().out
    payload = json.loads(first)
    # residuals survive the round trip exactly
    assert json.dumps(payload, indent=2, sort_keys=True) == first.strip()
    assert payload["exit_status"] == 0
    assert payload["inputs_digest"]


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_entries(out):
    """The entries of a ``--json`` report parsed by a strict JSON parser."""
    return json.loads(out, parse_constant=_reject_constant)["entries"]


def test_singular_iso_residual_is_strict_json(tmp_path, capsys):
    doc = dict(complex_canonical_doc(),
               decomposition={"basis1": [[1.0, 0.0]], "basis2": [[0.0, 1.0]],
                              "iso": [[0.0]]})
    assert run(["--json", "validate", write(tmp_path, "structure.json", doc)]) == 1
    [entry] = [e for e in strict_entries(capsys.readouterr().out)
               if e["name"] == "decomposition_block_form"]
    assert entry["location"] == "iso singular"
    assert float(entry["residual"]) == np.inf


def test_missing_chart_field_residual_is_strict_json(tmp_path, capsys, monkeypatch):
    # the CLI puts its one field document on every chart, so drop chart b
    def field_without_b(fdoc, atlas):
        field = field_on_charts(fdoc, atlas)
        del field.evaluators["b"]
        return field

    field_on_charts = cli._field_on_charts
    monkeypatch.setattr(cli, "_field_on_charts", field_without_b)
    atlas = write(tmp_path, "atlas.json", atlas_doc())
    tensor = write(tmp_path, "tensor.json", {"kind": "2,0", "matrix": np.eye(2).tolist()})
    field = write(tmp_path, "field.json",
                  {"dim": 2, "field": {"name": "constant", "kind": "2,0",
                                       "matrix": [[2.0, 0.3], [0.3, 1.0]]}})
    assert run(["--json", "reduce", atlas, tensor, "--field", field]) == 1
    [entry] = [e for e in strict_entries(capsys.readouterr().out)
               if e["name"] == "field/modelled[b]"]
    assert entry["location"] == "field missing"
    assert float(entry["residual"]) == np.inf


def test_matrix_notes_with_non_finite_entries_are_errors():
    assert cli._matrix_note("basis", np.eye(2)) == "basis=[[1.0, 0.0], [0.0, 1.0]]"
    with pytest.raises(TensorStructError, match="basis"):
        cli._matrix_note("basis", np.array([[1.0, np.inf]]))


def test_deterministic_output_bytes(tmp_path, capsys):
    path = write(tmp_path, "structure.json", complex_canonical_doc())
    run(["--json", "validate", path])
    first = capsys.readouterr().out
    run(["--json", "validate", path])
    second = capsys.readouterr().out
    assert first == second


def test_seeded_loopspace_deterministic(capsys):
    run(["--json", "--seed", "3", "loopspace", "demo", "--levels", "2"])
    first = capsys.readouterr().out
    run(["--json", "--seed", "3", "loopspace", "demo", "--levels", "2"])
    second = capsys.readouterr().out
    assert first == second
