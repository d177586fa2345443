import argparse
import contextlib
import hashlib
import io
import json
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tensorstruct import cli, documents, structures
from tensorstruct import report as report_module
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
from tensorstruct.linalg import DEFAULT_TOL


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
    s = parse_structure(complex_canonical_doc(), DEFAULT_TOL)
    np.testing.assert_allclose(s.matrix, [[0, -1], [1, 0]])
    k = parse_structure({"kind": "krein", "matrix": [[1.0, 0.0], [0.0, -1.0]]}, DEFAULT_TOL)
    assert k.signature == (1, 1)
    t = parse_structure({"kind": "tangent", "matrix": [[0.0, 1.0], [0.0, 0.0]]}, DEFAULT_TOL)
    assert t.kernel_basis.shape == (2, 1)


def test_parse_structure_rejects_unknown_kind():
    with pytest.raises(DocumentError):
        parse_structure({"kind": "mystery", "matrix": [[1.0]]}, DEFAULT_TOL)


def test_parse_pair_requires_exactly_two():
    with pytest.raises(DocumentError):
        parse_pair({"given": {"g": [[1.0]]}}, DEFAULT_TOL)


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


def test_too_deeply_nested_json_exits_two(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert run(["validate", str(path)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_missing_file_exits_two():
    assert run(["validate", "/nonexistent/never.json"]) == 2


@pytest.mark.parametrize("raw, reason", [
    (json.dumps({**complex_canonical_doc(), "x": "\xff"}, ensure_ascii=False).encode("latin-1"),
     "'utf-8' codec can't decode byte 0xff"),
    (b'{"kind": "complex", "matrix": [[0, -1], [1, ' + b"1" * 5000 + b"]]}",
     "Exceeds the limit (4300 digits) for integer string conversion"),
], ids=["not-utf8", "integer-too-long"])
def test_a_document_json_cannot_decode_exits_two(raw, reason, tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(raw)
    status, out, err = run_captured(["validate", str(path)])
    assert (status, out) == (2, "")
    assert err.startswith(f"parse error: {path} is not valid JSON: {reason}")


def test_a_path_with_a_nul_byte_exits_two():
    status, out, err = run_captured(["validate", "a\0b.json"])
    assert (status, out, err) == (2, "", "parse error: cannot read a\0b.json: embedded null byte\n")


_DOC_BYTES = json.dumps(complex_canonical_doc()).encode()


@settings(max_examples=200, deadline=None)
@given(raw=st.binary() | st.builds(lambda cut, junk: _DOC_BYTES[:cut] + junk + _DOC_BYTES[cut:],
                                   st.integers(0, len(_DOC_BYTES)), st.binary(max_size=4)))
def test_any_bytes_as_a_structure_document_exit_cleanly(raw, tmp_path_factory):
    path = tmp_path_factory.mktemp("bytes") / "doc.json"
    path.write_bytes(raw)
    status, _, err = run_captured(["validate", str(path)])  # raises nothing
    assert status in (0, 1, 2) and "Traceback" not in err


def _canonical_model(kind, n):
    """The matrix of ``kind``'s canonical model on R^n (n even), and whether
    it is a form (moved by congruence) or an endomorphism (by similarity)."""
    if kind in ("complex", "para_complex", "tangent"):
        return getattr(structures, f"{kind}_canonical")(n).matrix, False
    if kind == "krein":
        return np.diag([1.0] * (n // 2) + [-1.0] * (n // 2)), True
    return (np.eye(n) if kind == "bilinear" else structures.symplectic_canonical(n).matrix), True


# the given matrices of each flavor's canonical triple, by their kinds
_PAIR_MODELS = {"kahler": {"g": "bilinear", "omega": "symplectic", "structure": "complex"},
                "para_kahler": {"g": "krein", "omega": "symplectic",
                                "structure": "para_complex"}}


@st.composite
def judged_documents(draw):
    """(argv, document): a structure document of any kind or a pair of any
    flavor, moved from its canonical model by a random change of basis P,
    its forms scaled by 2**k for |k| <= 60, every matrix optionally losing
    rank in its last column."""
    n = 2 * draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = np.eye(n) + rng.uniform(-0.5, 0.5, (n, n)) / n  # diagonally dominant: invertible
    scale = 2.0 ** draw(st.integers(-60, 60))
    drop = np.diag([1.0] * (n - 1) + [0.0 if draw(st.booleans()) else 1.0])

    def moved(kind):
        m, form = _canonical_model(kind, n)
        m = scale * p.T @ m @ p if form else np.linalg.solve(p, m @ p)
        return (m @ drop).tolist()

    what = draw(st.sampled_from([*documents.STRUCTURE.variants, *structures.FLAVORS]))
    if what in structures.FLAVORS:
        models = _PAIR_MODELS[what]
        given = {name: moved(models[name]) for name in draw(
            st.lists(st.sampled_from(sorted(models)), min_size=2, max_size=2, unique=True))}
        if "structure" in given:
            given["structure"] = {"kind": models["structure"], "matrix": given["structure"]}
        return ["triple", "complete"], {"flavor": what, "given": given}
    doc = {"kind": what, "matrix": moved(what)}
    if what == "cotangent":  # the moved form's Lagrangian is P^-1 of the first half
        halves = np.split(np.linalg.inv(p), 2, axis=1)
        doc["decomposition"] = {"lagrangian_basis": halves[0].T.tolist(),
                                "complement_basis": halves[1].T.tolist()}
    return ["validate"], doc


@settings(max_examples=150, deadline=None)
@given(case=judged_documents())
def test_a_well_shaped_document_is_judged_never_refused(case, tmp_path_factory):
    # a well-shaped document is judged under the command's tolerance: it
    # passes or fails (exit 0 or 1), whatever its scale or rank
    argv, doc = case
    path = tmp_path_factory.getbasetemp() / "judged.json"
    path.write_text(json.dumps(doc))
    for flags in ([], ["--atol", "0"]):
        status, _, err = run_captured([*flags, *argv, str(path)])
        assert status in (0, 1) and "parse error" not in err, (flags, err)


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


_SINGULAR_PAIR = {"given": {"g": [[0, 0], [0, 0]], "omega": [[0, 1], [-1, 0]]}}
_SINGULAR_PARA_PAIR = {"flavor": "para_kahler", **_SINGULAR_PAIR}
_NOT_POSITIVE = "metric is not positive definite: smallest eigenvalue 0.000e+00 <= 1.000e-09"
_NOT_NEUTRAL = "metric is not neutral: degenerate metric (zero count 2)"


def _loop_on(pair):
    return {"target": {"pair": pair}, "loop": [[0.1, 0.2], [0.3, 0.4]]}


@pytest.mark.parametrize("argv, doc, message", [
    (["triple", "complete"], _SINGULAR_PAIR, _NOT_POSITIVE),
    (["--seed", "1", "loopspace", "check"], _loop_on(_SINGULAR_PAIR), _NOT_POSITIVE),
    (["triple", "complete"], _SINGULAR_PARA_PAIR, _NOT_NEUTRAL),
    (["--seed", "1", "loopspace", "check"], _loop_on(_SINGULAR_PARA_PAIR), _NOT_NEUTRAL),
], ids=["triple", "loopspace", "triple-para_kahler", "loopspace-para_kahler"])
def test_a_singular_metric_in_a_pair_exits_one(argv, doc, message, tmp_path):
    # the metric is judged under the command's tolerance, before G^-1 S^T
    # is solved, and for both flavors by the completion, not the parser
    path = write(tmp_path, "doc.json", doc)
    assert run_captured([*argv, path]) == (1, "", f"error: {message}\n")


# a structure of each kind that is not (para-)complex, and the two partners
# a pair document can give it
_PAIR_STRUCTURES = {
    "krein": {"kind": "krein", "matrix": [[1, 0], [0, -1]]},
    "bilinear": {"kind": "bilinear", "matrix": [[1, 0], [0, 1]]},
    "tangent": {"kind": "tangent", "matrix": [[0, 1], [0, 0]]},
    "cotangent": {"kind": "cotangent", "matrix": [[0, 1], [-1, 0]], "decomposition": {
        "lagrangian_basis": [[1, 0]], "complement_basis": [[0, 1]]}},
}
_PARTNERS = {"g": [[1, 0], [0, 1]], "omega": [[0, 1], [-1, 0]]}
# a Krein or bilinear structure is a metric, which omega completes where its
# signature fits the flavor; every other pair exits 1, by the completion's
# verdict or, when it is not two of a metric, a form and a (para-)complex
# structure, as one that cannot be completed
_COMPLETES = {("omega", "para_kahler", "krein"), ("omega", "kahler", "bilinear")}
_NOT_A_PAIR = {(partner, flavor, kind) for partner in _PARTNERS
               for flavor in ("kahler", "para_kahler") for kind in _PAIR_STRUCTURES
               if partner == "g" or kind in ("tangent", "cotangent")}


@pytest.mark.parametrize("command", ["triple", "loopspace"])
@pytest.mark.parametrize("kind", sorted(_PAIR_STRUCTURES))
@pytest.mark.parametrize("flavor", ["kahler", "para_kahler"])
@pytest.mark.parametrize("partner", sorted(_PARTNERS))
def test_every_pair_with_a_structure_of_any_kind_exits_without_a_traceback(
        partner, flavor, kind, command, tmp_path):
    pair = {"flavor": flavor, "given": {partner: _PARTNERS[partner],
                                        "structure": _PAIR_STRUCTURES[kind]}}
    argv = ["triple", "complete"] if command == "triple" else [
        "--seed", "1", "loopspace", "check"]
    path = write(tmp_path, "doc.json", pair if command == "triple" else _loop_on(pair))
    status, _, err = run_captured([*argv, path])
    if (partner, flavor, kind) in _COMPLETES:
        assert (status, err) == (0, "")
    else:
        assert status == 1 and err.startswith("error: ") and err.count("\n") == 1
    assert ("cannot complete a pair" in err) == ((partner, flavor, kind) in _NOT_A_PAIR)


@pytest.mark.parametrize("k", [-60, -30, 0, 30, 60])
def test_a_form_that_is_not_skew_fails_skew_at_every_scale(k, tmp_path):
    # |m + m^T| / |m| is 0.63 at every k; under --atol 0 every threshold is
    # rtol * |m|, with no floor of 1 under the scale, so the verdict is one
    m = [[0.0, 2.0 ** k], [-(2.0 ** (k - 1)), 0.0]]
    path = write(tmp_path, "form.json", {"kind": "symplectic", "matrix": m})
    status, out, _ = run_captured(["--atol", "0", "validate", path])
    assert status == 1 and out.startswith("FAIL  skew  ")


def test_a_degenerate_krein_metric_exits_one(tmp_path):
    path = write(tmp_path, "krein.json", {"kind": "krein", "matrix": [[1, 0], [0, 0]]})
    assert run_captured(["validate", path]) == (
        1, "", "error: symmetric form has (numerically) zero eigenvalues\n")


def test_canonical_eigenbases_are_found_under_the_command_tolerance(tmp_path):
    # J^2 = Id only to 1.4e-5: under the default rtol of 1e-9 neither J - Id
    # nor J + Id has a kernel and the eigenspaces read unbalanced; under
    # --rtol 1e-3 each has one
    doc = {"kind": "para_complex", "matrix": [[0, 1.00001], [1, 0]]}
    status, out, _ = run_captured(["--atol", "0", "--rtol", "1e-3", "validate",
                                   write(tmp_path, "para.json", doc)])
    assert status == 0 and "pass  balanced_eigenspaces  residual=0.000e+00" in out


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


def sampled_atlas_doc():
    """Three charts and eight samples on a line; T_ab = T_bc = 1 and T_ac
    drifts from 1 along the line, so the cocycle residual grows from sample
    to sample and the isotropy residuals of T_ab and T_bc are all 0."""
    pts = [[0.1 * k, 0.0] for k in range(8)]
    eye = np.eye(2).tolist()
    drift = {"base": eye, "coeffs": [[[0.0, 1e-3], [0.0, 0.0]], np.zeros((2, 2)).tolist()]}
    return {
        "fiber_dim": 2,
        "charts": [{"name": n, "lo": [-1, -1], "hi": [1, 1], "samples": pts} for n in "abc"],
        "overlaps": [{"charts": ["a", "b"], "points": pts, "transition": {"constant": eye}},
                     {"charts": ["b", "c"], "points": pts, "transition": {"constant": eye}},
                     {"charts": ["a", "c"], "points": pts, "transition": {"affine": drift}}],
        "triples": [{"charts": ["a", "b", "c"], "points": pts}],
    }


def test_bundle_checks_format_each_location_once(tmp_path, monkeypatch, capsys):
    calls = []

    def counted(point, _original=report_module.location):
        calls.append(point)
        return _original(point)

    monkeypatch.setattr(report_module, "location", counted)
    atlas = write(tmp_path, "atlas.json", sampled_atlas_doc())
    tensor = write(tmp_path, "tensor.json", {"kind": "2,0", "matrix": np.eye(2).tolist()})
    # an indefinite field fails, with the same residual, at every sample
    field = write(tmp_path, "field.json",
                  {"dim": 2, "field": {"name": "constant", "kind": "2,0",
                                       "matrix": [[1.0, 0.0], [0.0, -1.0]]}})
    for argv in (["cocycle", atlas], ["reduce", atlas, tensor, "--field", field]):
        calls.clear()
        assert run(["--json", *argv]) == 1
        entries = json.loads(capsys.readouterr().out)["entries"]
        assert 0 < len(calls) <= len(entries), (argv, len(calls), len(entries))


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


def pair_doc():
    return {"flavor": "kahler",
            "given": {"g": np.eye(2).tolist(), "omega": [[0.0, 1.0], [-1.0, 0.0]]}}


def constant_field_doc():
    return {"dim": 2, "field": {"name": "constant", "kind": "2,0", "matrix": np.eye(2).tolist()},
            "grid": {"counts": 2}}


def tower_doc():
    dims = [1, 2, 3]
    pads = [np.eye(b)[:a] for a, b in zip(dims, dims[1:])]  # (a, b)
    return {"variance": "direct", "dims": dims,
            "maps": [p.T.tolist() for p in pads], "projections": [p.tolist() for p in pads],
            "sequence": {"kind": "1,1", "levels": [np.diag(np.arange(1.0, d + 1)).tolist()
                                                   for d in dims]}}


def affine_atlas_doc():
    """atlas_doc with T_ab spelled as an affine transition that is constant."""
    doc = atlas_doc()
    doc["overlaps"][0]["transition"] = {"affine": {"base": rotation(0.3),
                                                   "coeffs": [np.zeros((2, 2)).tolist()] * 2}}
    return doc


def _replace(value):
    """An edit that replaces the whole document with ``value``."""
    return lambda doc: value


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
    # inputs that ended in a traceback
    "document not an object": (["validate"], complex_canonical_doc, _replace(5)),
    "structure matrix": (["validate"], complex_canonical_doc, _set(["matrix"], 5)),
    "structure decomposition": (["validate"], complex_canonical_doc,
                                _set(["decomposition"], 5)),
    "atlas charts": (["cocycle"], atlas_doc, _set(["charts"], 5)),
    "chart name list": (["cocycle"], atlas_doc,
                        lambda doc: _set(["overlaps", 0, "charts", 0], ["a"])(
                            _set(["charts", 0, "name"], ["a"])(doc))),
    "affine coeffs": (["cocycle"], affine_atlas_doc,
                      _set(["overlaps", 0, "transition", "affine", "coeffs"], 3)),
    "tower maps": (["tower", "check"], tower_doc, _set(["maps"], 5)),
    "tower sequence": (["tower", "check"], tower_doc, _set(["sequence"], 5)),
    "connection coeffs": (["connection", "check"], connection_doc,
                          _set(["forms", 0, "coeffs"], 3)),
    "morphism left shape": (["connection", "check"], connection_doc,
                            _set(["morphisms", 0, "left"], np.eye(3).tolist())),
    "field grid": (["curvature"], flat_field_doc, _set(["grid"], 5)),
    "constant field size": (["curvature"], constant_field_doc,
                            _set(["field", "matrix"], np.eye(3).tolist())),
    "constant field kind": (["curvature"], constant_field_doc, _set(["field", "kind"], "9,9")),
    "loop target": (LOOP_CHECK, loop_doc, _set(["target"], 5)),
    "pair given": (["triple", "complete"], pair_doc, _set(["given"], 5)),
    # inputs that exited 1 with "error:"
    "transition not square": (["cocycle"], atlas_doc,
                              _set(["overlaps", 0, "transition", "constant"], [[1.0, 0.0]])),
    "sample point width": (["connection", "check"], connection_doc,
                           _set(["sample_points"], [[0.1, -0.2, 0.3]])),
    "pair g not square": (["triple", "complete"], pair_doc, _set(["given", "g"], [[1.0, 0.0]])),
    "pair g and omega sizes": (["triple", "complete"], pair_doc,
                               _set(["given", "g"], np.eye(4).tolist())),
    "loop tangents shape": (LOOP_CHECK, loop_doc,
                            _set(["tangents"], {"x": np.ones((3, 2)).tolist(),
                                                "y": np.ones((4, 2)).tolist()})),
    # inputs that exited 0 on a verdict resting on the wrong shape
    "grid lo length": (["curvature"], flat_field_doc, _set(["grid", "lo"], [0.0])),
    "affine coeffs fewer than base": (["cocycle"], affine_atlas_doc,
                                      _set(["overlaps", 0, "transition", "affine", "coeffs"],
                                           [np.zeros((2, 2)).tolist()])),
    "chart lo and hi lengths": (["cocycle"], atlas_doc, _set(["charts", 0, "hi"], [1.0])),
    "overlap point width": (["cocycle"], atlas_doc,
                            _set(["overlaps", 0, "points"], [[0.1, 0.2, 0.3]])),
    "transitions not fiber_dim": (["cocycle"], atlas_doc, _set(["fiber_dim"], 3)),
    "loop flavor": (LOOP_CHECK, loop_doc, _set(["target", "flavor"], "zzz")),
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


def reduce_docs():
    """Documents of a passing ``reduce atlas tensor --field field``."""
    return {"atlas": affine_atlas_doc(),
            "tensor": {"kind": "2,0", "matrix": np.eye(2).tolist()},
            "field": {"dim": 2, "field": {"name": "constant", "kind": "2,0",
                                          "matrix": [[2.0, 0.3], [0.3, 1.0]]}}}


def reduce_argv(tmp_path, docs):
    paths = {name: write(tmp_path, f"{name}.json", doc) for name, doc in docs.items()}
    return ["reduce", paths["atlas"], paths["tensor"], "--field", paths["field"]]


# (document of reduce_docs, edit that breaks it against the atlas)
MALFORMED_REDUCE = {
    "tensor not fiber_dim": ("tensor", _set(["matrix"], np.eye(3).tolist())),
    "field not an object": ("field", _set(["field"], 5)),
    "field not fiber_dim": ("field", _set(["field", "matrix"], np.eye(3).tolist())),
}


@pytest.mark.parametrize("case", MALFORMED_REDUCE)
def test_malformed_reduce_documents_exit_two(case, tmp_path, capsys):
    name, edit = MALFORMED_REDUCE[case]
    assert run(reduce_argv(tmp_path, reduce_docs())) == 0
    capsys.readouterr()
    docs = reduce_docs()
    docs[name] = edit(docs[name])
    assert run(reduce_argv(tmp_path, docs)) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and "Traceback" not in err


def test_reduce_field_of_another_kind_than_the_model_exits_one(tmp_path, capsys):
    docs = dict(reduce_docs(), tensor={"kind": "1,1", "matrix": [[0, -1], [1, 0]]})
    assert run(reduce_argv(tmp_path, docs)) == 1
    assert "error: field kind 2,0 vs model kind 1,1" in capsys.readouterr().err


def test_reduce_field_is_fiber_dim_on_a_base_of_dim(tmp_path):
    # a 4x4 field over a two-dimensional base, on a fiber of dimension 4
    docs = reduce_docs()
    docs["atlas"] = dict(atlas_doc(), fiber_dim=4)
    for overlap in docs["atlas"]["overlaps"]:
        overlap["transition"] = {"constant": np.eye(4).tolist()}
    docs["tensor"]["matrix"] = np.eye(4).tolist()
    docs["field"]["field"]["matrix"] = (2.0 * np.eye(4)).tolist()
    assert run(reduce_argv(tmp_path, docs)) == 0


def test_base_dim_must_agree_with_the_charts(tmp_path):
    path = write(tmp_path, "atlas.json", dict(atlas_doc(), base_dim=2))
    assert run(["cocycle", path]) == 0
    path = write(tmp_path, "atlas.json", dict(atlas_doc(), base_dim=3))
    assert run(["cocycle", path]) == 2


@pytest.mark.parametrize("extra, where", [({}, "$.charts[0].lo"),
                                          ({"base_dim": 0}, "$.base_dim")])
def test_a_base_of_dimension_zero_exits_two(extra, where, tmp_path, capsys):
    doc = dict({"fiber_dim": 1, "charts": [{"name": "a", "lo": [], "hi": []}]}, **extra)
    assert run(["cocycle", write(tmp_path, "atlas.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: {where}: ") and "Traceback" not in err
    doc = {"fiber_dim": 1, "charts": [], "base_dim": 0}
    assert run(["cocycle", write(tmp_path, "empty.json", doc)]) == 2
    assert capsys.readouterr().err.startswith("parse error: $.base_dim: ")


def test_repeated_atlas_declarations_exit_two(tmp_path, capsys):
    # a singular T_ab fails alone, and a second declaration must not hide it
    first, second = ("a", "b", [[0.0]]), ("a", "b", [[2.0]])
    doc = dict(line_atlas_doc("ab", [first]), fiber_dim=1)
    assert run(["cocycle", write(tmp_path, "one.json", doc)]) == 1
    doc = dict(line_atlas_doc("ab", [first, ("b", "a", [[0.5]]), second]), fiber_dim=1)
    assert run(["cocycle", write(tmp_path, "twice.json", doc)]) == 2
    assert capsys.readouterr().err == ("parse error: $.overlaps[0].charts and "
                                       "$.overlaps[2].charts: repeated overlap ['a', 'b']\n")
    doc = dict(line_atlas_doc("aba", []), fiber_dim=1)
    assert run(["cocycle", write(tmp_path, "charts.json", doc)]) == 2
    assert capsys.readouterr().err == ("parse error: $.charts[0].name and "
                                       "$.charts[2].name: repeated chart name 'a'\n")
    # (b, a) beside (a, b) is the other direction, not a repeat
    doc = dict(line_atlas_doc("ab", [second, ("b", "a", [[0.5]])]), fiber_dim=1)
    assert run(["cocycle", write(tmp_path, "both.json", doc)]) == 0


def test_unknown_keys_are_ignored(tmp_path):
    doc = dict(loop_doc(), samples=4, comment="unread")
    assert run([*LOOP_CHECK, write(tmp_path, "loop.json", doc)]) == 0


def test_darboux_needs_an_even_dimension(tmp_path, capsys):
    doc = {"kind": "symplectic", "matrix": np.zeros((3, 3)).tolist()}
    assert run(["darboux", write(tmp_path, "form.json", doc)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_parse_errors_name_the_json_path(tmp_path, capsys):
    doc = affine_atlas_doc()
    doc["overlaps"][0]["transition"]["affine"]["coeffs"] = [np.zeros((2, 2)).tolist()]
    assert run(["cocycle", write(tmp_path, "atlas.json", doc)]) == 2
    assert "$.overlaps[0].transition.affine.coeffs:" in capsys.readouterr().err


HUGE = "1" + "0" * 400
# (global flags, subcommand, valid document or None, subcommand flags)
BAD_FLAGS = {
    "--atol -1": (["--atol", "-1"], ["validate"], complex_canonical_doc, []),
    "--atol 0 --rtol 0": (["--atol", "0", "--rtol", "0"], ["validate"],
                          complex_canonical_doc, []),
    "--atol nan": (["--atol", "nan"], ["validate"], complex_canonical_doc, []),
    "--seed -1": (["--seed", "-1"], ["loopspace", "demo"], None, []),
    # an int past the float range is not finite
    "--seed 10**400": (["--seed", HUGE], ["loopspace", "demo"], None, []),
    "--levels 10**400": ([], ["loopspace", "demo"], None, ["--levels", HUGE]),
    "--samples 10**400": ([], ["loopspace", "demo"], None, ["--samples", HUGE]),
    "--trials 0": (["--seed", "1"], ["loopspace", "check"], loop_doc, ["--trials", "0"]),
    "--trials -3": (["--seed", "1"], ["loopspace", "check"], loop_doc, ["--trials", "-3"]),
    "--trials 10**400": (["--seed", "1"], ["loopspace", "check"], loop_doc, ["--trials", HUGE]),
    "--tol -1": ([], ["curvature"], flat_field_doc, ["--tol", "-1"]),
    "--tol nan": ([], ["curvature"], flat_field_doc, ["--tol", "nan"]),
}


@pytest.mark.parametrize("case", BAD_FLAGS)
def test_bad_flag_values_are_usage_errors(case, tmp_path, capsys):
    flags, command, make, options = BAD_FLAGS[case]
    paths = [write(tmp_path, "doc.json", make())] if make else []
    assert run([*command, *paths]) in (0, 1)  # valid without the flag
    capsys.readouterr()
    assert run([*flags, *command, *paths, *options]) == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "Traceback" not in err


def test_a_reused_parser_acts_as_a_fresh_one(tmp_path, monkeypatch):
    structure = write(tmp_path, "structure.json", complex_canonical_doc())
    valid = ["validate", structure]
    argvs = [["loopspace", "demo", "--levels", "2"], valid,
             ["--atol", "0", "--rtol", "0", *valid], valid]
    for n, (flags, command, make, options) in enumerate(BAD_FLAGS.values()):
        paths = [write(tmp_path, f"doc{n}.json", make())] if make else []
        argvs += [[*flags, *command, *paths, *options], valid]
    argvs.append(["--help"])
    fresh = cli.build_parser.__wrapped__
    for argv in argvs:
        reused = run_captured(argv)
        with monkeypatch.context() as patched:
            patched.setattr(cli, "build_parser", fresh)
            assert run_captured(argv) == reused, argv
    assert reused[0] == 0 and reused[1].startswith("usage: tensorstruct")


def test_the_parser_is_built_once_per_process(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.__wrapped__()
    one_build = len(built)  # the root parser and its subparsers
    built.clear()
    path = write(tmp_path, "structure.json", complex_canonical_doc())
    for _ in range(25):
        assert run_captured(["validate", path])[0] == 0
        assert run_captured(["--atol", "-1", "validate", path])[0] == 2
    assert len(built) <= one_build


def test_zero_atol_with_positive_rtol_is_accepted(tmp_path):
    path = write(tmp_path, "structure.json", complex_canonical_doc())
    assert run(["--atol", "0", "validate", path]) == 0


# ---------------------------------------------------------------------------
# the fast path: argv read from the parser's action table
# ---------------------------------------------------------------------------

def parser_levels(parser, words=()):
    """(subcommand words, parser) of the parser and of every subcommand's."""
    yield words, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from parser_levels(sub, words + (name,))


LEVELS = dict(parser_levels(cli.build_parser()))
LEAVES = sorted(words for words in LEVELS if not any(
    w[:-1] == words for w in LEVELS if w))
# words argparse reads (abbreviations, --x=y, help, --) and words it
# rejects, which the fast path must all leave to it
EDGE_WORDS = ["--lev", "--atol=1e-9", "-h", "--", "-1", "-x.json", "", "--json"]
VALUES = ["0", "1", "2", "1e-9", "nan", "-1", "bogus", "complex", "para_complex"]
VOCABULARY = sorted({s for parser in LEVELS.values() for a in parser._actions
                     for s in a.option_strings} | {w for words in LEVELS for w in words}
                    | set(EDGE_WORDS) | set(VALUES))


# (subcommand words, option) of every option but help
FOCI = [(words, a) for words, parser in LEVELS.items() for a in parser._actions
        if a.option_strings and not isinstance(a, argparse._HelpAction)]


def accepts(action, word):
    """Whether ``word`` passes the action's ``type`` and ``choices``."""
    try:
        value = word if action.type is None else action.type(word)
    except (argparse.ArgumentTypeError, ValueError):
        return False
    return action.choices is None or value in action.choices


def option_words(draw, parser, focus):
    """``focus`` when it is ``parser``'s, with any word as its value, and up
    to two more of ``parser``'s options, each with a value it accepts."""
    options = [a for _, a in FOCI if a in parser._actions and a is not focus]
    chosen = draw(st.lists(st.sampled_from(options), unique=True, max_size=2)
                  if options else st.just([]))
    chunks = []
    for action in chosen + [focus] * (focus in parser._actions):
        words = [w for w in [*(action.choices or []), *VALUES] if accepts(action, w)]
        if action is focus:
            words += EDGE_WORDS + VALUES
        value = [] if action.nargs == 0 else [draw(st.sampled_from(words))]
        chunks.append([draw(st.sampled_from(action.option_strings)), *value])
    return chunks


@st.composite
def cli_argv(draw, paths):
    """A subcommand's argv around one focus option: options at every level,
    the leaf's options and positionals in any order, then up to two edits:
    a vocabulary word inserted, a word dropped, or a stretch repeated."""
    words, focus = draw(st.sampled_from(FOCI))
    leaf = draw(st.sampled_from([w for w in LEAVES if w[:len(words)] == words]))
    argv = []
    for depth in range(len(leaf)):
        argv += sum(option_words(draw, LEVELS[leaf[:depth]], focus), []) + [leaf[depth]]
    parser = LEVELS[leaf]
    positionals = [[draw(st.sampled_from(paths))] for a in parser._actions
                   if not a.option_strings]
    argv += sum(draw(st.permutations(option_words(draw, parser, focus) + positionals)), [])
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "drop", "repeat"]))
        if edit == "insert":
            argv.insert(at, draw(st.sampled_from(VOCABULARY)))
        elif argv:
            start = min(at, len(argv) - 1)
            stretch = argv[start:start + draw(st.integers(1, 2))]
            argv[start:start + len(stretch)] = [] if edit == "drop" else stretch * 2
    return argv


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_the_fast_path_reads_argv_as_argparse_does(data, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "argv-structure.json"
    path.write_text(json.dumps(complex_canonical_doc()))
    paths = [str(path), "missing.json"]
    argv = data.draw(cli_argv(paths) | st.lists(st.sampled_from(VOCABULARY + paths),
                                                max_size=6))
    parser = cli.build_parser()
    quick = cli._quick(parser, argv)
    if quick is not None:
        try:
            parsed = parser.parse_args(argv)
        except SystemExit:
            parsed = "a usage error"
        assert quick == parsed, argv
    fast = run_captured(argv)
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(cli, "_quick", lambda parser, argv: None)
        assert run_captured(argv) == fast, argv


@pytest.mark.parametrize("argv", [
    ["validate", "a.json"],
    ["--json", "--atol", "1e-3", "--rtol", "0", "--seed", "3", "triple", "complete", "p.json"],
    ["reduce", "a.json", "--field", "f.json", "t.json"],
    ["--fd-step", "1e-4", "nijenhuis", "f.json", "--kind", "complex", "--tol", "1e-3"],
    ["--seed", "1", "loopspace", "demo", "--levels", "2", "--samples", "4"],
    ["loopspace", "check", "--trials", "3", "l.json"],
    ["tower", "check", "t.json"], ["connection", "check", "t.json"],
])
def test_well_formed_argv_take_the_fast_path(argv):
    parser = cli.build_parser()
    assert cli._quick(parser, argv) == parser.parse_args(argv)


@pytest.mark.parametrize("argv", [
    ["--seed", "1", "loopspace", "demo", "--lev", "2"], ["--atol=1e-9", "validate", "a.json"],
    ["validate", "--", "a.json"], ["validate", "-h"], ["--help"],
    ["--atol", "1e-3", "--atol", "1e-9", "validate", "a.json"],
    ["validate", "--json", "a.json"], ["nijenhuis", "--kind", "bogus", "f.json"],
    ["reduce", "a.json", "t.json", "--field", "-x.json"], ["--atol", "-1", "validate", "a.json"],
    ["loopspace", "demo", "--levels", "0"], ["--seed", "1e-9", "loopspace", "demo"],
    ["validate"], ["validate", "a.json", "b.json"], ["triple"], [""], [],
])
def test_any_other_argv_is_left_to_argparse(argv):
    assert cli._quick(cli.build_parser(), argv) is None


# ---------------------------------------------------------------------------
# schema mutations
# ---------------------------------------------------------------------------

# (subcommand, [(flag before the path or None, valid document, its schema)])
FIXTURES = {
    "structure": (["validate"], [(None, complex_canonical_doc, documents.STRUCTURE)]),
    "pair": (["triple", "complete"], [(None, pair_doc, documents.PAIR)]),
    "reduce": (["reduce"], [(None, affine_atlas_doc, documents.ATLAS),
                            (None, lambda: reduce_docs()["tensor"], documents.TENSOR),
                            ("--field", lambda: reduce_docs()["field"], documents.FIELD)]),
    "field": (["curvature"], [(None, flat_field_doc, documents.FIELD)]),
    "constant field": (["curvature"], [(None, constant_field_doc, documents.FIELD)]),
    "tower": (["tower", "check"], [(None, tower_doc, documents.TOWER)]),
    "connection": (["connection", "check"], [(None, connection_doc, documents.CONNECTION)]),
    "loop": (LOOP_CHECK, [(None, loop_doc, documents.LOOP)]),
}


def schema_sites(node, value, path=()):
    """(path, schema node, value) of every value the schema checks."""
    yield path, node, value
    if isinstance(node, documents.Case):
        yield path + (node.key,), node.tag.fields[node.key][0], value[node.key]
        node = node.variants[value[node.key]]
    if isinstance(node, documents.Obj):
        for key, (child, _) in node.fields.items():
            if key in value:
                yield from schema_sites(child, value[key], path + (key,))
    elif isinstance(node, documents.Each):
        for position, item in enumerate(value):
            yield from schema_sites(node.item, item, path + (position,))


def wrong_values(node, value):
    """Values of the wrong type, shape, enum or range for ``node``."""
    yield "x" if not isinstance(node, documents.Str) else 5
    if isinstance(node, documents.Each) and node.length is not None:
        yield value[:-1]
    if isinstance(node, documents.Str) and (node.choices or node.declared):
        yield "zzz"
    if isinstance(node, documents.Num):
        yield [value]
        low = node.least - 1 if node.least is not None else 0 if node.positive else None
        if low is not None:
            yield (np.asarray(value) * 0 + low).tolist()
        if node.integer is True and not node.shape:
            yield value + 0.5


def mutate(doc, path, bad):
    if not path:
        return bad
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = bad
    return doc


def fixture_argv(directory, command, docs):
    argv = list(command)
    for n, (flag, doc) in enumerate(docs):
        path = f"{directory}/doc{n}.json"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        argv += [flag, path] if flag else [path]
    return argv


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = run(argv)
    return status, out.getvalue(), err.getvalue()


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_a_schema_mutation_exits_two(data, tmp_path_factory):
    command, specs = FIXTURES[data.draw(st.sampled_from(sorted(FIXTURES)))]
    docs = [(flag, make()) for flag, make, _ in specs]
    n = data.draw(st.integers(0, len(docs) - 1))
    path, node, value = data.draw(st.sampled_from(list(schema_sites(specs[n][2], docs[n][1]))))
    bad = data.draw(st.sampled_from(list(wrong_values(node, value))))
    docs[n] = (docs[n][0], mutate(docs[n][1], path, bad))
    directory = tmp_path_factory.mktemp("mutated")
    status, _, err = run_captured(fixture_argv(directory, command, docs))
    assert status == 2, (path, bad, err)
    assert "parse error" in err and "Traceback" not in err


@pytest.mark.parametrize("name", FIXTURES)
def test_valid_fixtures_emit_strict_json_residuals(name, tmp_path, monkeypatch):
    command, specs = FIXTURES[name]
    reports = []

    def emit(report, as_json, _emit=cli._emit):
        reports.append(report)
        return _emit(report, as_json)

    monkeypatch.setattr(cli, "_emit", emit)
    argv = fixture_argv(tmp_path, command, [(flag, make()) for flag, make, _ in specs])
    status, out, err = run_captured(["--json", *argv])
    assert status in (0, 1), err
    residuals = [float(e["residual"]) for e in strict_entries(out)]
    np.testing.assert_array_equal(residuals, [e.residual for e in reports[0].entries])


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


@pytest.mark.parametrize("signature", [(1.0, 1.0), (-1.0, 1.0)])
@pytest.mark.parametrize("k", [-40, -30, -29, 40])
def test_curvature_does_not_depend_on_the_scale_of_a_flat_metric(k, signature, tmp_path,
                                                                 capsys):
    # degeneracy is judged relative to the metric's own size, so a metric
    # scaled by 2**k keeps every bit of the residual and its location
    def entry(base_metric):
        doc = flat_field_doc()
        doc["field"]["base_metric"] = base_metric.tolist()
        assert run(["--json", "curvature", write(tmp_path, "flat.json", doc)]) == 0
        [e] = json.loads(capsys.readouterr().out)["entries"]
        return struct.pack("<d", e["residual"]), e["location"]

    base = np.diag(signature)
    unscaled = entry(base)
    assert unscaled[0] != struct.pack("<d", 0.0)
    assert entry(2.0**k * base) == unscaled


def test_degenerate_metric_is_a_failing_curvature_entry(tmp_path, capsys):
    path = write(tmp_path, "degenerate.json",
                 {"dim": 2, "field": {"name": "constant", "matrix": [[1, 0], [0, 0]]},
                  "grid": {"counts": 2}})
    where = np.array2string(np.array([-0.5, -0.5]), precision=3)
    assert run(["curvature", path]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [
        f"FAIL  curvature_residual  residual=inf  [{where}]",
        "note: verdict: not integrable", "note: metric degenerate",
        "FAIL (1 checks, worst residual inf)"]
    assert run(["--json", "curvature", path]) == 1
    out = capsys.readouterr().out
    assert strict_entries(out) == [{"location": where, "name": "curvature_residual",
                                    "passed": False, "residual": "Infinity"}]
    assert json.loads(out)["notes"] == ["verdict: not integrable", "metric degenerate"]


def test_field_that_is_not_the_structure_is_a_failing_defect_entry(tmp_path, capsys):
    # a nilpotent field is a tangent structure, not a complex one
    path = write(tmp_path, "nilpotent.json",
                 {"dim": 2, "field": {"name": "constant", "matrix": [[0, 1], [0, 0]],
                                      "kind": "1,1"},
                  "grid": {"counts": 2}})
    where = np.array2string(np.array([-0.5, -0.5]), precision=3)
    assert run(["nijenhuis", "--kind", "complex", path]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [
        f"FAIL  defect_tensor_complex  residual=inf  [{where}]",
        "note: verdict: not formally integrable", "note: not a complex structure",
        "FAIL (1 checks, worst residual inf)"]
    assert run(["--json", "nijenhuis", "--kind", "complex", path]) == 1
    out = capsys.readouterr().out
    assert strict_entries(out) == [{"location": where, "name": "defect_tensor_complex",
                                    "passed": False, "residual": "Infinity"}]
    assert json.loads(out)["notes"] == ["verdict: not formally integrable",
                                        "not a complex structure"]
    assert run(["nijenhuis", "--kind", "tangent", path]) == 0


def test_singular_jacobian_is_a_failing_defect_entry(tmp_path, capsys):
    # x_0^2 has a singular Jacobian on the line x_0 = 0
    path = write(tmp_path, "singular.json",
                 {"dim": 2, "field": {"name": "pullback_structure",
                                      "base_matrix": [[0, -1], [1, 0]],
                                      "diffeo": [[[2, 0, 1.0]], [[0, 1, 1.0]]]},
                  "grid": {"counts": 3}})
    where = np.array2string(np.array([0.0, -0.5]), precision=3)
    assert run(["nijenhuis", "--kind", "complex", path]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [
        f"FAIL  defect_tensor_complex  residual=inf  [{where}]",
        "note: verdict: not formally integrable", "note: jacobian singular",
        "FAIL (1 checks, worst residual inf)"]
    assert run(["--json", "nijenhuis", "--kind", "complex", path]) == 1
    out = capsys.readouterr().out
    assert strict_entries(out) == [{"location": where, "name": "defect_tensor_complex",
                                    "passed": False, "residual": "Infinity"}]
    assert json.loads(out)["notes"] == ["verdict: not formally integrable",
                                        "jacobian singular"]
    # under reduce --field every chart fails at the singular sample:
    # x_0^2 - 0.2 x_0 is singular at the atlas's first sample
    docs = dict(reduce_docs(), tensor={"kind": "1,1", "matrix": [[0, -1], [1, 0]]},
                field={"dim": 2, "field": {"name": "pullback_structure",
                                           "base_matrix": [[0, -1], [1, 0]],
                                           "diffeo": [[[2, 0, 1.0], [1, 0, -0.2]],
                                                      [[0, 1, 1.0]]]}})
    assert run(["--json", *reduce_argv(tmp_path, docs)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    fields = [e for e in strict_entries(captured.out) if e["name"].startswith("field/")]
    assert fields == [{"location": "[0.1 0.2]", "name": f"field/modelled[{chart}]",
                       "passed": False, "residual": "Infinity"} for chart in "abc"]
    assert json.loads(captured.out)["notes"] == ["orbit invariant: complex",
                                                 "jacobian singular"]


def test_diffeo_exponents_must_be_nonnegative_and_distinct(tmp_path, capsys):
    negative = flat_field_doc()
    negative["field"]["diffeo"][0][1] = [-1, 0, 0.1]
    assert run(["curvature", write(tmp_path, "negative.json", negative)]) == 2
    assert capsys.readouterr().err == (
        "parse error: $.field.diffeo[0][1]: exponents must be at least 0, got [-1, 0]\n")
    repeated = {"dim": 1, "field": {"name": "pullback_flat", "base_metric": [[1.0]],
                                    "diffeo": [[[1, 1.0], [1, 2.0], [2, 0.1]]]}}
    assert run(["curvature", write(tmp_path, "repeated.json", repeated)]) == 2
    assert capsys.readouterr().err == (
        "parse error: $.field.diffeo[0][0] and $.field.diffeo[0][1]: "
        "repeated exponents [1]\n")
    # coefficients are free: negative, zero, or repeated across components
    free = flat_field_doc()
    free["field"]["diffeo"][0] += [[1, 1, -3.0], [0, 0, 0.0]]
    free["field"]["diffeo"][1] += [[1, 1, -3.0]]
    assert run(["curvature", write(tmp_path, "free.json", free)]) in (0, 1)


# base matrices: zero on R^1, a complex structure on R^2, an involution on R^3
_BASE_MATRICES = {1: [[0.0]], 2: [[0.0, -1.0], [1.0, 0.0]],
                  3: np.diag([1.0, 1.0, -1.0]).tolist()}


@st.composite
def diffeo_documents(draw):
    """Field documents whose diffeo terms have exponents -1 to 3, may repeat
    an exponent, and often have a Jacobian singular on the grid."""
    dim = draw(st.integers(1, 3))
    term = st.tuples(*[st.integers(-1, 3)] * dim, st.sampled_from([1.0, -1.0, 0.5, 2.0, 0.0]))
    diffeo = [[list(t) for t in draw(st.lists(term, max_size=4))] for _ in range(dim)]
    name = draw(st.sampled_from(["pullback_flat", "pullback_structure"]))
    key = "base_metric" if name == "pullback_flat" else "base_matrix"
    base = np.diag([1.0, -1.0, 1.0][:dim]).tolist() if name == "pullback_flat" \
        else _BASE_MATRICES[dim]
    doc = {"dim": dim, "field": {"name": name, key: base, "diffeo": diffeo},
           "grid": {"counts": draw(st.integers(1, 3))}}
    if name == "pullback_flat":
        return doc, ["curvature"]
    return doc, ["nijenhuis", "--kind",
                 draw(st.sampled_from(["tangent", "para_complex", "complex"]))]


@settings(max_examples=150, deadline=None)
@given(case=diffeo_documents())
def test_diffeo_documents_exit_cleanly_with_strict_json(case, tmp_path_factory):
    doc, command = case
    argv = fixture_argv(tmp_path_factory.mktemp("diffeo"), command, [(None, doc)])
    status, out, err = run_captured(["--json", *argv])
    assert status in (0, 1, 2), err
    assert "Traceback" not in err
    if status == 2:
        assert err.startswith("parse error: $.field.diffeo")
    else:
        assert strict_entries(out)


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


def test_diffeo_exponents_must_fit_in_int64_products(tmp_path, capsys):
    doc = {"dim": 1, "field": {"name": "pullback_flat", "base_metric": [[1]],
                               "diffeo": [[[1, 1.0], [1e300, 2.0]]]}, "grid": {"counts": 3}}
    assert run(["curvature", write(tmp_path, "huge.json", doc)]) == 2
    assert capsys.readouterr().err == (
        "parse error: $.field.diffeo[0][1]: exponents must be at most 2**62, got [1e+300]\n")
    # the largest exponent allowed: the metric's products of two Jacobian
    # terms still have int64 exponents
    doc["field"]["diffeo"][0][1][0] = 2**62
    with no_warnings():
        assert run(["curvature", write(tmp_path, "largest.json", doc)]) in (0, 1)
    assert capsys.readouterr().err == ""


# x^(2**62) y: d/dy of it is x^(2**62), whose square in g_yy is x^(2**63)
WIDE_PULLBACK = {"dim": 2, "field": {"name": "pullback_flat", "base_metric": [[1, 0], [0, 1]],
                                     "diffeo": [[[1, 0, 1.0], [2**62, 1, 0.001]],
                                                [[0, 1, 1.0]]]},
                 "grid": {"counts": 2}}
WIDE_PULLBACK_ERROR = ("parse error: $.field.diffeo: a pullback metric exponent exceeds "
                       "the int64 range\n")


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_a_pullback_metric_past_int64_exponents_is_a_parse_error(mode, tmp_path, capsys):
    path = write(tmp_path, "wide.json", WIDE_PULLBACK)
    with no_warnings():
        assert run([*mode, "curvature", path]) == 2
    assert capsys.readouterr() == ("", WIDE_PULLBACK_ERROR)


def test_a_chart_field_past_int64_exponents_is_a_parse_error(tmp_path, capsys):
    docs = reduce_docs()
    docs["field"] = WIDE_PULLBACK
    with no_warnings():
        assert run(reduce_argv(tmp_path, docs)) == 2
    assert capsys.readouterr() == ("", WIDE_PULLBACK_ERROR)


@contextlib.contextmanager
def no_warnings():
    """Any warning raised inside is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def overflowing_connection_doc():
    """Two one-dimensional levels whose form values overflow to inf."""
    return {"variance": "projective", "dims": [1, 1], "maps": [[[1e200]]],
            "forms": [{"coeffs": [[[1e200]]]}, {"coeffs": [[[1e200]]]}],
            "models": [{"kind": "1,1", "matrix": [[1.0]]}] * 2,
            "sample_points": [[0.5]]}


def test_nan_connection_residuals_fail_as_strict_json(tmp_path, capsys):
    path = write(tmp_path, "connection.json", overflowing_connection_doc())
    with no_warnings():
        assert run(["--json", "connection", "check", path]) == 1
    assert strict_entries(capsys.readouterr().out) == [
        {"location": "", "name": "adapted[0]", "passed": False, "residual": "NaN"},
        {"location": "", "name": "adapted[1]", "passed": True, "residual": 0.0},
        {"location": "", "name": "coherent[0,1]", "passed": False, "residual": "NaN"}]


@pytest.mark.parametrize("s, residual", [(1e100, "2.000e+90"), (1e165, "2.000e+155")])
def test_connection_adaptedness_residual_is_fro_past_overflow(tmp_path, capsys, s, residual):
    # the algebra action on the model s Id has entries about 1e-10 s, whose
    # sum of squares overflows at s = 1e165; the residual is still fro's
    # finite scaled norm, and passes at the threshold rtol * fro(s Id)
    doc = {"variance": "direct", "dims": [2],
           "forms": [{"coeffs": [[[0, 1], [-1, 1e-10]], [[0, 2], [-2, 1e-10]]]}],
           "models": [{"kind": "2,0", "matrix": (s * np.eye(2)).tolist()}],
           "sample_points": [[0.0, 0.0]]}
    assert run(["connection", "check", write(tmp_path, "connection.json", doc)]) == 0
    assert f"pass  adapted[0]  residual={residual}" in capsys.readouterr().out


@pytest.mark.parametrize("variance", ["projective", "direct"])
def test_composition_law_with_a_zero_one_by_one_factor_reads_nan(tmp_path, capsys, variance):
    # map(0, 1) = [[0]] times map(1, 3), whose entries overflow to inf, is
    # 0 * inf: NaN, which fails the law, as the product ``@`` gives
    s = 1e200
    up = [[s, s]] if variance == "projective" else [[s], [s]]
    doc = {"variance": variance, "dims": [1, 1, 2, 2],
           "maps": [[[0.0]], up, (s * np.eye(2)).tolist()]}
    assert run(["tower", "check", write(tmp_path, "tower.json", doc)]) == 1
    out = capsys.readouterr().out
    assert "FAIL  composition[0,1,3]  residual=nan" in out
    assert "pass  composition[0,1,2]" in out


def overflowing_atlas_doc():
    """T_ab(x) = Id + x diag(1e300, 1) overflows at x = 1e300."""
    identity = np.eye(2).tolist()
    return {"fiber_dim": 2,
            "charts": [{"name": name, "lo": [-1], "hi": [1]} for name in "abc"],
            "overlaps": [{"charts": ["a", "b"], "points": [[1e300]],
                          "transition": {"affine": {"base": identity,
                                                    "coeffs": [[[1e300, 0], [0, 1]]]}}},
                         {"charts": ["b", "c"], "points": [[1e300]],
                          "transition": {"constant": identity}},
                         {"charts": ["a", "c"], "points": [[0.5]],
                          "transition": {"constant": identity}}],
            "triples": [{"charts": ["a", "b", "c"], "points": [[1e300]]}]}


def test_a_transition_that_overflows_fails_as_strict_json(tmp_path, capsys):
    atlas = write(tmp_path, "atlas.json", overflowing_atlas_doc())
    tensor = write(tmp_path, "tensor.json", {"kind": "2,0", "matrix": np.eye(2).tolist()})
    far = "[1.e+300]"
    for argv in (["cocycle", atlas], ["reduce", atlas, tensor]):
        with no_warnings():
            assert run(["--json", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        failed = [e for e in strict_entries(captured.out) if not e["passed"]]
        expected = [{"location": "1 samples", "name": "invertible[a,b]", "passed": False,
                     "residual": "Infinity"},
                    {"location": far, "name": "cocycle[a,b,c]", "passed": False,
                     "residual": "Infinity"}]
        if argv[0] == "reduce":
            expected.append({"location": far, "name": "isotropy[a,b]", "passed": False,
                             "residual": "Infinity"})
        assert failed == expected


SINGULAR = [[1.0, 0.0], [0.0, 0.0]]


def line_atlas_doc(names, overlaps, **extra):
    """Charts ``names`` on [-1, 1]; each overlap (u, w, matrix) is a
    constant transition sampled at x = 0.5."""
    return dict({"fiber_dim": 2,
                 "charts": [{"name": name, "lo": [-1], "hi": [1]} for name in names],
                 "overlaps": [{"charts": [u, w], "points": [[0.5]],
                               "transition": {"constant": m}} for u, w, m in overlaps]},
                **extra)


def run_json(argv):
    """(exit status, entries) of a ``--json`` run that writes no stderr and
    raises no warning."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), no_warnings():
        status = run(["--json", *argv])
    assert err.getvalue() == ""
    return status, json.loads(out.getvalue(), parse_constant=_reject_constant)


def test_a_triple_needing_the_inverse_of_a_singular_transition_fails(tmp_path):
    # T_bc is the inverse of the declared, singular T_cb
    identity = np.eye(2).tolist()
    doc = line_atlas_doc("abc", [("a", "b", identity), ("c", "b", SINGULAR),
                                 ("a", "c", identity)],
                         triples=[{"charts": ["a", "b", "c"], "points": [[0.5]]}])
    status, report = run_json(["cocycle", write(tmp_path, "atlas.json", doc)])
    assert status == 1
    assert [(e["name"], e["passed"], e["residual"], e["location"])
            for e in report["entries"]] == [
        ("invertible[a,b]", True, 0.0, "1 samples"),
        ("invertible[c,b]", False, "Infinity", "1 samples"),
        ("invertible[a,c]", True, 0.0, "1 samples"),
        ("cocycle[a,b,c]", False, "Infinity", "[0.5]")]


def test_a_singular_transition_lies_in_no_isotropy_group(tmp_path):
    atlas = write(tmp_path, "atlas.json", line_atlas_doc("ab", [("a", "b", SINGULAR)]))
    tensor = write(tmp_path, "tensor.json", {"kind": "2,0", "matrix": np.eye(2).tolist()})
    status, report = run_json(["reduce", atlas, tensor])
    assert status == 1
    assert [(e["name"], e["passed"], e["residual"], e["location"])
            for e in report["entries"]] == [
        ("invertible[a,b]", False, "Infinity", "1 samples"),
        ("isotropy[a,b]", False, "Infinity", "[0.5]")]


def test_a_singular_transition_with_a_large_singular_value_reads_infinity(tmp_path):
    # s = (10, 0): the old floor s[0] / tiny overflowed here, and read
    # 4.494e+307 for s[0] = 1
    doc = line_atlas_doc("ab", [("a", "b", [[10.0, 0.0], [0.0, 0.0]])])
    status, report = run_json(["cocycle", write(tmp_path, "atlas.json", doc)])
    assert status == 1
    assert [(e["name"], e["passed"], e["residual"]) for e in report["entries"]] == [
        ("invertible[a,b]", False, "Infinity")]


def test_an_overflowing_structure_does_not_pass_with_an_infinite_residual(tmp_path):
    # |m m + Id| and its scale |m|^2 both overflow to inf
    doc = {"kind": "complex", "matrix": [[0, -1e200], [1e200, 0]]}
    status, report = run_json(["validate", write(tmp_path, "structure.json", doc)])
    assert status == 1
    assert report["entries"][0] == {"location": "", "name": "squares_to_minus_id",
                                    "passed": False, "residual": "Infinity"}


def test_an_overflowing_structure_field_is_not_a_structure(tmp_path):
    # the grid check's |A A + Id| and |A|^2 overflow together, as above
    path = write(tmp_path, "field.json",
                 {"dim": 2, "field": {"name": "constant", "kind": "1,1",
                                      "matrix": [[0, -1e200], [1e200, 0]]},
                  "grid": {"counts": 2}})
    status, report = run_json(["nijenhuis", "--kind", "complex", path])
    assert status == 1
    assert report["entries"][0]["residual"] == "Infinity"
    assert report["notes"] == ["verdict: not formally integrable", "not a complex structure"]


def test_an_overflowing_field_is_not_modelled(tmp_path):
    # a constant field whose square and scale overflow, against the complex model
    atlas = write(tmp_path, "atlas.json",
                  {"fiber_dim": 2, "charts": [{"name": "a", "lo": [-1, -1], "hi": [1, 1],
                                               "samples": [[0, 0]]}]})
    tensor = write(tmp_path, "tensor.json", {"kind": "1,1", "matrix": [[0, -1], [1, 0]]})
    big = [[1e200, 1e200], [-1e200, 1e200]]
    field = write(tmp_path, "field.json",
                  {"dim": 2, "field": {"name": "constant", "kind": "1,1", "matrix": big}})
    status, report = run_json(["reduce", atlas, tensor, "--field", field])
    assert status == 1
    assert report["entries"] == [{"location": "[0. 0.]", "name": "field/modelled[a]",
                                  "passed": False, "residual": "Infinity"}]


def test_a_field_that_overflows_at_a_chart_sample_fails_that_chart(tmp_path):
    # g = diag((1 + 2 x_0)^2, 1) is the identity at 0 and inf at x_0 = 1e200
    atlas = write(tmp_path, "atlas.json",
                  {"fiber_dim": 2, "charts": [{"name": "a", "lo": [-1, -1], "hi": [1, 1],
                                               "samples": [[0, 0], [1e200, 0]]}]})
    tensor = write(tmp_path, "tensor.json", {"kind": "2,0", "matrix": np.eye(2).tolist()})
    field = write(tmp_path, "field.json",
                  {"dim": 2, "field": {"name": "pullback_flat", "base_metric": np.eye(2).tolist(),
                                       "diffeo": [[[1, 0, 1.0], [2, 0, 1.0]], [[0, 1, 1.0]]]}})
    status, report = run_json(["reduce", atlas, tensor, "--field", field])
    assert status == 1
    [entry] = [e for e in report["entries"] if e["name"] == "field/modelled[a]"]
    assert entry == {"location": np.array2string(np.array([1e200, 0.0]), precision=3),
                     "name": "field/modelled[a]", "passed": False, "residual": "Infinity"}
    assert report["notes"][-2:] == ["orbit invariant: signature", "field not finite"]


def self_transition_atlas_doc():
    """One chart whose self-transition 1 + 1e300 x_0 - 1e300 x_1 is
    inf - inf = NaN at (1e300, 1e300)."""
    return {"fiber_dim": 1, "charts": [{"name": "a", "lo": [-1, -1], "hi": [1, 1]}],
            "overlaps": [{"charts": ["a", "a"], "points": [[0, 0], [1e300, 1e300]],
                          "transition": {"affine": {"base": [[1]],
                                                    "coeffs": [[[1e300]], [[-1e300]]]}}}]}


def test_a_declared_self_transition_is_evaluated(tmp_path, capsys):
    atlas = write(tmp_path, "atlas.json", self_transition_atlas_doc())
    status, report = run_json(["cocycle", atlas])
    assert status == 1
    assert [(e["name"], e["passed"], e["residual"]) for e in report["entries"]] == [
        ("invertible[a,a]", False, "Infinity"), ("identity_on_diagonal[a]", False, "NaN")]
    # the text summary names the NaN as the worst residual
    with no_warnings():
        assert run(["cocycle", atlas]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[-1] == "FAIL (2 checks, worst residual nan)"


# ---------------------------------------------------------------------------
# what run decides for every subcommand: the name, the digest, the Tolerance
# ---------------------------------------------------------------------------

NIJENHUIS_DOC = {"dim": 2, "fd_step": 0.1,
                 "field": {"name": "pullback_structure", "base_matrix": [[0, -1], [1, 0]],
                           "diffeo": [[[1, 0, 1.0], [0, 2, 0.3]], [[0, 1, 1.0], [3, 0, 0.2]]]},
                 "grid": {"counts": 3}}
SYMPLECTIC_DOC = {"kind": "symplectic", "matrix": [[0.0, 3.0], [-3.0, 0.0]]}

# (argv before the documents, [(flag before a path or None, document)])
SUBCOMMANDS = {
    "validate": (["validate"], [(None, complex_canonical_doc())]),
    "triple complete": (["triple", "complete"], [(None, pair_doc())]),
    "darboux": (["darboux"], [(None, SYMPLECTIC_DOC)]),
    "cocycle": (["cocycle"], [(None, atlas_doc())]),
    "reduce": (["reduce"], [(None, reduce_docs()["atlas"]), (None, reduce_docs()["tensor"])]),
    "reduce --field": (["reduce"], [(None, reduce_docs()["atlas"]),
                                    (None, reduce_docs()["tensor"]),
                                    ("--field", reduce_docs()["field"])]),
    "nijenhuis": (["nijenhuis", "--kind", "complex"], [(None, NIJENHUIS_DOC)]),
    "curvature": (["curvature"], [(None, flat_field_doc())]),
    "tower check": (["tower", "check"], [(None, tower_doc())]),
    "connection check": (["connection", "check"], [(None, connection_doc())]),
    "loopspace check": (LOOP_CHECK, [(None, loop_doc())]),
    "loopspace demo": (["--seed", "1", "loopspace", "demo"], []),
}


@pytest.mark.parametrize("case", SUBCOMMANDS)
def test_each_report_is_named_and_digested_by_run(case, tmp_path):
    command, docs = SUBCOMMANDS[case]
    status, out, err = run_captured(["--json", *fixture_argv(tmp_path, command, docs)])
    assert status in (0, 1) and err == ""
    payload = json.loads(out)
    assert payload["command"] == case.removesuffix(" --field")
    # fixture_argv writes doc0.json, doc1.json, ... in argument order
    assert payload["inputs_digest"] == ",".join(
        hashlib.sha256((tmp_path / f"doc{n}.json").read_bytes()).hexdigest()
        for n in range(len(docs)))


def worst_residual(argv):
    status, out, err = run_captured(["--json", *argv])
    assert err == ""
    return status, max(e["residual"] for e in json.loads(out)["entries"])


SPHERE_DOC = {"dim": 2, "field": {"name": "sphere_stereographic"}, "grid": {"counts": 3}}


@pytest.mark.parametrize("command, doc, low, high", [
    (["nijenhuis", "--kind", "complex"], NIJENHUIS_DOC, 1e-3, 1e-2),
    (["curvature"], SPHERE_DOC, 1.0, 10.0)])
def test_tol_alone_judges_nijenhuis_and_curvature(command, doc, low, high, tmp_path):
    argv = [*command, write(tmp_path, "field.json", doc)]
    status, worst = worst_residual(argv)
    assert status == 1 and low < worst < high
    for flags in ([], ["--atol", "100", "--rtol", "100"], ["--atol", "1e-12", "--rtol", "0"]):
        assert run([*flags, *argv, "--tol", str(low)]) == 1
        assert run([*flags, *argv, "--tol", str(high)]) == 0


def test_atol_judges_validate(tmp_path):
    path = write(tmp_path, "near.json", {"kind": "complex", "matrix": [[0, -1], [1, 1e-7]]})
    assert worst_residual(["validate", path]) == (1, pytest.approx(1.414e-7, rel=1e-3))
    assert run(["--atol", "1e-6", "validate", path]) == 0
    assert run(["--atol", "1e-8", "validate", path]) == 1


# ---------------------------------------------------------------------------
# NaN residuals the per-sample reductions used to drop
# ---------------------------------------------------------------------------

def test_a_nan_condition_number_fails_invertibility(tmp_path, capsys):
    # T_ab is finite, but both of its singular values overflow to inf, so
    # its condition number is inf / inf = NaN; it used to read 0
    big = 1.5e308
    doc = line_atlas_doc("ab", [("a", "b", [[big, big], [-big, big]])])
    path = write(tmp_path, "atlas.json", doc)
    status, report = run_json(["cocycle", path])
    assert status == 1
    assert [(e["name"], e["passed"], e["residual"], e["location"])
            for e in report["entries"]] == [("invertible[a,b]", False, "NaN", "1 samples")]
    assert run(["cocycle", path]) == 1
    assert capsys.readouterr().out.startswith("FAIL  invertible[a,b]  residual=nan  [1 samples]\n")


def huge_kahler_pair(g):
    return {"flavor": "kahler",
            "given": {"g": (g * np.eye(2)).tolist(),
                      "structure": {"kind": "complex", "matrix": [[0.0, -1.0], [1.0, 0.0]]}}}


def test_tolerance_flags_reach_a_loop_documents_pair(tmp_path, capsys):
    # a complex structure off by 1e-7: --rtol 1e-5 completes the pair for
    # `triple complete`, and must complete it for a loop document as well
    pair = {"given": {"g": np.eye(2).tolist(), "structure": {
        "kind": "complex", "matrix": [[0.0, -1.0], [1.0 + 1e-7, 0.0]]}}}
    assert run(["--rtol", "1e-5", "triple", "complete", write(tmp_path, "pair.json", pair)]) == 0
    assert "worst residual 2.000e-07" in capsys.readouterr().out
    loop = write(tmp_path, "loop.json", {"target": {"pair": pair}, "loop": np.eye(2).tolist()})
    assert run(["--rtol", "1e-5", *LOOP_CHECK, loop]) == 0
    assert capsys.readouterr().out.startswith("pass  antisymmetry")
    assert run([*LOOP_CHECK, loop]) == 1
    assert "g(Iu, v) is not skew" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# triples and pairs that cannot be checked
# ---------------------------------------------------------------------------

def test_a_triple_declared_twice_exits_two(tmp_path, capsys):
    doc = atlas_doc()
    doc["triples"] = [doc["triples"][0], {"charts": ["b", "c", "a"], "points": [[0.0, 0.0]]},
                      doc["triples"][0]]
    assert run(["cocycle", write(tmp_path, "atlas.json", doc)]) == 2
    assert capsys.readouterr().err == ("parse error: $.triples[0].charts and "
                                       "$.triples[2].charts: repeated triple ['a', 'b', 'c']\n")


def test_a_triple_without_a_transition_names_its_path(tmp_path, capsys):
    doc = atlas_doc()
    doc["overlaps"] = doc["overlaps"][:2]
    assert run(["cocycle", write(tmp_path, "atlas.json", doc)]) == 2
    assert capsys.readouterr().err == (
        "parse error: $.triples[0].charts: triple overlap ['a', 'b', 'c'] has no "
        "transition declared between 'a' and 'c'\n")


HUGE_OMEGA_PAIR = {"flavor": "kahler",
                   "given": {"omega": [[0.0, 1e308], [-1e308, 0.0]],
                             "structure": {"kind": "complex",
                                           "matrix": [[0.0, -1.0], [1.0, 0.0]]}}}


@pytest.mark.parametrize("doc", [huge_kahler_pair(1e308), HUGE_OMEGA_PAIR],
                         ids=["given_g", "given_omega"])
def test_a_kahler_pair_near_the_float_limit_completes(doc, tmp_path, capsys):
    # g(Iu, v) is finite and skew, so Omega = s / 2 - s^T / 2 is finite; or
    # Omega(u, Iv) is finite and symmetric, and so is g = m / 2 + m^T / 2
    # ((s - s^T) / 2 and (m + m^T) / 2 overflowed, and were errors)
    path = write(tmp_path, "pair.json", doc)
    status, report = run_json(["triple", "complete", path])
    assert status == 0 and report["passed"]
    assert all(e["passed"] and e["residual"] <= 3.2e-16 for e in report["entries"])
    assert report["notes"] == ["flavor kahler, dimension 2",
                               "omega=[[0.0, 1e+308], [-1e+308, 0.0]]",
                               "metric=[[1e+308, 0.0], [0.0, 1e+308]]",
                               "structure=[[0.0, -1.0], [1.0, 0.0]]"]
    assert run(["triple", "complete", path]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.endswith("\nPASS (8 checks, worst residual 3.140e-16)\n")


@pytest.mark.parametrize("g", [8e307, 1e308], ids=["8e307", "1e308"])
def test_a_loop_target_near_the_float_limit_passes_its_checks(g, tmp_path, capsys):
    # the target completes, as above.  Its quadratures overflow (at 8e307 in
    # 4 of the 20 trials), and read NaN residuals; the check now evaluates
    # every form on the target divided by its largest entry, which is the
    # canonical target exactly, so the entries are those of g = Id
    def loop(scale):
        path = write(tmp_path, f"loop-{scale}.json",
                     {"target": {"pair": huge_kahler_pair(scale)}, "loop": [[0.0, 0.0]]})
        status, report = run_json([*LOOP_CHECK, path])
        return path, status, report["entries"]

    path, status, entries = loop(g)
    assert status == 0
    assert [(e["name"], e["passed"], e["residual"]) for e in entries] == [
        ("antisymmetry", True, 0.0), ("form_invariance", True, 0.0),
        ("metric_is_form_of_structure", True, 0.0), ("metric_positive_on_trials", True, 0.0)]
    assert entries == loop(1.0)[2]
    assert run([*LOOP_CHECK, path]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.endswith("\nPASS (4 checks, worst residual 0.000e+00)\n")


# ---------------------------------------------------------------------------
# verdicts that do not depend on the exponent range
# ---------------------------------------------------------------------------

def test_a_failing_block_form_entry_reads_nan(tmp_path, capsys):
    # r1 is 0 and r2 is NaN (1e200 * 1e200 overflows); Python's max dropped
    # a NaN in second place, so the failing entry read 0
    doc = {"kind": "complex", "matrix": [[0, -1e200], [1e-200, 0]],
           "decomposition": {"basis1": [[1e200, 0]], "basis2": [[0, 1e200]],
                             "iso": [[1e200]]}}
    path = write(tmp_path, "structure.json", doc)
    status, report = run_json(["validate", path])
    assert status == 1
    assert report["entries"][-1] == {"location": "", "name": "decomposition_block_form",
                                     "passed": False, "residual": "NaN"}
    assert run(["validate", path]) == 1
    assert "FAIL  decomposition_block_form  residual=nan\n" in capsys.readouterr().out


@pytest.mark.parametrize("s", [1e100, 1e160])
def test_a_relative_skew_defect_fails_at_every_exponent(s, tmp_path):
    # a relative defect of 1e-7; |s| used to overflow to inf past 1e154 and
    # accept every residual
    doc = {"kind": "symplectic", "matrix": [[0, s], [-s * (1 + 1e-7), 0]]}
    status, report = run_json(["validate", write(tmp_path, "structure.json", doc)])
    assert status == 1
    [skew] = [e for e in report["entries"] if e["name"] == "skew"]
    assert not skew["passed"]
    assert skew["residual"] == pytest.approx(s * 1e-7 * 2 ** 0.5, rel=1e-6)


@pytest.mark.parametrize("s", [1e100, 1e160])
def test_a_relative_cocycle_defect_fails_at_every_exponent(s, tmp_path):
    identity = np.eye(2).tolist()
    doc = line_atlas_doc("abc", [("a", "b", (s * np.eye(2)).tolist()), ("b", "c", identity),
                                 ("a", "c", [[s * (1 + 1e-7), 0.0], [0.0, s]])],
                         triples=[{"charts": ["a", "b", "c"], "points": [[0.5]]}])
    status, report = run_json(["cocycle", write(tmp_path, "atlas.json", doc)])
    assert status == 1
    [cocycle] = [e for e in report["entries"] if e["name"] == "cocycle[a,b,c]"]
    assert not cocycle["passed"]
    assert cocycle["residual"] == pytest.approx(s * 1e-7, rel=1e-6)


def test_a_large_symplectic_form_has_a_darboux_basis(tmp_path, capsys):
    # the pairing threshold rtol * |s| used to overflow to inf here, so
    # every pairing read as degenerate
    doc = {"kind": "symplectic", "matrix": [[0, 1e155], [-1e155, 0]]}
    assert run(["darboux", write(tmp_path, "form.json", doc)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("pass  canonical_form_residual  residual=0.000e+00\n")


def test_a_square_defect_is_judged_below_an_overflowing_scale(tmp_path):
    # |m|^2 (6.8e308) overflows and the defect (2.4e305) does not: judged at
    # an infinite scale, the entry would pass
    a = 1.3e154
    doc = {"kind": "complex", "matrix": [[a, a], [-1.001 * a, -a]]}
    status, report = run_json(["validate", write(tmp_path, "structure.json", doc)])
    assert status == 1
    [square] = [e for e in report["entries"] if e["name"] == "squares_to_minus_id"]
    assert not square["passed"]
    assert square["residual"] == pytest.approx(2.39e305, rel=1e-2)


# ---------------------------------------------------------------------------
# metrics and pairs past the exponent range
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("c", [1e200, 1e160])
def test_a_metric_that_is_not_finite_is_a_failing_curvature_entry(c, tmp_path, capsys):
    # g = diag((1 + 2c x)^2, (1 + 2c y)^2) overflows wherever x or y is not
    # 0; the SVD of a non-finite metric used to escape as a LinAlgError
    path = write(tmp_path, "overflow.json",
                 {"dim": 2, "field": {"name": "pullback_flat",
                                      "base_metric": [[1, 0], [0, 1]],
                                      "diffeo": [[[1, 0, 1.0], [2, 0, c]],
                                                 [[0, 1, 1.0], [0, 2, c]]]},
                  "grid": {"counts": 3}})
    where = np.array2string(np.array([-0.5, -0.5]), precision=3)
    assert run(["curvature", path]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [
        f"FAIL  curvature_residual  residual=inf  [{where}]",
        "note: verdict: not integrable", "note: metric not finite",
        "FAIL (1 checks, worst residual inf)"]
    status, report = run_json(["curvature", path])
    assert status == 1
    assert report["entries"] == [{"location": where, "name": "curvature_residual",
                                  "passed": False, "residual": "Infinity"}]
    assert report["notes"] == ["verdict: not integrable", "metric not finite"]


def huge_para_pair(s):
    return {"flavor": "para_kahler",
            "given": {"g": [[s, 0.0], [0.0, -s]], "omega": [[0.0, s], [-s, 0.0]]}}


@pytest.mark.parametrize("s", [9e307, 1.5e308])
def test_a_huge_neutral_metric_completes_its_para_pair(s, tmp_path, capsys):
    # (g + g^T) / 2 overflowed, so the neutral metric read as degenerate
    path = write(tmp_path, "pair.json", huge_para_pair(s))
    assert run(["triple", "complete", path]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[-1].startswith("PASS (8 checks")
    status, report = run_json(["triple", "complete", path])
    assert status == 0 and report["passed"]


@pytest.mark.parametrize("s", [9e307, 1.5e308])
def test_a_huge_neutral_target_gives_a_loop_space_report(s, tmp_path, capsys):
    # the target used to be rejected with "metric is not neutral"; its
    # trials overflow, and failed with NaN residuals until the check judged
    # the target divided by its largest entry, where they hold to rounding
    path = write(tmp_path, "loop.json",
                 {"target": {"pair": huge_para_pair(s)}, "loop": [[0.0, 0.0]]})
    status, report = run_json([*LOOP_CHECK, path])
    assert status == 0
    assert all(e["passed"] and e["residual"] <= 1e-15 for e in report["entries"])
    assert run([*LOOP_CHECK, path]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "pass  metric_neutral  residual=0.000e+00  [signature (1, 1)]" in captured.out


def test_the_grid_check_takes_a_matrix_for_a_structure_when_validate_does(tmp_path):
    # |A|^2 = 4e308 overflows and the square's defect, 1.3e292 where the
    # product is fused, is finite: both checks judge it below the largest
    # double, and the grid check used to read |A A + Id| as inf
    big = [[1e154, 1e154], [-1e154, -1e154]]
    status, report = run_json(["validate", write(tmp_path, "structure.json",
                                                 {"kind": "complex", "matrix": big})])
    [square] = [e for e in report["entries"] if e["name"] == "squares_to_minus_id"]
    assert status == 0 and square["passed"]
    field = write(tmp_path, "field.json",
                  {"dim": 2, "field": {"name": "constant", "kind": "1,1", "matrix": big}})
    status, report = run_json(["nijenhuis", "--kind", "complex", field])
    assert status == 0
    assert report["notes"] == ["verdict: formally integrable"]


def test_darboux_finds_a_basis_whenever_validate_calls_the_form_nondegenerate(tmp_path):
    # with --atol 0 the rank threshold is relative alone, so 2**-40 is a
    # pairing; the partner search used to compare it with rtol * max(|s|, 1)
    path = write(tmp_path, "form.json",
                 {"kind": "symplectic", "matrix": [[0.0, 2.0**-40], [-(2.0**-40), 0.0]]})
    status, report = run_json(["--atol", "0", "validate", path])
    [nondegenerate] = [e for e in report["entries"] if e["name"] == "nondegenerate"]
    assert status == 0 and nondegenerate["passed"]
    status, report = run_json(["--atol", "0", "darboux", path])
    assert status == 0
    assert report["entries"][0]["name"] == "canonical_form_residual"
    assert report["entries"][0]["residual"] == 0.0
    # under the default atol 1e-9 both call it degenerate
    status, report = run_json(["validate", path])
    assert status == 1
    assert run(["darboux", path]) == 1


def test_an_affine_overlap_without_points_has_nothing_to_check(tmp_path):
    atlas = write(tmp_path, "atlas.json", {
        "fiber_dim": 1, "charts": [{"name": "a", "lo": [0.0], "hi": [1.0]},
                                   {"name": "b", "lo": [0.0], "hi": [1.0]}],
        "overlaps": [{"charts": ["a", "b"], "points": [],
                      "transition": {"affine": {"base": [[1.0]], "coeffs": [[[0.5]]]}}}]})
    status, report = run_json(["cocycle", atlas])
    assert status == 0
    assert report["entries"][0]["location"] == "0 samples"
