"""What each entry point loads: the package root loads no submodule, and
each subcommand loads only the modules it uses.  Every case runs in a
fresh interpreter, so that no earlier import counts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tensorstruct

SRC = Path(tensorstruct.__file__).resolve().parents[1]

# what every subcommand loads: the front end, the schemas and what they use
COMMON = {"cli", "documents", "errors", "linalg", "report", "structures"}

FIELD = {"dim": 2, "grid": {"counts": 2},
         "field": {"name": "pullback_flat", "base_metric": [[1.0, 0.0], [0.0, 1.0]],
                   "diffeo": [[[1, 0, 1.0]], [[0, 1, 1.0]]]}}
CASES = {
    "curvature": (["curvature", "doc.json"], FIELD, COMMON | {"calculus", "poly"}),
    "nijenhuis": (["nijenhuis", "doc.json", "--kind", "tangent"],
                  {"dim": 2, "grid": {"counts": 2},
                   "field": {"name": "constant", "kind": "1,1",
                             "matrix": [[0.0, 1.0], [0.0, 0.0]]}},
                  COMMON | {"calculus", "poly"}),
    "tower check": (["tower", "check", "doc.json"], {"variance": "direct", "dims": [1, 2]},
                    COMMON | {"limits", "bundle"}),
    "connection check": (["connection", "check", "doc.json"],
                         {"variance": "projective", "dims": [1, 2],
                          "forms": [{"coeffs": [[[0.0]]]},
                                    {"coeffs": [[[0.0] * 2] * 2] * 2}],
                          "models": [{"kind": "2,0", "matrix": [[1.0]]},
                                     {"kind": "2,0", "matrix": [[1.0, 0.0], [0.0, 1.0]]}],
                          "sample_points": [[0.0, 0.0]]},
                         COMMON | {"limits", "bundle"}),
    "validate": (["validate", "doc.json"],
                 {"kind": "complex", "matrix": [[0.0, -1.0], [1.0, 0.0]]}, COMMON),
    "cocycle": (["cocycle", "doc.json"],
                {"fiber_dim": 1, "charts": [{"name": "u", "lo": [0.0], "hi": [1.0]}]},
                COMMON | {"bundle"}),
}


def _fresh(code, cwd):
    """The JSON that ``code`` prints last, run in a new interpreter that
    imports tensorstruct from the tree under test."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


LOADED = ("sorted(m.partition('.')[2] for m in sys.modules "
          "if m.startswith('tensorstruct.'))")


def test_importing_the_package_loads_no_submodule(tmp_path):
    assert _fresh(f"import json, sys, tensorstruct; print(json.dumps({LOADED}))",
                  tmp_path) == []


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_subcommand_loads_only_what_it_uses(case, tmp_path):
    argv, doc, modules = CASES[case]
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    status, loaded = _fresh(
        "import contextlib, io, json, sys\n"
        "from tensorstruct import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    status = cli.run({argv!r})\n"
        f"print(json.dumps([status, {LOADED}]))", tmp_path)
    assert status == 0
    assert set(loaded) == modules


def test_every_root_name_is_the_object_of_its_defining_module():
    for name in tensorstruct.__all__:
        value = getattr(tensorstruct, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("tensorstruct.")
        assert vars(home)[name] is value, name
    assert set(tensorstruct.__all__) <= set(dir(tensorstruct))
    with pytest.raises(AttributeError, match="no attribute 'mystery'"):
        tensorstruct.mystery  # noqa: B018
