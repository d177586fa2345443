"""The one-pass ``--json`` writer and ``fro`` against the library paths they
replace: ``json.dumps(..., indent=2, sort_keys=True)`` of the report's dict,
and ``np.linalg.norm``."""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tensorstruct.linalg import fro
from tensorstruct.report import Report

# strings with the characters JSON escapes, plus arbitrary text
awkward = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é",
                           " ", "\U0001f600", "[0.1 -0.2]", ""])
strings = st.lists(awkward | st.text(max_size=8), max_size=4).map("".join)

# finite residuals, with the values whose repr is easy to get wrong
residuals = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
     1.7976931348623157e308, 1.0, -3.0, 1e16, 123456789.0, 0.1])

entries = st.lists(st.tuples(strings, st.booleans(), residuals, strings), max_size=6)


def reference(report):
    """The dict the old writer serialised."""
    passed = all(e.passed for e in report.entries)
    return {"command": report.command,
            "inputs_digest": report.digest,
            "entries": [{"name": e.name, "passed": e.passed, "residual": e.residual,
                         "location": e.location} for e in report.entries],
            "notes": list(report.notes),
            "passed": passed,
            "exit_status": 0 if passed else 1}


def build(command, digest, rows, notes):
    report = Report(command, digest)
    for name, passed, residual, location in rows:
        report.add(name, passed, residual, location)
    for text in notes:
        report.note(text)
    return report


@settings(max_examples=150, deadline=None)
@given(command=strings, digest=strings, rows=entries, notes=st.lists(strings, max_size=4))
def test_to_json_is_the_indented_sorted_dump(command, digest, rows, notes):
    report = build(command, digest, rows, notes)
    out = report.to_json()
    assert out == json.dumps(reference(report), indent=2, sort_keys=True)
    parsed = json.loads(out)
    assert [e["residual"] for e in parsed["entries"]] == [r for _, _, r, _ in rows]


def test_empty_report_layout():
    assert Report("validate", "abc").to_json() == (
        '{\n  "command": "validate",\n  "entries": [],\n  "exit_status": 0,\n'
        '  "inputs_digest": "abc",\n  "notes": [],\n  "passed": true\n}')


@pytest.mark.parametrize("residuals, worst", [
    ([], 0.0), ([0.5, 2.0, 1.0], 2.0), ([0.0, math.nan, math.inf], math.nan),
    ([math.nan, 1.0], math.nan), ([1.0, math.inf], math.inf)])
def test_a_nan_residual_is_the_worst_wherever_it_stands(residuals, worst):
    report = build("c", "d", [(f"e{k}", False, r, "") for k, r in enumerate(residuals)], [])
    assert struct.pack("<d", report.worst_residual) == struct.pack("<d", worst)


def test_non_finite_residuals_are_json_strings():
    values = [math.inf, -math.inf, math.nan, 1.5]
    report = build("c", "d", [(f"e{k}", False, v, "") for k, v in enumerate(values)], [])
    out = report.to_json()

    def reject(token):
        raise ValueError(token)

    parsed = json.loads(out, parse_constant=reject)
    back = [float(e["residual"]) for e in parsed["entries"]]
    assert back[:2] == [math.inf, -math.inf] and math.isnan(back[2]) and back[3] == 1.5
    # every other byte is the old layout's
    expected = reference(report)
    for entry, text in zip(expected["entries"], ["Infinity", "-Infinity", "NaN"]):
        entry["residual"] = text
    assert out == json.dumps(expected, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# fro
# ---------------------------------------------------------------------------

def bits(x):
    return struct.pack("<d", x)


def layouts(rng):
    a = rng.normal(size=(6, 5)) * 10.0 ** rng.integers(-150, 150)
    yield a                                     # C-ordered
    yield a.T                                   # transposed (F-ordered view)
    yield np.asfortranarray(a)
    yield a[::2, ::3]                           # strided
    yield a[:, ::-1]                            # negative stride
    yield rng.normal(size=(3, 4, 2)).transpose(2, 0, 1)
    yield rng.integers(-50, 50, size=(4, 4))    # integer
    yield rng.normal(size=7)                    # vector
    yield np.float64(rng.normal())              # 0-d
    yield rng.normal(size=(3, 3)).tolist()      # nested list
    yield np.zeros((0,))                        # empty
    yield np.zeros((0, 3))
    yield np.full((2, 2), -0.0)


@pytest.mark.parametrize("seed", range(20))
def test_fro_is_linalg_norm_bit_for_bit(seed):
    for a in layouts(np.random.default_rng(seed)):
        assert bits(fro(a)) == bits(float(np.linalg.norm(a)))
