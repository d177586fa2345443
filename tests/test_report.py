"""The one-pass ``--json`` writer, ``fro`` and ``location`` against the
library paths they replace: ``json.dumps(..., indent=2, sort_keys=True)`` of
the report's dict, ``np.linalg.norm`` and ``np.array2string``; reports held
as blocks against the entries they stand for; ``fro_each`` against ``fro``."""

import contextlib
import io
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tensorstruct.cli import _emit
from tensorstruct.linalg import fro, fro_each
from tensorstruct.report import _CHUNK, Report, location

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
# blocks
# ---------------------------------------------------------------------------

# text with % signs in every role a %-format gives them
texts = st.lists(awkward | st.sampled_from(["%", "%%", "%d", "%s", "50%"]) | st.text(max_size=6),
                 max_size=4).map("".join)
values = residuals | st.sampled_from([math.inf, -math.inf, math.nan])
one = st.tuples(st.just("add"), texts, st.booleans(), values, texts)
blocks = st.integers(0, 3).flatmap(lambda arity: st.tuples(
    st.just("block"), texts, st.just(arity),
    st.lists(st.tuples(st.tuples(*[st.integers(-9, 10**9)] * arity), st.booleans(), values),
             max_size=4)))


def long_block(text, arity, length, seed, value, at):
    """A block of ``length`` random entries, with residual ``value`` at
    entry ``at`` (counted from the end when negative)."""
    rng = np.random.default_rng(seed)
    items = [(tuple(rng.integers(-9, 10**9, size=arity).tolist()), bool(rng.integers(2)),
              float(rng.normal() * 10.0 ** rng.integers(-300, 300))) for _ in range(length)]
    if -length <= at < length:
        index, passed, _ = items[at]
        items[at] = (index, passed, value)
    return "block", text, arity, items


# blocks of a chunk of entries the writer formats at once, and one entry
# fewer or more, or longer, with a residual at a chunk boundary that may be
# non-finite
long_blocks = st.builds(
    long_block, texts, st.integers(0, 3),
    st.sampled_from([_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK, 2 * _CHUNK + 3]),
    st.integers(0, 2**32 - 1), values, st.sampled_from([0, _CHUNK - 1, _CHUNK, -1]))


def bits(x):
    return struct.pack("<d", x)


def fill(report, ops):
    """Apply ``add`` and ``block`` operations; the entries they stand for,
    as ``(name, passed, residual, location)`` rows."""
    rows = []
    for op in ops:
        if op[0] == "add":
            _, name, passed, residual, location = op
            report.add(name, passed, residual, location)
            rows.append((name, passed, residual, location))
            continue
        _, text, arity, items = op
        template = text.replace("%", "%%") + "[" + ",".join(["%d"] * arity) + "]"
        report.block(template, [index for index, _, _ in items],
                     np.array([p for _, p, _ in items], dtype=bool),
                     np.array([r for _, _, r in items], dtype=float))
        rows += [(f"{text}[{','.join(map(str, index))}]", p, r, "") for index, p, r in items]
    return rows


def json_of(command, digest, rows, notes):
    """The report the rows stand for, as the indented sorted dump, with a
    non-finite residual as its string."""
    passed = all(p for _, p, _, _ in rows)
    text = {math.inf: "Infinity", -math.inf: "-Infinity"}
    return json.dumps({
        "command": command, "inputs_digest": digest, "notes": notes, "passed": passed,
        "exit_status": 0 if passed else 1,
        "entries": [{"name": n, "passed": p, "location": loc,
                     "residual": r if math.isfinite(r) else text.get(r, "NaN")}
                    for n, p, r, loc in rows]}, indent=2, sort_keys=True)


def text_of(rows, notes):
    """The CLI's text output for the rows, written one entry at a time."""
    lines = []
    for name, passed, residual, location in rows:
        where = f"  [{location}]" if location else ""
        lines.append(f"{'pass' if passed else 'FAIL'}  {name}  residual={residual:.3e}{where}")
    lines += [f"note: {note}" for note in notes]
    residuals = [r for _, _, r, _ in rows]
    worst = math.nan if any(map(math.isnan, residuals)) else max(residuals, default=0.0)
    passed = all(p for _, p, _, _ in rows)
    lines.append(f"{'PASS' if passed else 'FAIL'} ({len(rows)} checks, worst residual "
                 f"{worst:.3e})")
    return "\n".join(lines) + "\n"


def text_output(report):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = _emit(report, False)
    assert status == report.exit_status
    return out.getvalue()


def bit_rows(rows):
    return [(n, p, bits(float(r)), loc) for n, p, r, loc in rows]


@settings(max_examples=200, deadline=None)
@given(command=strings, digest=strings, ops=st.lists(one | blocks | long_blocks, max_size=5),
       prefix=st.none() | texts, notes=st.lists(texts, max_size=3))
def test_blocks_stand_for_their_entries(command, digest, ops, prefix, notes):
    report = Report(command, digest)
    rows = fill(report, ops)
    for text in notes:
        report.note(text)
    if prefix is not None:
        # as the CLI nests a sub-report: one entry of its own, then the
        # sub-report's entries under the prefix
        outer = Report(command, digest)
        outer.add("own", True, 0.0)
        outer.extend(report, prefix)
        rows = [("own", True, 0.0, "")] + [(prefix + n, p, r, loc) for n, p, r, loc in rows]
        report = outer
    got = [(e.name, e.passed, bits(e.residual), e.location) for e in report.entries]
    assert got == bit_rows(rows)
    assert bit_rows((e.name, e.passed, e.residual, e.location) for e in report.failures()) \
        == bit_rows(row for row in rows if not row[1])
    assert report.passed == all(p for _, p, _, _ in rows)
    assert report.to_json() == json_of(command, digest, rows, notes)
    assert text_output(report) == text_of(rows, notes)


def test_extend_prefixes_each_block_and_keeps_percent_signs():
    inner = Report()
    inner.add("modelled[50%]", True, 0.0, "at 10%")
    inner.block("coherent[%d,%d]", [], np.array([], dtype=bool), np.array([]))
    inner.block("composition[%d,%d,%d]", [(0, 1, 2), (1, 1, 2)], np.array([False, True]),
                np.array([0.5, 1e-12]))
    outer = Report("reduce", "d")
    outer.add("cocycle[a,b,c]", True, 1e-17)
    outer.extend(inner, prefix="field%d/")
    assert [(e.name, e.passed, e.residual, e.location) for e in outer.entries] == [
        ("cocycle[a,b,c]", True, 1e-17, ""),
        ("field%d/modelled[50%]", True, 0.0, "at 10%"),
        ("field%d/composition[0,1,2]", False, 0.5, ""),
        ("field%d/composition[1,1,2]", True, 1e-12, "")]
    # the extended report shares the blocks and changes none of them
    assert [e.name for e in inner.entries] == [
        "modelled[50%]", "composition[0,1,2]", "composition[1,1,2]"]
    assert text_output(outer) == (
        "pass  cocycle[a,b,c]  residual=1.000e-17\n"
        "pass  field%d/modelled[50%]  residual=0.000e+00  [at 10%]\n"
        "FAIL  field%d/composition[0,1,2]  residual=5.000e-01\n"
        "pass  field%d/composition[1,1,2]  residual=1.000e-12\n"
        "FAIL (4 checks, worst residual 5.000e-01)\n")


def test_an_empty_block_writes_no_entries():
    report = Report("tower check", "abc")
    report.block("coherent[%d,%d]", [], np.array([], dtype=bool), np.array([]))
    assert report.entries == () and report.passed and report.worst_residual == 0.0
    assert report.to_json() == Report("tower check", "abc").to_json()
    assert text_output(report) == "PASS (0 checks, worst residual 0.000e+00)\n"


@pytest.mark.parametrize("blocks, worst", [
    ([[0.5, 2.0], [1.0]], 2.0), ([[0.5, 2.0], [1.0, math.nan]], math.nan),
    ([[math.inf], [], [0.0, math.nan, 3.0]], math.nan), ([[math.inf, 1.0], [2.0]], math.inf)])
def test_a_nan_residual_is_the_worst_in_any_block(blocks, worst):
    report = Report()
    for k, block in enumerate(blocks):
        report.block(f"law{k}[%d]", [(i,) for i in range(len(block))],
                     np.zeros(len(block), dtype=bool), np.array(block, dtype=float))
        report.add(f"single{k}", True, 0.25)
    assert bits(report.worst_residual) == bits(worst)
    assert not report.passed and report.exit_status == 1


# ---------------------------------------------------------------------------
# fro
# ---------------------------------------------------------------------------

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


@pytest.mark.parametrize("seed", range(20))
def test_fro_each_is_fro_bit_for_bit(seed):
    # rows that overflow to the scaled norm, rows with inf and NaN entries;
    # square stacks of n <= 3, and (P, a, c) stacks up to the (32, 32, 32)
    # of a composition law of a depth-32 tower, empty matrices included
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    stacks = [rng.normal(size=(12, n, n)) * 10.0 ** rng.integers(-300, 300, size=(12, 1, 1))]
    p, a, c = (int(rng.integers(low, 33)) for low in (4, 0, 0))
    stacks.append(rng.normal(size=(p, a, c)) * 10.0 ** rng.integers(-300, 300, size=(p, 1, 1)))
    for stack in stacks:
        if stack[0].size:
            stack[0, 0, 0], stack[1, -1, -1] = np.inf, np.nan
        stack[2], stack[3] = 1e200, 0.0
        with np.errstate(all="ignore"):
            got = fro_each(stack)
            assert [bits(r) for r in got] == [bits(fro(m)) for m in stack]
        assert fro_each(np.zeros((0,) + stack.shape[1:])).shape == (0,)


# the switches of array2string: positional notation needs the nonzero
# magnitudes in [1e-4, 1e8) and their ratio at most 1e3, and a row wraps
# past 75 columns
SWITCHES = [1e-4, 1e8, 1e3, 1e-1, 1.0]
coordinates = (
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
    | st.sampled_from(SWITCHES).flatmap(lambda v: st.sampled_from(
        [v, -v, np.nextafter(v, 0.0), np.nextafter(v, math.inf)]))
    | st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10.0, 10.0), st.integers(-300, 300))
    | st.builds(round, st.floats(-1e8, 1e8), st.integers(0, 4))
    | st.floats(-1e3, 1e3))


@settings(max_examples=500, deadline=None)
@given(st.lists(coordinates, min_size=1, max_size=8))
@example([1.0, 1e3])  # max/min = 1e3
@example([1.0, np.nextafter(1e3, 1e4)])
@example([1e-4, 0.1])
@example([99999999.875, 1.0])
@example([-0.0, 0.0, 1.5])
@example([12345678.125] * 8)  # 105 columns on one line
@example([1.25] * 8)
def test_location_is_array2string(coordinates):
    assert location(np.array(coordinates)) == np.array2string(np.array(coordinates),
                                                              precision=3)


@pytest.mark.parametrize("options", [{"floatmode": "fixed"}, {"suppress": True},
                                     {"linewidth": 10}, {"sign": "+"}, {"legacy": "1.13"},
                                     {"formatter": {"float": "{:.1f}".format}}])
def test_location_follows_numpy_print_options(options):
    with np.printoptions(**options):
        for x in ([0.5, 1.0], [1e-5, 1.0], [12.5, -3.25, 0.0]):
            assert location(np.array(x)) == np.array2string(np.array(x), precision=3)
