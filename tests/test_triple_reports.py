"""One ``check_triple`` per completed pair, and one signature per check.

``complete_pair`` returns the report that accepted its triple, and ``triple
complete`` prints that report instead of checking the triple again.
``check_triple`` takes the metric's signature once for both metric pairs,
and not at all when the metric has the bits of the induced metric, whose
signature it has already taken.
Neither may move a bit: the returned report must equal a fresh
``check_triple``, and ``is_compatible`` must keep the entries it gave when
``check_triple`` was three calls of it.
"""

import contextlib
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tensorstruct.compat as compat
from tensorstruct import documents
from tensorstruct.cli import run
from tensorstruct.compat import check_triple, complete_pair, complete_triple, is_compatible
from tensorstruct.linalg import DEFAULT_TOL, Tolerance, symmetric_part

# interleaved 2 x 2 blocks: the symplectic form, the complex structure, and
# the para-Kahler metric, form and structure
S2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
C2 = np.array([[0.0, -1.0], [1.0, 0.0]])
G2 = np.diag([1.0, -1.0])
J2 = np.array([[0.0, -1.0], [-1.0, 0.0]])

ROUTES = ("no-structure", "no-omega", "no-metric")
GIVEN = {"no-structure": ("g", "omega"), "no-omega": ("g", "structure"),
         "no-metric": ("omega", "structure")}


def conditioned(rng, n):
    """An invertible n x n matrix with singular values between 1 and 2."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q * rng.uniform(1.0, 2.0, size=n)


def pair_doc(seed, flavor, route, pairs=1):
    """A pair document of ``flavor`` missing the element ``route`` names: a
    canonical triple on R^(2 * pairs) in coordinates changed by a
    conditioned matrix."""
    rng = np.random.default_rng(seed)
    p = conditioned(rng, 2 * pairs)
    eye = np.eye(pairs)
    kahler = flavor == "kahler"
    g = p.T @ (np.eye(2 * pairs) if kahler else np.kron(eye, G2)) @ p
    structure = np.linalg.inv(p) @ np.kron(eye, C2 if kahler else J2) @ p
    full = {"g": (0.5 * g + 0.5 * g.T).tolist(),
            "omega": (p.T @ np.kron(eye, S2) @ p).tolist(),
            "structure": {"kind": "complex" if kahler else "para_complex",
                          "matrix": structure.tolist()}}
    return {"flavor": flavor, "given": {name: full[name] for name in GIVEN[route]}}


def huge_kahler_pair():
    return {"flavor": "kahler",
            "given": {"g": (1e308 * np.eye(2)).tolist(),
                      "structure": {"kind": "complex", "matrix": C2.tolist()}}}


def entries(report):
    """(name, verdict, the 8 bytes of the residual, location) per entry."""
    return [(e.name, e.passed, struct.pack("<d", e.residual), e.location)
            for e in report.entries]


def pairs_of(triple):
    """The three pairs ``check_triple`` judges, under their prefixes."""
    return (("form_structure/", triple.omega, triple.structure),
            ("metric_structure/", triple.metric, triple.structure),
            ("metric_form/", triple.metric, triple.omega))


# ---------------------------------------------------------------------------
# call counts of `triple complete`
# ---------------------------------------------------------------------------

@pytest.fixture
def counted(monkeypatch):
    """One list per ``check_triple`` call, of the matrix of each
    ``signature_of`` call made inside it; ``signature_of`` lists every call's
    matrix, inside or not, and ``triple`` is the last one checked."""
    calls = {"check_triple": [], "signature_of": []}
    check, signature = compat.check_triple, compat.signature_of

    def check_triple_counted(triple, *args, **kwargs):
        calls["check_triple"].append([])
        calls["triple"] = triple
        return check(triple, *args, **kwargs)

    def signature_counted(g, *args, **kwargs):
        calls["signature_of"].append(g)
        if calls["check_triple"]:
            calls["check_triple"][-1].append(g)
        return signature(g, *args, **kwargs)

    monkeypatch.setattr(compat, "check_triple", check_triple_counted)
    monkeypatch.setattr(compat, "signature_of", signature_counted)
    return calls


def cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = run(argv)
    return status, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("flavor", ["kahler", "para_kahler"])
@pytest.mark.parametrize("route", ROUTES)
def test_triple_complete_checks_its_triple_once(flavor, route, counted, tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair_doc(3, flavor, route, pairs=2)))
    status, out, err = cli(["triple", "complete", str(path)])
    assert (status, err) == (0, "") and out.splitlines()[-1].startswith("PASS (8 checks")
    [inside] = counted["check_triple"]
    triple = counted["triple"]
    # the form_structure pair's induced metric, then the metric itself once,
    # unless the metric has the induced metric's bits: the metric g_from
    # builds (no metric given) and the para polar route's corrected metric
    s, i = triple.omega.matrix, triple.structure.matrix
    induced = symmetric_part(s @ i)
    shared = np.array_equal(triple.metric_matrix, induced)
    assert shared == (route == "no-metric" or (flavor, route) == ("para_kahler", "no-structure"))
    if route == "no-metric":
        # g_from judged the induced metric, and its verdict is handed on:
        # one signature in the whole command, none inside the check
        assert inside == []
        [judged] = counted["signature_of"]
        assert judged.tobytes() == induced.tobytes()
        return
    assert inside[0].tobytes() == induced.tobytes()
    assert len(inside) == (1 if shared else 2)
    assert shared or inside[1] is triple.metric_matrix


def test_a_completion_that_fails_prints_its_failures(counted, tmp_path):
    # g = -Id is skew under the canonical structure, so the form completes,
    # but no Kahler signature test accepts the negative metric
    doc = {"flavor": "kahler", "given": {"g": (-np.eye(2)).tolist(),
                                         "structure": {"kind": "complex",
                                                       "matrix": C2.tolist()}}}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    for argv in (["triple", "complete", str(path)], ["--json", "triple", "complete", str(path)]):
        assert cli(argv) == (1, "", "error: completed triple fails: "
                             "form_structure/induced_metric_signature; "
                             "metric_structure/metric_signature; metric_form/metric_signature\n")
    # the completed form is C2 itself, so the induced metric is -Id too
    assert [len(inside) for inside in counted["check_triple"]] == [1, 1]


# ---------------------------------------------------------------------------
# one report, same bits
# ---------------------------------------------------------------------------

def assert_one_report(doc, tol):
    first, second, flavor = documents.parse_pair(doc, tol)
    triple, report = complete_pair(first, second, flavor, tol)
    fresh = check_triple(triple, tol)
    assert entries(report) == entries(fresh) and report.notes == fresh.notes
    assert report.tol == tol
    again = complete_triple(first, second, flavor, tol)
    assert entries(check_triple(again, tol)) == entries(fresh)
    # check_triple's entries are is_compatible's on each pair, prefixed,
    # then the linking identity
    pieces = []
    for prefix, a, b in pairs_of(triple):
        pieces += [(prefix + name, *rest) for name, *rest in entries(
            is_compatible(a, b, flavor, tol))]
    assert entries(fresh)[:-1] == pieces
    assert fresh.entries[-1].name == "metric_is_omega_of_structure"


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), flavor=st.sampled_from(["kahler", "para_kahler"]),
       route=st.sampled_from(ROUTES), pairs=st.integers(1, 3),
       tol=st.sampled_from([DEFAULT_TOL, Tolerance(1e-12, 1e-7)]))
def test_the_completion_report_is_a_fresh_check(seed, flavor, route, pairs, tol):
    assert_one_report(pair_doc(seed, flavor, route, pairs), tol)


def test_a_pair_near_the_float_limit_has_one_report():
    # as the CLI runs it: fro's dot overflows, before its scaled fallback
    with np.errstate(all="ignore"):
        assert_one_report(huge_kahler_pair(), DEFAULT_TOL)


# is_compatible's entries on the pairs of completed triples, as the
# implementation that ran it three times per check_triple gave them:
# (seed, flavor, route, pair index) -> [(name, verdict, residual.hex(), location)]
PINNED = {
    (3, 'kahler', 'no-structure', 0): [
        ('form_invariance', True, '0x1.049a3f9f1595ap-49', ''),
        ('induced_metric_symmetric', True, '0x1.7878b96c58b4ap-52', ''),
        ('induced_metric_signature', True, '0x0.0p+0', 'signature (4, 0)'),
    ],
    (3, 'kahler', 'no-structure', 1): [
        ('metric_invariance', True, '0x1.267406b55a2a8p-49', ''),
        ('metric_signature', True, '0x0.0p+0', 'signature (4, 0)'),
    ],
    (3, 'kahler', 'no-structure', 2): [
        ('flat_composition_squares_correctly', True, '0x1.5dcd4eda11e33p-50', ''),
        ('metric_signature', True, '0x0.0p+0', 'signature (4, 0)'),
    ],
    (5, 'kahler', 'no-metric', 1): [
        ('metric_invariance', True, '0x1.a8b5b4a46c8abp-51', ''),
        ('metric_signature', True, '0x0.0p+0', 'signature (4, 0)'),
    ],
    (3, 'para_kahler', 'no-metric', 0): [
        ('form_invariance', True, '0x1.e8999f46267afp-51', ''),
        ('induced_metric_symmetric', True, '0x1.55aaa002a9d5ap-51', ''),
        ('induced_metric_signature', True, '0x0.0p+0', 'signature (2, 2)'),
    ],
    (3, 'para_kahler', 'no-metric', 2): [
        ('flat_composition_squares_correctly', True, '0x1.f2a24d320ea57p-52', ''),
        ('metric_signature', True, '0x0.0p+0', 'signature (2, 2)'),
    ],
    (5, 'para_kahler', 'no-omega', 1): [
        ('metric_invariance', True, '0x1.1841cc6217522p-50', ''),
        ('metric_signature', True, '0x0.0p+0', 'signature (2, 2)'),
    ],
    (5, 'para_kahler', 'no-structure', 2): [
        ('flat_composition_squares_correctly', True, '0x1.9014d1ea48296p-51', ''),
        ('metric_signature', True, '0x0.0p+0', 'signature (2, 2)'),
    ],
}


@pytest.mark.parametrize("key", sorted(PINNED))
def test_is_compatible_keeps_its_entries(key):
    seed, flavor, route, index = key
    first, second, flavor = documents.parse_pair(pair_doc(seed, flavor, route, pairs=2),
                                                   DEFAULT_TOL)
    triple = complete_triple(first, second, flavor)
    _, a, b = pairs_of(triple)[index]
    for first in (a, getattr(a, "matrix", None)) if index else (a,):
        # a metric may also be given as a bare array
        got = [(e.name, e.passed, e.residual.hex(), e.location)
               for e in is_compatible(first, b, flavor).entries]
        assert got == PINNED[key]
