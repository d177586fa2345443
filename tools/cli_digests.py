"""Digest every benchmark CLI invocation, to show that two trees print the same bytes.

    python3 tools/cli_digests.py SRC DOCDIR > digests.txt

``SRC`` is the root of a source checkout: the package is imported from
``SRC/src`` and the documents are generated by ``SRC/bench/workloads.py``,
which this script only reads.  For every CLI operation of rounds 0 and 1
of seeds 0, 3 and 7, in every workload at both sizes, it calls
``tensorstruct.cli.run`` in this process twice, with and without
``--json``, and prints one line per call: workload, size, seed, round,
operation id, output mode and the sha256 of (exit status, stdout,
stderr).  For every library operation of the same rounds, with its
inputs built as ``SRC/bench/execute.py`` builds them, it prints one line
with output mode ``library`` and a sha256: for ``tuple_membership`` of the
report's entries (name, verdict, the 8 bytes of the residual and
location), for ``theta_projection`` and ``structure_from`` of the shape
and bytes of every matrix the calls return.  Then, in both output modes,
it digests a fixed set of malformed inputs (``MALFORMED``, each its argv
words and the bytes of its document: for ``validate``, bytes that are not
UTF-8, a NUL byte in the path, a UTF-8 BOM, UTF-16 text, an empty file, a
``NaN`` entry, an entry of 2**64, nesting 100,000 deep and a degenerate
Krein metric; for ``triple complete`` and ``loopspace check``, a Kahler
pair and a para-Kahler pair whose metric is singular, and pairs that hold
no two of a metric, a form and a (para-)complex structure (a metric with a
Krein structure under both, a form with a cotangent structure under
``triple complete``); ``--atol 0 validate`` on the form
``[[0, 2**-30], [-2**-31, 0]]``, which is not skew at any scale; inputs
whose eigenvalues, singular values or sums of squares leave the float
range (``validate`` on the Krein metric ``[[1.5e308, 1.5e308], [1.5e308,
-1.5e308]]`` and on the 4x4 skew form with every entry above the diagonal
1e308, ``triple complete`` on the metric ``[[1.5e308, 1e308], [1e308,
1.5e308]]`` with the form ``[[0, 1.5e308], [-1.5e308, 0]]``, and
``--atol 0 validate`` on the symmetric form ``[[0, s], [(1 + 1e-6) s,
0]]`` at s = 2**-600); and
argv that only argparse reads or rejects: an abbreviated option, an
``--option=value`` word, ``--`` before a path, ``-h`` on a subcommand, a
repeated ``--atol``, ``--json`` after the subcommand and an unknown
``--kind``), one line each with workload ``malformed``; an
exception that escapes ``cli.run`` is digested in place of the exit
status, so the script runs on trees that do not mend these inputs.  The
last line is the number of calls.

Documents are written under ``DOCDIR``; paths can appear in the output, so
compare two trees with the same ``DOCDIR``:

    python3 tools/cli_digests.py parent /tmp/docs > a.txt
    python3 tools/cli_digests.py . /tmp/docs > b.txt
    diff a.txt b.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import struct
import sys
from pathlib import Path

SEEDS = (0, 3, 7)
ROUNDS = (0, 1)

_STRUCTURE = '{"kind": "complex", "matrix": [[0, -1], [1, 0]]}'
_SINGULAR_PAIR = b'{"given": {"g": [[0, 0], [0, 0]], "omega": [[0, 1], [-1, 0]]}}'
_SINGULAR_PARA_PAIR = b'{"flavor": "para_kahler", ' + _SINGULAR_PAIR[1:]
# pairs that hold no two of a metric, a form and a (para-)complex structure
_KREIN_PAIR = b'{"given": {"g": [[1, 0], [0, 1]], "structure": {"kind": "krein", ' \
    b'"matrix": [[1, 0], [0, -1]]}}}'
_COTANGENT_PAIR = b'{"flavor": "para_kahler", "given": {"omega": [[0, 1], [-1, 0]], ' \
    b'"structure": {"kind": "cotangent", "matrix": [[0, 1], [-1, 0]], "decomposition": ' \
    b'{"lagrangian_basis": [[1, 0]], "complement_basis": [[0, 1]]}}}}'
DOC = "{doc}"  # the word that stands for the document's path
# name: (argv words, the document's bytes, or None for a path with a NUL
# byte); the last seven are argv that only argparse reads or rejects
MALFORMED = {
    "invalid-utf8": (["validate", DOC],
                     b'{"kind": "complex", "matrix": [[0, -1], [1, 0]], "x": "\xff"}'),
    "nul-in-path": (["validate", DOC], None),
    "utf8-bom": (["validate", DOC], b"\xef\xbb\xbf" + _STRUCTURE.encode()),
    "utf16": (["validate", DOC], _STRUCTURE.encode("utf-16")),
    "empty": (["validate", DOC], b""),
    "nan-entry": (["validate", DOC], b'{"kind": "complex", "matrix": [[0, -1], [1, NaN]]}'),
    "entry-2**64": (["validate", DOC],
                    b'{"kind": "complex", "matrix": [[0, -1], [1, 18446744073709551616]]}'),
    "nested-100000": (["validate", DOC], b'{"kind": "complex", "matrix": '
                      + b"[" * 100_000 + b"]" * 100_000 + b"}"),
    "singular-metric-triple": (["triple", "complete", DOC], _SINGULAR_PAIR),
    "singular-metric-loopspace": (["--seed", "1", "loopspace", "check", DOC],
                                  b'{"target": {"pair": ' + _SINGULAR_PAIR
                                  + b'}, "loop": [[0.1, 0.2], [0.3, 0.4]]}'),
    "degenerate-krein": (["validate", DOC], b'{"kind": "krein", "matrix": [[1, 0], [0, 0]]}'),
    "singular-para-metric-triple": (["triple", "complete", DOC], _SINGULAR_PARA_PAIR),
    "singular-para-metric-loopspace": (["--seed", "1", "loopspace", "check", DOC],
                                       b'{"target": {"pair": ' + _SINGULAR_PARA_PAIR
                                       + b'}, "loop": [[0.1, 0.2], [0.3, 0.4]]}'),
    "krein-pair-triple": (["triple", "complete", DOC], _KREIN_PAIR),
    "cotangent-pair-triple": (["triple", "complete", DOC], _COTANGENT_PAIR),
    "krein-pair-loopspace": (["--seed", "1", "loopspace", "check", DOC],
                             b'{"target": {"pair": ' + _KREIN_PAIR
                             + b'}, "loop": [[0.1, 0.2], [0.3, 0.4]]}'),
    # [[0, 2**-30], [-2**-31, 0]], not skew at any scale
    "not-skew-2**-30-atol-0": (["--atol", "0", "validate", DOC],
                               b'{"kind": "symplectic", "matrix": [[0, 9.313225746154785e-10], '
                               b'[-4.656612873077393e-10, 0]]}'),
    "krein-1.5e308": (["validate", DOC], b'{"kind": "krein", "matrix": '
                      b'[[1.5e308, 1.5e308], [1.5e308, -1.5e308]]}'),
    "skew-4x4-1e308": (["validate", DOC], b'{"kind": "symplectic", "matrix": [[0, 1e308, 1e308, '
                       b'1e308], [-1e308, 0, 1e308, 1e308], [-1e308, -1e308, 0, 1e308], '
                       b'[-1e308, -1e308, -1e308, 0]]}'),
    "metric-eigenvalue-overflow-triple": (["triple", "complete", DOC],
                                          b'{"given": {"g": [[1.5e308, 1e308], [1e308, 1.5e308]], '
                                          b'"omega": [[0, 1.5e308], [-1.5e308, 0]]}}'),
    # [[0, s], [(1 + 1e-6) s, 0]] at s = 2**-600, not symmetric at any scale
    "off-symmetric-2**-600-atol-0": (["--atol", "0", "validate", DOC],
                                     b'{"kind": "bilinear", "matrix": '
                                     b'[[0, 2.409919865102884e-181], [2.409922275022749e-181, 0]]}'),
    "abbreviated-option": (["--seed", "1", "loopspace", "demo", "--lev", "2"],
                           _STRUCTURE.encode()),
    "option=value": (["--atol=1e-9", "validate", DOC], _STRUCTURE.encode()),
    "double-dash": (["validate", "--", DOC], _STRUCTURE.encode()),
    "help-on-subcommand": (["validate", "-h"], _STRUCTURE.encode()),
    "repeated-atol": (["--atol", "1", "--atol", "1e-9", "validate", DOC],
                      _STRUCTURE.encode()),
    "json-after-subcommand": (["validate", "--json", DOC], _STRUCTURE.encode()),
    "bogus-kind": (["nijenhuis", "--kind", "bogus", DOC], _STRUCTURE.encode()),
}


def digest(cli, argv):
    """sha256 of the exit status, stdout and stderr of one ``cli.run``; an
    exception that escapes stands in for the exit status."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.run(argv)
    except Exception as exc:  # an escaping exception is part of what is compared
        status = f"{type(exc).__name__}: {exc}"
    payload = "\0".join((repr(status), out.getvalue(), err.getvalue()))
    return hashlib.sha256(payload.encode()).hexdigest()


def library_digest(op, prepared):
    """sha256 of what the benchmark's library operation ``op`` computes
    from ``prepared``, calling the library as ``bench/execute.py`` does."""
    import numpy as np
    import tensorstruct.compat as compat
    import tensorstruct.limits as limits

    payload = hashlib.sha256()
    args = op["args"]
    if op["fn"] == "tuple_membership":
        report = limits.tuple_membership(limits.tuple_compose(*prepared))
        for e in report.entries:
            payload.update(repr((e.name, e.passed, struct.pack("<d", e.residual),
                                 e.location)).encode())
        return payload.hexdigest()
    if op["fn"] == "theta_projection":
        a, mid, top = args["member"], args["mid"], len(args["dims"]) - 1
        matrices = (limits.theta_projection(
                        limits.theta_projection(a, top, mid, prepared), mid, 0, prepared),
                    limits.theta_projection(a, top, 0, prepared))
    else:
        structure, corrected, operator = compat.structure_from(args["g"], prepared)
        matrices = (structure.matrix, corrected.matrix, operator.matrix)
    for m in matrices:
        m = np.ascontiguousarray(m, dtype=float)
        payload.update(repr(m.shape).encode() + m.tobytes())
    return payload.hexdigest()


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: cli_digests.py SRC DOCDIR", file=sys.stderr)
        return 2
    src, docdir = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    # single-threaded BLAS, as the benchmark runs it, set before numpy loads
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path[:0] = [str(src / "src"), str(src / "bench")]
    sys.dont_write_bytecode = True  # leave no cache files in the source tree
    import execute
    import workloads
    import tensorstruct.cli as cli

    calls = 0
    for workload in workloads.WORKLOADS:
        for size in workloads.SIZES:
            for seed in SEEDS:
                for index in ROUNDS:
                    where = docdir / workload / size / str(seed) / str(index)
                    for op in workloads.round_ops(workload, seed, index, size, where):
                        if op["kind"] != "cli":
                            print(workload, size, seed, index, op["id"], "library",
                                  library_digest(op, execute.prepare(op)))
                            calls += 1
                            continue
                        text = [a for a in op["argv"] if a != "--json"]
                        for mode, args in (("json", op["argv"]), ("text", text)):
                            print(workload, size, seed, index, op["id"], mode,
                                  digest(cli, args))
                            calls += 1
    where = docdir / "malformed"
    where.mkdir(parents=True, exist_ok=True)
    for name, (words, raw) in MALFORMED.items():
        path = where / (f"{name}.json" if raw is not None else "a\0b.json")
        if raw is not None:
            path.write_bytes(raw)
        words = [str(path) if word == DOC else word for word in words]
        for mode, args in (("json", ["--json", *words]), ("text", words)):
            print("malformed", "-", "-", "-", name, mode, digest(cli, args))
            calls += 1
    print(f"{calls} invocations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
