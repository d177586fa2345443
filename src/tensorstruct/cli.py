"""Batch front end: parse JSON documents, dispatch, emit structured reports.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 parse or
usage error.  ``--json`` emits the machine-readable report as strict JSON
(``Report.to_json``; re-parsing it reproduces every residual exactly); the
randomized subcommands require an explicit ``--seed`` in that mode so the
emitted bytes are reproducible.  numpy's floating-point warnings are off
while a command runs: an overflow shows as a failing entry, not as a
warning on stderr.

``run`` alone names each report (the subcommand words, such as ``tower
check``), digests its inputs (the sha256 of each document, comma-joined in
the order read) and picks its ``Tolerance``: ``nijenhuis`` and
``curvature`` are judged with ``Tolerance(atol=--tol, rtol=0)``, every other
subcommand with ``--atol``/``--rtol``.  The subcommand branches only load,
parse and check.

The argument parser is built once per process, on the first ``run``, and
reused; ``run`` may be called any number of times in one process.  ``run``
reads well-formed argv straight from the parser's action table (``_quick``:
exact option strings, each value a word of its own, every positional and
subcommand present, no option twice, every value passing its ``type`` and
``choices``), and hands any other argv to argparse, so every usage, help
and error message is argparse's.

A subcommand loads only the modules it uses.  This module imports
``documents`` (with ``structures``), ``errors``, ``linalg`` and ``report``;
each branch of ``_dispatch`` imports its own check module on first use:
``validate`` and ``darboux`` need nothing more, ``triple`` loads
``compat``, ``cocycle`` and ``reduce`` ``bundle`` (``reduce --field`` also
``calculus`` and ``poly``), ``nijenhuis`` and ``curvature`` ``calculus``
and ``poly``, ``tower`` and ``connection`` ``limits`` and ``bundle``, and
``loopspace`` ``loopspace``, ``compat``, ``limits`` and ``bundle``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys

import numpy as np

from . import documents
from .documents import DocumentError
from .errors import TensorStructError
from .linalg import Tolerance
from .report import Report

RANDOMIZED = {"loopspace"}


def _load(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(raw), hashlib.sha256(raw).hexdigest()
    except (ValueError, RecursionError) as exc:  # bad JSON or encoding; too deeply nested
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc


def _emit(report: Report, as_json):
    if as_json:
        print(report.to_json())
    else:
        entries = report.entries
        for entry in entries:
            status = "pass" if entry.passed else "FAIL"
            location = f"  [{entry.location}]" if entry.location else ""
            print(f"{status}  {entry.name}  residual={entry.residual:.3e}{location}")
        for note in report.notes:
            print(f"note: {note}")
        print(f"{'PASS' if report.passed else 'FAIL'} "
              f"({len(entries)} checks, worst residual "
              f"{report.worst_residual:.3e})")
    return report.exit_status


def _number(cast, least, strict=False):
    """An argparse type: ``cast(text)``, finite and at least ``least``
    (above it when ``strict``).  Finite means at most the largest double
    in magnitude, so an int past the float range is not finite."""
    def parse(text):
        value = cast(text)
        # not math.isfinite, which raises OverflowError for such an int,
        # and argparse makes usage errors only of TypeError and ValueError
        if not (abs(value) <= sys.float_info.max
                and (value > least if strict else value >= least)):
            raise argparse.ArgumentTypeError(
                f"must be {'above' if strict else 'at least'} {least} and finite, got {text}")
        return value
    parse.__name__ = cast.__name__
    return parse


def _matrix_note(label, matrix):
    """``label=<matrix as strict JSON>``; a non-finite result is an error."""
    try:
        return f"{label}=" + json.dumps(matrix.tolist(), allow_nan=False)
    except ValueError as exc:
        raise TensorStructError(f"{label} has non-finite entries") from exc


@functools.cache
def build_parser():
    """The one argument parser of this process, built on the first call.

    Reuse is safe because ``parse_args`` fills a fresh ``Namespace`` on each
    call (subcommands parse into one of their own), no argument has a
    mutable default, and every ``type=`` callable is stateless.  Callers
    must not mutate the returned parser.
    """
    parser = argparse.ArgumentParser(
        prog="tensorstruct",
        description="Validate and construct tensor structures, check their "
                    "integrability, and verify projective/direct towers.")
    positive_int = _number(int, 1)
    positive_float = _number(float, 0, strict=True)
    parser.add_argument("--atol", type=_number(float, 0), default=1e-9)
    parser.add_argument("--rtol", type=_number(float, 0), default=1e-9)
    parser.add_argument("--fd-step", type=positive_float, default=1e-5)
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable report")
    parser.add_argument("--seed", type=_number(int, 0), default=None,
                        help="seed for randomized subcommands")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a structure document")
    p.add_argument("structure", help="structure JSON file")

    triple = sub.add_parser("triple", help="compatible triple operations")
    tsub = triple.add_subparsers(dest="triple_command", required=True)
    p = tsub.add_parser("complete", help="complete a compatible pair")
    p.add_argument("pair", help="pair JSON file")

    p = sub.add_parser("darboux", help="canonical basis of a symplectic form")
    p.add_argument("form", help="structure JSON file of kind symplectic")

    p = sub.add_parser("cocycle", help="check transition-cocycle condition")
    p.add_argument("atlas", help="atlas JSON file")

    p = sub.add_parser("reduce", help="check isotropy reduction of an atlas")
    p.add_argument("atlas", help="atlas JSON file")
    p.add_argument("tensor", help="model tensor JSON file")
    p.add_argument("--field", default=None,
                   help="optional field document to test local modelling")

    p = sub.add_parser("nijenhuis", help="integrability of a structure field")
    p.add_argument("field", help="field JSON file")
    p.add_argument("--kind", default="tangent",
                   choices=["tangent", "para_complex", "complex"])
    p.add_argument("--tol", type=positive_float, default=1e-6)

    p = sub.add_parser("curvature", help="flatness of a metric field")
    p.add_argument("metric", help="field JSON file")
    p.add_argument("--tol", type=positive_float, default=1e-5)

    tower = sub.add_parser("tower", help="bonding-system and sequence checks")
    wsub = tower.add_subparsers(dest="tower_command", required=True)
    p = wsub.add_parser("check", help="validate bonding maps and coherence")
    p.add_argument("tower", help="tower JSON file")

    conn = sub.add_parser("connection", help="adapted connection towers")
    csub = conn.add_subparsers(dest="connection_command", required=True)
    p = csub.add_parser("check", help="adaptedness and cross-level coherence")
    p.add_argument("tower", help="connection tower JSON file")

    p = sub.add_parser("loopspace", help="induced loop-space structures")
    lsub = p.add_subparsers(dest="loopspace_command", required=True)
    d = lsub.add_parser("demo", help="canonical ascending Kahler demo")
    d.add_argument("--levels", type=positive_int, default=3)
    d.add_argument("--samples", type=positive_int, default=16)
    d = lsub.add_parser("check", help="check a loop document")
    d.add_argument("loop", help="loop JSON file")
    d.add_argument("--trials", type=positive_int, default=20)
    return parser


# the nargs of each kind of argument _quick reads: an option or positional
# of one word, a flag, and a subcommand
_READ = {argparse._StoreAction: None, argparse._StoreTrueAction: 0,
         argparse._SubParsersAction: argparse.PARSER}


@functools.cache
def _table(parser):
    """``parser``'s (option string -> action, positional actions in order,
    dest -> default), or None when it has an argument ``_quick`` does not
    read; -h and --help are left out, so argparse answers them."""
    options, positionals = {}, []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if _READ.get(type(action), "") != action.nargs:
            return None
        if action.option_strings:
            options.update(dict.fromkeys(action.option_strings, action))
        else:
            positionals.append(action)
    defaults = {a.dest: a.default for a in parser._actions
                if argparse.SUPPRESS not in (a.dest, a.default)}
    return options, positionals, defaults


def _quick(parser, argv):
    """The namespace ``parser.parse_args(argv)`` returns, read from the
    parser's action table, when ``argv`` is well formed: exact option
    strings, each value a word of its own that does not start with ``-``,
    every positional and subcommand present, no option twice, and every
    value passing its action's ``type`` and ``choices``.  None for any other
    argv, which argparse then parses."""
    found, i = {}, 0
    while parser is not None:
        table = _table(parser)
        if table is None:
            return None
        options, pending, defaults = table
        # a subcommand's defaults and values replace its parent's, as in argparse
        found.update(defaults)
        pending, seen, parser = list(pending), set(), None
        while i < len(argv) and parser is None:
            word = argv[i]
            i += 1
            if word.startswith("-"):
                action = options.get(word)
                if action is None or action in seen:
                    return None
                seen.add(action)
                if action.nargs == 0:
                    found[action.dest] = action.const
                    continue
                if i == len(argv) or argv[i].startswith("-"):
                    return None
                word = argv[i]
                i += 1
            elif not pending:
                return None
            else:
                action = pending.pop(0)
                if action.nargs == argparse.PARSER:
                    # the rest of argv belongs to the subcommand's parser
                    parser = action.choices.get(word)
                    found[action.dest] = word
                    if parser is None:
                        return None
                    continue
            try:
                value = word if action.type is None else action.type(word)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
            found[action.dest] = value
        if pending:
            return None
    return argparse.Namespace(**found)


def run(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _quick(parser, argv)
        if args is None:
            args = parser.parse_args(argv)
        if args.atol == 0 and args.rtol == 0:
            parser.error("--atol and --rtol cannot both be 0")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    if args.command in RANDOMIZED and args.json and args.seed is None:
        print("error: randomized subcommands need --seed with --json",
              file=sys.stderr)
        return 2
    # the grid checks take their own absolute --tol; every other check --atol/--rtol
    tol = Tolerance(args.tol, 0.0) if "tol" in args else Tolerance(args.atol, args.rtol)
    digests = []

    def load(path):
        doc, digest = _load(path)
        digests.append(digest)
        return doc

    try:
        with np.errstate(all="ignore"):
            report = _dispatch(args, load, tol)
    except DocumentError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except TensorStructError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    action = getattr(args, f"{args.command}_command", None)
    report.command = f"{args.command} {action}" if action else args.command
    report.digest = ",".join(digests)
    return _emit(report, args.json)


def _dispatch(args, load, tol) -> Report:
    """The report of the parsed subcommand; ``load(path)`` reads each
    document."""
    if args.command == "validate":
        from . import structures

        return structures.validate(documents.parse_structure(load(args.structure), tol), tol)

    if args.command == "triple":
        from . import compat

        first, second, flavor = documents.parse_pair(load(args.pair), tol)
        triple, report = compat.complete_pair(first, second, flavor, tol)
        report.note(f"flavor {flavor}, dimension {triple.dim}")
        report.note(_matrix_note("omega", triple.omega.matrix))
        report.note(_matrix_note("metric", triple.metric_matrix))
        report.note(_matrix_note("structure", triple.structure.matrix))
        return report

    if args.command == "darboux":
        from . import structures

        structure = documents.parse_structure(load(args.form), tol, even=True)
        # a cotangent structure carries its symplectic form
        form = structures.SymplecticForm(getattr(structure, "symplectic", structure).matrix)
        basis, certificate = structures.darboux_basis(form, tol)
        report = Report(tol=tol)
        report.measured("canonical_form_residual", certificate)
        report.note(_matrix_note("basis", basis))
        return report

    if args.command == "cocycle":
        from . import bundle

        return bundle.check_cocycle(documents.parse_atlas(load(args.atlas)), tol)

    if args.command == "reduce":
        from . import bundle

        adoc, tdoc = load(args.atlas), load(args.tensor)
        atlas = documents.parse_atlas(adoc)
        model = documents.parse_tensor(tdoc, atlas.fiber_dim)
        report = bundle.check_reduction(atlas, model, tol)
        if args.field:
            field = _field_on_charts(load(args.field), atlas)
            report.extend(bundle.check_locally_modelled(field, atlas, model, tol),
                          prefix="field/")
        return report

    if args.command == "nijenhuis":
        from . import calculus

        field, grid = documents.parse_field(load(args.field), fd_step=args.fd_step)
        return calculus.is_integrable_structure(field, args.kind, grid, tol)

    if args.command == "curvature":
        from . import calculus

        doc = load(args.metric)
        field, grid = documents.parse_field(doc, fd_step=args.fd_step)
        return calculus.is_metric_integrable(field, grid, tol,
                                             step=documents.field_step(doc, args.fd_step))

    if args.command == "tower":
        from . import limits

        bonding, sequence = documents.parse_tower(load(args.tower))
        report = limits.validate_bonding(bonding, tol)
        if sequence is not None:
            report.extend(limits.check_coherent(sequence, tol), prefix="sequence/")
        return report

    if args.command == "connection":
        from . import limits

        seq, points = documents.parse_connection_tower(load(args.tower))
        return limits.check_connection_coherence(seq, points, tol)

    if args.command == "loopspace":
        from . import loopspace

        rng = np.random.default_rng(0 if args.seed is None else args.seed)
        if args.loopspace_command == "demo":
            report = Report(tol=tol)
            # each target is completed and checked once, under tol
            targets, checks = zip(*(loopspace.block_target(m, "kahler", tol)
                                    for m in range(1, args.levels + 1)))
            loop = rng.normal(size=(args.samples, targets[0].dim))
            space = loopspace.DiscretizedLoopSpace(targets[0], loop)
            report.extend(loopspace.check_induced_compatibility(space, trials=20, tol=tol,
                                                                rng=rng),
                          prefix="induced/")
            report.extend(loopspace.ascending_coherence(targets, args.samples, tol, rng=rng,
                                                        reports=checks),
                          prefix="ascending/")
            report.note(f"levels={args.levels} samples={args.samples} "
                        f"seed={'default' if args.seed is None else args.seed}")
            return report
        space, tangents = documents.parse_loop(load(args.loop), tol)
        report = loopspace.check_induced_compatibility(space, trials=args.trials, tol=tol,
                                                       rng=rng)
        if tangents is not None:
            o, g, _ = loopspace.induced_forms(space, *tangents)
            report.note(f"omega(x, y)={o!r} g(x, y)={g!r}")
        return report

    raise DocumentError(f"unknown command {args.command!r}")


def _field_on_charts(fdoc, atlas):
    """The field document's field on every chart; the field itself is the
    evaluator, so a field that takes arrays of points is evaluated at a
    chart's samples in one call."""
    from . import bundle

    field, _ = documents.parse_field(fdoc, rank=atlas.fiber_dim)
    return bundle.LocalTensorField(field.kind, {chart.name: field for chart in atlas.charts})


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
