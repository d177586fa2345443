"""Count the library calls each benchmark operation of one round makes.

    python3 tools/call_counts.py SRC DOCDIR --workload W --seed K --round R [--size S]

``SRC`` is the root of a source checkout: the package is imported from
``SRC/src``, and the round's operations are generated by
``SRC/bench/workloads.py`` and run as ``SRC/bench/execute.py`` runs them,
in this process; the script only reads those two files.  Documents are
written under ``DOCDIR``.

The round runs once unprofiled, so that lazy set-up such as the cached
argument parser is done, then once more with each operation under its own
``cProfile`` profile.  For every operation it prints one line per counted
function that the operation called: operation id, function and number of
calls.  The counted functions are the public kernels and checks that the
benchmark's tracer wraps, plus ``poly.PolyArray.__call__`` and
``poly.sum_of_products``, where polynomial evaluations and products run
(the traced ``Poly.__call__`` and ``Poly.diff`` are not on CLI paths),
``compat.complete_pair``, ``compat.is_compatible``, ``compat._metric_ok``,
``bundle.ChartAtlas.transitions_at``, ``loopspace.block_kahler_target``,
``limits.LevelForm.at``, ``linalg.fro`` and ``linalg.fro_each``, and
``numpy.linalg.svd`` and ``numpy.linalg.solve``; a name that cannot be
resolved is skipped, so two checkouts can be compared line by line:

    python3 tools/call_counts.py parent /tmp/docs --workload linear-batch --seed 3 --round 1 > a.txt
    python3 tools/call_counts.py . /tmp/docs --workload linear-batch --seed 3 --round 1 > b.txt
    diff a.txt b.txt
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import inspect
import os
import sys
from pathlib import Path

# (module, qualified name) of every counted function; a module is one of the
# package's unless it is numpy's
COUNTED = (
    ("poly", "Poly.__call__"), ("poly", "Poly.diff"), ("poly", "PolyArray.__call__"),
    ("poly", "sum_of_products"),
    ("calculus", "TensorFieldOnChart.__call__"), ("calculus", "lie_bracket"),
    ("calculus", "nijenhuis"), ("calculus", "ConnectionData.__call__"),
    ("calculus", "curvature"), ("calculus", "is_integrable_structure"),
    ("calculus", "is_metric_integrable"),
    ("limits", "BondingSystem.map"), ("limits", "BondingSystem.projection"),
    ("limits", "LevelForm.__call__"), ("limits", "LevelForm.at"),
    ("limits", "validate_bonding"),
    ("limits", "check_coherent"), ("limits", "check_connection_coherence"),
    ("limits", "tuple_membership"), ("limits", "theta_projection"),
    ("linalg", "fro"), ("linalg", "fro_each"), ("linalg", "spd_sqrt"), ("linalg", "kernel_and_image"),
    ("linalg", "signature_of"),
    ("structures", "validate"), ("structures", "darboux_basis"),
    ("compat", "structure_from"), ("compat", "complete_pair"),
    ("compat", "complete_triple"), ("compat", "check_triple"),
    ("compat", "is_compatible"), ("compat", "_metric_ok"),
    ("bundle", "ChartAtlas.transition_at"), ("bundle", "ChartAtlas.transitions_at"),
    ("bundle", "in_isotropy"), ("bundle", "check_cocycle"), ("bundle", "check_reduction"),
    ("bundle", "check_locally_modelled"),
    ("loopspace", "block_kahler_target"),
    ("loopspace", "induced_forms"), ("loopspace", "check_induced_compatibility"),
    ("loopspace", "ascending_coherence"),
    ("cli", "_load"), ("cli", "run"), ("cli", "build_parser"), ("cli", "_emit"),
    ("numpy.linalg", "svd"), ("numpy.linalg", "solve"),
)


def counted_functions():
    """{(file, first line, code name): "module.qualname"} for every counted
    function that the imported package, or numpy, defines, plus each
    ``documents.parse_*``."""
    names = list(COUNTED)
    documents = importlib.import_module("tensorstruct.documents")
    names += [("documents", n) for n in documents.__all__ if n.startswith("parse_")]
    keys = {}
    for module, qualname in names:
        package = "" if module.startswith("numpy.") else "tensorstruct."
        owner = importlib.import_module(package + module)
        try:
            for part in qualname.split("."):
                owner = getattr(owner, part)
            # numpy's public functions wrap the Python function they run
            code = inspect.unwrap(owner).__code__
        except AttributeError:
            continue
        keys[code.co_filename, code.co_firstlineno, code.co_name] = f"{module}.{qualname}"
    return keys


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src")
    parser.add_argument("docdir")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--size", default="full")
    args = parser.parse_args(argv)
    src, docdir = Path(args.src).resolve(), Path(args.docdir).resolve()
    # single-threaded BLAS, as the benchmark runs it, set before numpy loads
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path[:0] = [str(src / "src"), str(src / "bench")]
    sys.dont_write_bytecode = True  # leave no cache files in the source tree
    import execute
    import workloads

    where = docdir / args.workload / args.size / str(args.seed) / str(args.round)
    ops = workloads.round_ops(args.workload, args.seed, args.round, args.size, where)
    prepared = [execute.prepare(op) for op in ops]
    for op, inputs in zip(ops, prepared):
        execute.run(op, inputs)
    keys = counted_functions()
    for op, inputs in zip(ops, prepared):
        profile = cProfile.Profile()
        profile.runcall(execute.run, op, inputs)
        profile.create_stats()
        counts = {keys[key]: stats[1] for key, stats in profile.stats.items()
                  if key in keys}
        for name in sorted(counts):
            print(op["id"], name, counts[name])
    return 0


if __name__ == "__main__":
    sys.exit(main())
