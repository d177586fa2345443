"""Show which benchmark operations raise a process's peak resident set size.

    python3 tools/peak_rss.py SRC DOCDIR --workload W --seed K --rounds N [--size S]

``SRC`` is the root of a source checkout: the package is imported from
``SRC/src``, and the operations are generated by ``SRC/bench/workloads.py``
and run by ``SRC/bench/execute.py``; the script only reads those two files.
Documents are written under ``DOCDIR``.

As the benchmark's measuring process does, it runs the workload's warm-up
operations, freezes the collected heap, and then runs rounds 0 to N - 1 in
this one process, with a collection before each operation.  It prints the
peak (``ru_maxrss``) after the warm-up, then one line for each operation
that raised it: round, operation id, the new peak in MB and the rise in
KB.  A round whose document generation raised it has the id
``(documents)``.  The last line is the final peak.  Two checkouts can be compared with
the same ``DOCDIR``:

    python3 tools/peak_rss.py parent /tmp/docs --workload towers --seed 3 --rounds 20
    python3 tools/peak_rss.py . /tmp/docs --workload towers --seed 3 --rounds 20
"""

from __future__ import annotations

import argparse
import gc
import os
import resource
import shutil
import sys
from pathlib import Path


def peak_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src")
    parser.add_argument("docdir")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
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

    where = docdir / args.workload / args.size / str(args.seed)
    for op in workloads.warmup_ops(args.workload, args.seed, where / "warmup"):
        execute.run(op, execute.prepare(op))
    gc.collect()
    gc.freeze()
    last = peak_kb()
    print(f"warm-up peak {last / 1024:.1f} MB")
    for index in range(args.rounds):
        ops = workloads.round_ops(args.workload, args.seed, index, args.size,
                                  where / f"round-{index}")
        if peak_kb() > last:
            print(f"{index} (documents) {peak_kb() / 1024:.1f} MB +{peak_kb() - last} KB")
            last = peak_kb()
        for op in ops:
            prepared = execute.prepare(op)
            gc.collect()
            execute.run(op, prepared)
            now = peak_kb()
            if now > last:
                print(f"{index} {op['id']} {now / 1024:.1f} MB +{now - last} KB")
                last = now
        shutil.rmtree(where / f"round-{index}", ignore_errors=True)
    print(f"final peak {last / 1024:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
