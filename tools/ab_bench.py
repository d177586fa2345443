"""Run the benchmark in two checkouts, alternately, and compare them pair by pair.

    python3 tools/ab_bench.py PARENT CHANGE --workload W --pairs N --seconds S --seed K

``PARENT`` and ``CHANGE`` are roots of two source checkouts.  Each pair runs
``python3 bench/run.py --workload W --seed K --seconds S --trace 0`` once in
each checkout, one after the other, with the checkout's own ``bench/`` and
``src/``; the side that goes first alternates from pair to pair, starting
with ``PARENT``.  The tool prints one line per run with its end-to-end
metrics, then for each metric the median and quartiles of each side and
the number of pairs the change won (better by the direction declared in
``PARENT``'s ``BENCHMARK.json``; a tie counts for neither side).  It exits
1 when a run fails or reports incorrect results.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root, workload, seed, seconds):
    """The metrics of one untraced benchmark run in ``root``, or None when
    the run fails or its results are not correct."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        sys.stderr.write(done.stderr)
        return None
    result = json.loads(lines[-1])
    if not result["correct"]:
        return None
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values):
    """(first quartile, median, third quartile) of ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    with open(args.parent / "BENCHMARK.json") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            metrics = run_once(sides[side], args.workload, args.seed, args.seconds)
            if metrics is None:
                print(f"pair {pair}: {side} run failed", file=sys.stderr)
                return 1
            runs[side].append(metrics)
            print(f"pair {pair} {side:6s} " + " ".join(
                f"{name}={metrics[name]:.6g}" for name in better), flush=True)

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s")
    print(f"{'metric':12s} {'parent q1 / median / q3':>32s} {'change q1 / median / q3':>32s}  wins")
    for name, direction in better.items():
        parent = [m[name] for m in runs["parent"]]
        change = [m[name] for m in runs["change"]]
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        print(f"{name:12s} " + " ".join(
            "{:>10.5g} /{:>10.5g} /{:>10.5g}".format(*quartiles(values))
            for values in (parent, change)) + f"  {wins}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
