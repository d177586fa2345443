"""Run the benchmark in two checkouts, alternately, and compare them pair by pair.

    python3 tools/ab_bench.py PARENT CHANGE --workload W --pairs N --seconds S --seed K [--out FILE]

``PARENT`` and ``CHANGE`` are roots of two source checkouts.  Each pair runs
``python3 bench/run.py --workload W --seed K --seconds S --trace 0`` once in
each checkout, one after the other, with the checkout's own ``bench/`` and
``src/``; the side that goes first alternates from pair to pair, starting
with ``PARENT``.  The tool prints one line per run with its end-to-end
metrics, then for each metric the median and quartiles of each side and
the number of pairs the change won (better by the direction declared in
``PARENT``'s ``BENCHMARK.json``; a tie counts for neither side).  It exits
1 when a run fails or reports incorrect results.

``--seed`` takes one or more seeds, and the pairs run once per seed.
``--out FILE`` also writes the comparison as JSON: the workload, the
seeds, the pair count and the run length, the ``provenance`` of the first
run's summary (machine, Python, numpy, BLAS, threads), and per seed each
metric's runs, quartiles and median on each side, and the change's wins.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root, workload, seed, seconds):
    """The metrics and the summary of one untraced benchmark run in
    ``root``, or None when the run fails or its results are not correct."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or len(lines) < 2:
        sys.stderr.write(done.stderr)
        return None
    result = json.loads(lines[-1])
    if not result["correct"]:
        return None
    return ({name: metric["value"] for name, metric in result["metrics"].items()},
            json.loads(lines[-2]))


def quartiles(values):
    """(first quartile, median, third quartile) of ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def compare(sides, workload, seed, pairs, seconds, better):
    """Run ``pairs`` alternating pairs on ``seed`` and print the comparison;
    returns each side's runs and the first run's summary, or None when a
    run fails."""
    runs = {"parent": [], "change": []}
    summary = None
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            done = run_once(sides[side], workload, seed, seconds)
            if done is None:
                print(f"seed {seed} pair {pair}: {side} run failed", file=sys.stderr)
                return None
            metrics, summary = done[0], summary or done[1]
            runs[side].append(metrics)
            print(f"pair {pair} {side:6s} " + " ".join(
                f"{name}={metrics[name]:.6g}" for name in better), flush=True)

    print(f"\n{workload}, seed {seed}, {pairs} pairs of {seconds:g} s")
    print(f"{'metric':12s} {'parent q1 / median / q3':>32s} {'change q1 / median / q3':>32s}  wins")
    for name, direction in better.items():
        parent = [m[name] for m in runs["parent"]]
        change = [m[name] for m in runs["change"]]
        print(f"{name:12s} " + " ".join(
            "{:>10.5g} /{:>10.5g} /{:>10.5g}".format(*quartiles(values))
            for values in (parent, change)) + f"  {wins(parent, change, direction)}/{pairs}")
    return runs, summary


def wins(parent, change, direction):
    """The pairs in which the change is better by ``direction``."""
    sign = 1 if direction == "higher" else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def record(args, better, by_seed, summary):
    """The comparison as the JSON object ``--out`` writes."""
    def side(values):
        q1, median, q3 = quartiles(values)
        return {"runs": values, "q1": q1, "median": median, "q3": q3}

    seeds = {}
    for seed, runs in by_seed.items():
        seeds[str(seed)] = {name: {
            "parent": side([m[name] for m in runs["parent"]]),
            "change": side([m[name] for m in runs["change"]]),
            "wins": wins([m[name] for m in runs["parent"]],
                         [m[name] for m in runs["change"]], direction),
            "better": direction} for name, direction in better.items()}
    return {"workload": args.workload, "seeds": args.seed, "pairs": args.pairs,
            "seconds": args.seconds, "provenance": summary["provenance"], "by_seed": seeds}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, nargs="+", default=[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    with open(args.parent / "BENCHMARK.json") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    by_seed, summary = {}, None
    for seed in args.seed:
        done = compare(sides, args.workload, seed, args.pairs, args.seconds, better)
        if done is None:
            return 1
        by_seed[seed], summary = done[0], summary or done[1]
    if args.out is not None:
        with open(args.out, "w") as fh:
            json.dump(record(args, better, by_seed, summary), fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
