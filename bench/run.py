"""tensorstruct benchmark: one command, three workloads, in-process CLI calls.

    python3 bench/run.py --workload chart-calculus --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (``src/tensorstruct`` must exist).
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The line before it
holds the run's summary: residual drift, failures, tail percentile and
provenance.

Each workload runs in a child process of its own (so ``peak_rss_mb`` is per
workload), single-threaded, as a closed loop with one client: the next
operation starts when the previous one has returned.  ``setup_s`` is the
median over several fresh processes of importing tensorstruct and running
the warm-up operations.

``--record-reference`` regenerates ``bench/reference/`` from round 0 of
every reference seed.  Only a change that redefines the benchmark may do
that; a change that claims a gain may not.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# single-threaded BLAS for this process and its children, set before numpy loads
os.environ.update({name: "1" for name in THREAD_VARS})
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (bench-local module, needs HERE on sys.path)

SETUP_RUNS = 5
# Tail percentile per workload, fixed so that runs stay comparable when the
# code gets faster; each leaves at least ten samples beyond it at the
# seed's speed over a 30-second run.
TAIL_PERCENTILE = {"chart-calculus": 75.0, "towers": 90.0, "linear-batch": 99.0}
# Largest residual drift, relative to max(|r_ref|, tol), that still counts
# as the same result.  Reordered floating-point sums move finite-difference
# residuals by far less than this; a changed formula or verdict does not.
DRIFT_LIMIT = 1e-3
# Traced rounds per workload (full size): a fixed amount of work, so that the
# per-layer counts repeat exactly for a seed.
TRACE_ROUNDS = {"chart-calculus": 3, "towers": 2, "linear-batch": 60}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny: the self-test's small documents")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference/ (benchmark-defining changes only)")
    parser.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "tensorstruct" / "__init__.py").is_file():
        print(f"error: no tensorstruct sources under {SRC}", file=sys.stderr)
        return 2
    if args.role:
        return _worker(args)
    if args.record_reference:
        return _record_reference([args.workload] if args.workload else workloads.WORKLOADS)
    if args.workload is None:
        parser.error("--workload is required")
    return _orchestrate(args)


# ---------------------------------------------------------------------------
# orchestrator: spawn the workload's processes, assemble the metrics
# ---------------------------------------------------------------------------

def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(args, role, workdir, timeout):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--workdir", str(workdir)]
    subprocess.run(cmd, env=_child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                   timeout=timeout, check=True)
    with open(workdir / f"{role}.json") as fh:
        return json.load(fh)


def _orchestrate(args):
    workdir = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_runs = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setup_runs.append(_child(args, "setup", workdir, 20))
        result = _child(args, "measure", workdir, args.seconds + 60)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: workload process failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_runs.append(result)
    setups = [r["setup_s"] for r in setup_runs]

    attempted = result["attempted"]
    correct = (not result["unexpected"] and not result["missing_reference"]
               and result["residual_drift"] <= DRIFT_LIMIT)
    summary = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "rounds": result["rounds"], "residual_drift": result["residual_drift"],
        "residual_drift_at": result["drift_where"], "drift_limit": DRIFT_LIMIT,
        "fail_ratio": result["failed"] / attempted,
        "known_defect_failures": result["known_failed"],
        "unexpected_failures": result["unexpected"][:20],
        "missing_reference": result["missing_reference"],
        "calibration_ms": _quartiles(result["speed_ms"]),
        "provenance": _provenance(),
    }
    if args.trace:
        metrics = result["per_layer"]
    else:
        pct = TAIL_PERCENTILE[args.workload]
        scaled = _timing(result["op_ms"], pct)
        tail = scaled["op_ms_tail"]
        summary["tail"] = {"percentile": pct, "samples": attempted,
                           "samples_beyond": sum(1 for s in result["op_ms"] if s > tail)}
        summary["raw"] = dict(_timing(result["op_raw_ms"], pct),
                              setup_s=statistics.median(r["setup_raw_s"] for r in setup_runs))
        summary["setup_runs_s"] = setups
        metrics = dict(scaled, setup_s=statistics.median(setups),
                       ok_ratio=1.0 - result["failed"] / attempted,
                       peak_rss_mb=result["peak_rss_mb"])
        metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                   for m in _spec()["end_to_end"]}
    line = {"correct": correct, "attempted": attempted, "failed": result["failed"],
            "metrics": metrics}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"summary": summary, "result": line, "op_ms": result["op_ms"],
                   "op_raw_ms": result["op_raw_ms"]}, fh)
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps(line))
    return 0


def _timing(op_ms, pct):
    samples = sorted(op_ms)
    return {"ops_per_s": len(samples) / (sum(samples) / 1e3),
            "op_ms_p50": _percentile(samples, 50.0),
            "op_ms_tail": _percentile(samples, pct)}


def _spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else list(values)


def _percentile(sorted_samples, pct):
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_samples) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_samples) - 1)
    return sorted_samples[lo] + (sorted_samples[hi] - sorted_samples[lo]) * (pos - lo)


def _provenance():
    import numpy as np

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "threads": {name: "1" for name in THREAD_VARS},
            "client": "closed loop, one client, one process per workload"}


# ---------------------------------------------------------------------------
# worker: set-up, warm-up and the timed rounds, in a process of its own
# ---------------------------------------------------------------------------

def _worker(args):
    import numpy  # noqa: F401  (numpy's import is not tensorstruct's set-up)

    import clock
    import execute

    workdir = Path(args.workdir)
    warm = workloads.warmup_ops(args.workload, args.seed, workdir / "warmup")

    track = clock.SpeedTrack()
    track.sample()
    start = time.perf_counter()
    import tensorstruct.cli  # noqa: F401

    for op in warm:
        execute.run(op, execute.prepare(op))
    end = time.perf_counter()
    track.sample()
    result = {"setup_s": (end - start) * track.factor(start, end),
              "setup_raw_s": end - start}
    if args.role == "measure":
        # what is alive now lives for the whole run; freezing it keeps the
        # per-operation collections below cheap
        gc.collect()
        gc.freeze()
        result.update(_measure(args, workdir, execute, track))
    with open(workdir / f"{args.role}.json", "w") as fh:
        json.dump(result, fh)
    return 0


def _measure(args, workdir, execute, track):
    reference = _load_reference(args.workload).get(args.size, {})
    reference = reference.get(str(args.seed % workloads.REFERENCE_SEEDS), {})
    state = {"attempted": 0, "failed": 0, "known_failed": {}, "unexpected": [],
             "residual_drift": 0.0, "drift_where": "", "missing_reference": [],
             "rounds": 0}
    timed = []  # (round, start, end, raw ms) per operation

    def one_round(index, tracer=None):
        ops = workloads.round_ops(args.workload, args.seed, index, args.size,
                                  workdir / f"round-{index}")
        for op in ops:
            prepared = execute.prepare(op)
            # start every operation from a collected heap, so a collection
            # inside it pays for its own garbage only
            gc.collect()
            track.maybe_sample()
            if tracer is not None:
                tracer.begin_op(f"{index}:{op['id']}")
            start = time.perf_counter()
            outcome = execute.run(op, prepared)
            timed.append((index, start, time.perf_counter(), outcome.ms))
            if tracer is not None:
                tracer.end_op()
            _judge(op, outcome, index, reference, state, execute)
        shutil.rmtree(workdir / f"round-{index}", ignore_errors=True)
        state["rounds"] += 1

    def rounds_until(deadline, index):
        begun, first = time.perf_counter(), index
        while True:
            one_round(index)
            index += 1
            now = time.perf_counter()
            if now + (now - begun) / (index - first) > deadline:
                return index

    begin = time.perf_counter()
    if not args.trace:
        rounds_until(begin + args.seconds, 0)
    else:
        from tracing import Tracer

        # untraced rounds first, for the overhead ratio; then a fixed number
        # of traced rounds, so that the counts repeat exactly for a seed
        plain = rounds_until(begin + args.seconds / 2, 0)
        tracer = Tracer()
        tracer.install()
        try:
            traced_rounds = TRACE_ROUNDS[args.workload] if args.size == "full" else 1
            for index in range(plain, plain + traced_rounds):
                one_round(index, tracer)
        finally:
            tracer.uninstall()
    track.sample()

    state["op_ms"] = [ms * track.factor(a, b) for _, a, b, ms in timed]
    state["op_raw_ms"] = [ms for *_, ms in timed]
    state["speed_ms"] = track.values
    state["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        by_round = {}
        for (index, *_), ms in zip(timed, state["op_ms"]):
            by_round[index] = by_round.get(index, 0.0) + ms
        traced = [ms for index, ms in by_round.items() if index >= plain]
        untraced = [ms for index, ms in by_round.items() if index < plain]
        trace_dir = WORK / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(trace_dir / f"{args.workload}-seed{args.seed}.spans.jsonl")
        state["per_layer"] = tracer.metrics(statistics.mean(traced) / statistics.mean(untraced))
    return state


def _judge(op, outcome, index, reference, state, execute):
    state["attempted"] += 1
    reason = execute.failure(op, outcome)
    if reason is not None:
        state["failed"] += 1
        if op["defect"]:
            state["known_failed"][op["id"]] = state["known_failed"].get(op["id"], 0) + 1
        else:
            state["unexpected"].append(f"round {index} {op['id']}: {reason}")
        return
    if index != 0 or op["defect"]:
        return
    if op["id"] not in reference:
        state["missing_reference"].append(op["id"])
        return
    d, where = execute.drift(outcome.entries, reference[op["id"]], op["tol"])
    if d > state["residual_drift"]:
        state["residual_drift"], state["drift_where"] = d, f"{op['id']}: {where}"


def _load_reference(workload):
    path = HERE / "reference" / f"{workload}.json"
    if not path.is_file():
        return {}
    with open(path) as fh:
        return json.load(fh)


def _record_reference(names):
    """Round 0 of every reference seed, at both sizes, for the named workloads."""
    import execute

    sys.path.insert(0, str(SRC))
    workdir = WORK / f"record-{os.getpid()}"
    try:
        for workload in names:
            out = {"workload": workload, "reference_seeds": workloads.REFERENCE_SEEDS}
            for size in workloads.SIZES:
                out[size] = {}
                for seed in range(workloads.REFERENCE_SEEDS):
                    ops = workloads.round_ops(workload, seed, 0, size, workdir)
                    recorded = {}
                    for op in ops:
                        outcome = execute.run(op, execute.prepare(op))
                        reason = execute.failure(op, outcome)
                        if op["defect"]:
                            continue
                        if reason is not None:
                            print(f"error: {workload} seed {seed} {op['id']}: {reason}",
                                  file=sys.stderr)
                            return 1
                        recorded[op["id"]] = execute.fingerprint(outcome.entries)
                    out[size][str(seed)] = recorded
            with open(HERE / "reference" / f"{workload}.json", "w") as fh:
                json.dump(out, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"recorded {workload}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
