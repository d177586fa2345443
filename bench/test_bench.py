"""Smoke test of the benchmark on tiny documents.

    python3 -m pytest bench/test_bench.py -q

Each workload runs for one second at the "tiny" size, whose reference
residuals are recorded next to the full-size ones.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def tiny_run(workload, trace):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def defects_per_round(workload, tmp_path):
    ops = workloads.round_ops(workload, 0, 1, "tiny", tmp_path)
    return sum(1 for op in ops if op["defect"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_outcomes(workload, tmp_path):
    summary, result = tiny_run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] is True
    assert summary["unexpected_failures"] == []
    assert summary["missing_reference"] == []
    assert summary["residual_drift"] == 0.0
    # every failure is a known-defect input, and every known-defect input fails
    failed_known = sum(summary["known_defect_failures"].values())
    assert result["failed"] == failed_known
    assert failed_known == defects_per_round(workload, tmp_path) * summary["rounds"]
    assert summary["fail_ratio"] == failed_known / result["attempted"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    _, result = tiny_run(workload, trace=1)
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["cli.run.calls"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
