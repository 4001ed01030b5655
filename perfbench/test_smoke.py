"""Smoke runs of the benchmark, so the harness cannot rot unnoticed.

Every workload runs at 32x32 with 2 frames, untraced and traced, and must
report every metric BENCHMARK.json names, finite and in its unit. Run from
the repository root:

    python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, run_py: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "32", "--frames", "2"],
        capture_output=True, text=True, timeout=300)


def result_of(workload: str, trace: int) -> dict:
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_reported(workload, trace):
    result = result_of(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"]), m["name"]


def test_counts_repeat_across_runs():
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "ms/frame"]
    first, second = (result_of("teleport-stack", 1)["metrics"] for _ in range(2))
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("teleport-stack", 0, tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
