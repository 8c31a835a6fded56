"""The benchmark's own checks; run with `python3 -m pytest bench`.

Exact counts and input digests must repeat for the same seed, a second
seed must run clean, the printed metric names must match BENCHMARK.json,
and the benchmark must refuse to run without the library's sources.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def worker(workload, seed, trace=1):
    proc = subprocess.run(
        [sys.executable, "-I", str(BENCH / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--rep", "0", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def exact(result):
    layers = {k: v for k, v in result["layers"].items() if not k.endswith(".self_s")}
    return result["digest"], result["counts"], layers, len(result["latencies"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_a_seed_and_a_second_seed_runs_clean(workload):
    first, again, other = worker(workload, 1), worker(workload, 1), worker(workload, 2)
    assert first["failures"] == [] and other["failures"] == []
    assert exact(first) == exact(again)
    assert other["digest"] != first["digest"]
    assert sum(v for k, v in first["layers"].items() if k.endswith(".calls")) > 0


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_the_spec(trace, section):
    proc = run_bench(ROOT, "cells", trace)
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec


def test_refuses_to_run_without_the_sources():
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(tmp, "words", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
