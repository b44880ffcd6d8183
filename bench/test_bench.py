"""The benchmark's own checks, at smoke size.

    python3 -m pytest bench -q

Every run is a subprocess of bench/run.py, exactly as the benchmark is
invoked for real, with ``--smoke`` so that each takes a few seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
OP_COUNTS = [m["name"] for m in SPEC["per_layer"]
             if m["name"].endswith(".calls") or m["name"].startswith("fileio.bytes_")
             or m["name"] == "forgery.census.accept_ratio"]


def run(workload, trace, root=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0, proc.stderr
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    proc = run(workload, 0)
    metrics = result(proc)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0
    assert f"{workload} error_rate = 0 " in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_op_counts_repeat_across_traced_runs(workload):
    first, second = (result(run(workload, 1))["metrics"] for _ in range(2))
    assert list(first) == [m["name"] for m in SPEC["per_layer"]]
    assert {k: first[k]["value"] for k in OP_COUNTS} == {k: second[k]["value"] for k in OP_COUNTS}
    verifies = first["commitment.verify.calls"]["value"]
    assert verifies > 0
    assert first["groups.pair.calls"]["value"] == 2 * verifies
    spans = (ROOT / ".bench_out" / f"spans-{workload}-seed3.jsonl").read_text().splitlines()
    ids = {json.loads(line)["id"] for line in spans}
    assert all(json.loads(line)["parent"] in ids | {None} for line in spans)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
