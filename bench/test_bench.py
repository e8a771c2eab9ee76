"""The benchmark's own test: every workload through the real code path at tiny sizes.

    python3 -m pytest bench/test_bench.py

Checks that each run passes its output checks, reports every metric
BENCHMARK.json names with its unit, that two traced runs give identical
counts, that the per-layer self times account for the traced wall time,
and that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from run import SELF_TIME  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

# exact counts: work done, not time taken
COUNTED = {"count", "B", "GFLOP", "1/traj", "MB"}


def run_bench(workload: str, trace: int, seed: int = 5, cwd: str = ROOT) -> tuple[int, str, dict | None]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, proc.stderr, result


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"][:2] == ["python3", "bench/run.py"]
    assert all(os.path.isdir(os.path.join(ROOT, path)) for path in SPEC["paths"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_metrics(workload):
    code, err, result = run_bench(workload, 0)
    assert code == 0, err
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_per_layer_metrics_counts_and_accounting(workload):
    runs = []
    for _ in range(2):
        code, err, result = run_bench(workload, 1)
        assert code == 0, err
        assert result["correct"] and result["failed"] == 0
        runs.append(result["metrics"])
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for metrics in runs:
        assert {name: m["unit"] for name, m in metrics.items()} == want
        values = {name: m["value"] for name, m in metrics.items()}
        accounted = sum(values[name] for name in set(SELF_TIME.values())) + values["unattributed_s"]
        assert accounted == pytest.approx(values["traced_wall_s"], rel=1e-9)
    first, second = runs
    counted = sorted(name for name, unit in want.items() if unit in COUNTED)
    assert [first[n]["value"] for n in counted] == [second[n]["value"] for n in counted]
    assert first["io.bytes_written"]["value"] > 0 and first["flow.rhs_block.calls"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    code, _, result = run_bench("ens-diffusion-d20", 0, cwd=str(tmp_path))
    assert code != 0
    assert result is None


def test_tracer_loses_no_update_across_threads():
    tracer = Tracer()
    work = tracer.wrap("work", lambda: tracer.add("n", 1))
    n_threads, n_calls = 4, 2000
    parent = None

    def worker():
        span = tracer.enter("chunk", remote_parent=parent)
        try:
            for _ in range(n_calls):
                work()
        finally:
            tracer.exit(span)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        tracer.start()
        parent = tracer.enter("engine")
        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        tracer.exit(parent)
        tracer.stop()
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    assert tracer.calls["work"] == n_threads * n_calls
    assert tracer.counts["n"] == n_threads * n_calls
    assert sum(tracer.wall.values()) + tracer.unattributed == pytest.approx(tracer.window, rel=1e-9)
