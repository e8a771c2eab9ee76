"""qjump benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the program is imported from
./src, nothing is installed.  One client runs the workload's entry call
over and over, each time in a fresh Python process and only after the
previous one ended (a closed loop), for S seconds and at least MIN_REPS
times.  The load uses at most 2 worker threads, and BLAS threading is left
as found in the environment.

Every run's outputs are checked (trace distance to the oracle, row counts,
and byte identity across the runs of one invocation and, for a --threads 2
workload, against a --threads 1 run of the same config).  A run that
raises, exits non-zero or fails a check counts in ``failed``.

--trace 0 reports the end-to-end metrics as medians over the runs.  --trace
1 adds one run under the tracer (tracer.py) and reports the per-layer
metrics; the self times plus ``unattributed_s`` sum to ``traced_wall_s``.
--smoke runs the same code path at tiny sizes, for the benchmark's test.

The last line of stdout is the JSON result; the lines before it give each
metric with its sample count and the run environment.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import TRACE_DISTANCE_MAX, WORKLOADS, Workload

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
MIN_REPS = 3
DEADLINE_S = 170.0
ENV_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "QJUMP_THREADS",
)

END_TO_END_UNITS = {"run_s": "s", "traj_steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# span name -> reported self-time metric; batch.chunk is engine time run by a pool worker
SELF_TIME = {
    "flow.compile_flow": "flow.compile_flow.self_s",
    "flow.rhs_block": "flow.rhs_block.self_s",
    "flow.rk4_step_block": "flow.rk4_step_block.self_s",
    "batch.run_batch": "batch.run_batch.self_s",
    "batch.chunk": "batch.run_batch.self_s",
    "batch.philox": "batch.philox.self_s",
    "unraveling.jump_channels": "unraveling.jump_channels.self_s",
    "linalg.eigh_phase_fixed": "linalg.eigh_phase_fixed.self_s",
    "generator.apply_generator": "generator.apply_generator.self_s",
    "ensemble.run_ensemble": "ensemble.run_ensemble.self_s",
    "ensemble.master_evolve": "ensemble.master_evolve.self_s",
    "ensemble._jackknife_errors": "ensemble._jackknife_errors.self_s",
    "trajectory.run_trajectory": "trajectory.run_trajectory.self_s",
    "trajectory.maybe_jump": "trajectory.maybe_jump.self_s",
    "trajectory.rk4_step": "trajectory.rk4_step.self_s",
    "config.parse_config": "config.parse_config.self_s",
    "io.write_lines": "io.write_lines.self_s",
    "cli.cmd_trajectory": "cli.cmd_trajectory.self_s",
    "cli.cmd_ensemble": "cli.cmd_ensemble.self_s",
}

PER_LAYER_UNITS = {
    **{metric: "s" for metric in SELF_TIME.values()},
    "flow.rhs_block.calls": "count",
    "flow.rhs_block.us_per_col": "us",
    "flow.rhs_block.gflop_computed": "GFLOP",
    "flow.rhs_block.gflops": "GFLOP/s",
    "batch.uniforms_mb": "MB",
    "batch.jumps": "count",
    "batch.jumps_per_traj": "1/traj",
    "batch.thread_speedup": "ratio",
    "unraveling.jump_channels.calls": "count",
    "unraveling.jump_channels.ms_per_call": "ms",
    "generator.apply_generator.calls": "count",
    "ensemble.trace_distance_max": "dimensionless",
    "ensemble.stat_error_max": "dimensionless",
    "trajectory.steps_per_s": "1/s",
    "io.write_lines.calls": "count",
    "io.bytes_written": "B",
    "unattributed_s": "s",
    "traced_wall_s": "s",
    "tracing_overhead_s": "s",
    "failed_runs": "count",
}


class RunFailed(Exception):
    pass


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": len(os.sched_getaffinity(0)),
        "env": {name: os.environ.get(name) for name in ENV_VARS},
        "loadavg": os.getloadavg(),
        "seed": seed,
    }


class Bench:
    def __init__(self, workload: Workload, seed: int, smoke: bool, work_dir: str, deadline: float) -> None:
        self.workload = workload
        self.smoke = smoke
        self.work_dir = work_dir
        self.deadline = deadline
        self.config = os.path.join(work_dir, "run.cfg")
        with open(self.config, "w", encoding="utf-8") as handle:
            handle.write(workload.config_text(seed, smoke, out_dir=os.path.join(work_dir, "out")))
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digest: str | None = None
        self.runs = 0

    def child(self, threads: int, trace: bool = False, entry: str | None = None) -> tuple[dict, str]:
        """Run the entry call once in a fresh process; returns its record and output directory."""
        self.runs += 1
        out = os.path.join(self.work_dir, f"out{self.runs}")
        cmd = [
            sys.executable,
            os.path.join(BENCH_DIR, "child.py"),
            repr(now()),
            SRC,
            self.config,
            out,
            entry or self.workload.entry,
            str(threads),
            "1" if trace else "0",
        ]
        try:
            proc = subprocess.run(
                cmd,
                capture_output=True,
                text=True,
                timeout=max(1.0, self.deadline - now()),
                cwd=self.work_dir,
            )
        except subprocess.TimeoutExpired as exc:
            raise RunFailed(f"timed out after {exc.timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise RunFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-800:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1]), out

    def checked(self, threads: int, trace: bool = False) -> dict | None:
        """One counted run with its output check; None if it failed."""
        self.attempted += 1
        out = None
        try:
            record, out = self.child(threads, trace)
            record.update(check_outputs(self.workload, out, self.smoke))
            if self.digest is None:
                self.digest = record["digest"]
            elif record["digest"] != self.digest:
                raise RunFailed(f"output digest {record['digest'][:12]} differs from this invocation's {self.digest[:12]}")
            return record
        except (RunFailed, OSError, ValueError, KeyError, IndexError) as exc:
            self.failed += 1
            self.failures.append(f"threads={threads} trace={int(trace)}: {exc}")
            print(f"run failed: {exc}", file=sys.stderr)
            return None
        finally:
            if out is not None:
                shutil.rmtree(out, ignore_errors=True)


def check_outputs(workload: Workload, out: str, smoke: bool) -> dict:
    """Validate one run's output files; returns their digest and accuracy figures."""
    names = sorted(os.listdir(out))
    if len(names) != workload.expected_files(smoke):
        raise RunFailed(f"{len(names)} output files, expected {workload.expected_files(smoke)}")
    digest = hashlib.sha256()
    for name in names:
        with open(os.path.join(out, name), "rb") as handle:
            data = handle.read()
        digest.update(name.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
    result = {"digest": digest.hexdigest(), "trace_distance_max": 0.0, "stat_error_max": 0.0}
    n_steps = workload.size(smoke).n_steps
    if workload.entry == "trajectory":
        for idx in workload.indices:
            rows = read_csv(os.path.join(out, f"observables_{idx:05d}.csv"))
            if rows[0] != ["time", *workload.observables] or len(rows) != n_steps + 2:
                raise RunFailed(f"observables_{idx:05d}.csv has {len(rows) - 1} rows, expected {n_steps + 1} plus the header")
            if not all(math.isfinite(float(v)) for row in rows[1:] for v in row):
                raise RunFailed(f"observables_{idx:05d}.csv holds a non-finite value")
            events = read_csv(os.path.join(out, f"jumps_{idx:05d}.csv"))
            if len(events) != n_steps + 1:
                raise RunFailed(f"jumps_{idx:05d}.csv has {len(events) - 1} rows, expected {n_steps}")
        return result
    rows = read_csv(os.path.join(out, "convergence.csv"))
    header, body = rows[0], rows[1:]
    if len(body) != len(workload.size(smoke).snapshot_steps):
        raise RunFailed(f"convergence.csv has {len(body)} snapshots")
    distances = [float(row[header.index("trace_distance")]) for row in body]
    errors = [float(row[header.index("stat_error")]) for row in body]
    if not all(0.0 <= d <= TRACE_DISTANCE_MAX for d in distances):
        raise RunFailed(f"trace distances {distances} exceed {TRACE_DISTANCE_MAX}")
    result["trace_distance_max"] = max(distances)
    result["stat_error_max"] = max(errors)
    return result


def read_csv(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def per_layer(trace: dict, traced: dict, workload: Workload, smoke: bool, reps: list[dict], speedup: float, failed: int) -> dict:
    wall, busy, total, calls, counts = (trace[k] for k in ("wall", "busy", "total", "calls", "counts"))
    m = {metric: 0.0 for metric in PER_LAYER_UNITS}
    for span, share in wall.items():
        m[SELF_TIME[span]] += share

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    flop = counts.get("flow.rhs_block.flop", 0.0)
    rhs_busy = busy.get("flow.rhs_block", 0.0)
    n_traj = workload.size(smoke).n_trajectories
    chunk_width = min(traced.get("chunk") or n_traj, n_traj)
    jumps = counts.get("batch.jumps", 0.0)
    untraced = statistics.median(r["setup_s"] - r["import_s"] + r["run_s"] for r in reps)
    m.update(
        {
            "flow.rhs_block.calls": calls.get("flow.rhs_block", 0),
            "flow.rhs_block.us_per_col": 1e6 * ratio(rhs_busy, counts.get("flow.rhs_block.cols", 0.0)),
            "flow.rhs_block.gflop_computed": flop / 1e9,
            "flow.rhs_block.gflops": ratio(flop / 1e9, rhs_busy),
            "batch.uniforms_mb": counts.get("batch.uniforms_max_draw_bytes", 0.0) * chunk_width / 1e6,
            "batch.jumps": jumps,
            "batch.jumps_per_traj": jumps / workload.n_runs(smoke),
            "batch.thread_speedup": speedup,
            "unraveling.jump_channels.calls": calls.get("unraveling.jump_channels", 0),
            "unraveling.jump_channels.ms_per_call": 1e3
            * ratio(total.get("unraveling.jump_channels", 0.0), calls.get("unraveling.jump_channels", 0)),
            "generator.apply_generator.calls": calls.get("generator.apply_generator", 0),
            "ensemble.trace_distance_max": traced["trace_distance_max"],
            "ensemble.stat_error_max": traced["stat_error_max"],
            "trajectory.steps_per_s": ratio(counts.get("trajectory.steps", 0.0), total.get("trajectory.run_trajectory", 0.0)),
            "io.write_lines.calls": calls.get("io.write_lines", 0),
            "io.bytes_written": counts.get("io.bytes_written", 0.0),
            "unattributed_s": trace["unattributed_s"],
            "traced_wall_s": trace["window_s"],
            "tracing_overhead_s": trace["window_s"] - untraced,
            "failed_runs": failed,
        }
    )
    accounted = sum(m[metric] for metric in set(SELF_TIME.values())) + m["unattributed_s"]
    if abs(accounted - m["traced_wall_s"]) > 1e-6 * max(1.0, m["traced_wall_s"]):
        raise RunFailed(f"self times plus unattributed_s sum to {accounted}, traced wall is {m['traced_wall_s']}")
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, same code path")
    args = parser.parse_args(argv)
    started = now()

    if not os.path.isfile(os.path.join(SRC, "qjump", "__init__.py")):
        print(f"no qjump sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    work_dir = os.path.join(ROOT, ".bench_work", f"{workload.name}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        bench = Bench(workload, args.seed, args.smoke, work_dir, started + DEADLINE_S)
        # warm the bytecode and file caches; not a timed run
        try:
            bench.child(workload.threads, entry="none")
        except RunFailed as exc:
            print(f"warm-up failed: {exc}", file=sys.stderr)

        # start another run only while it is expected to end within the measured span
        reps = []
        lengths = []
        measure_from = now()
        while len(lengths) < MIN_REPS or now() - measure_from + statistics.median(lengths) <= args.seconds:
            began = now()
            record = bench.checked(workload.threads)
            lengths.append(now() - began)
            if record is not None:
                reps.append(record)
            if bench.failed >= MIN_REPS and not reps:
                break

        # thread-identity contract: the digest must not depend on the thread count
        other = None
        if workload.threads != 1 or args.trace:
            other = bench.checked(1 if workload.threads != 1 else 2)

        traced = None
        if args.trace:
            traced = bench.checked(workload.threads, trace=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass

    for failure in bench.failures:
        print(f"FAILED {failure}")
    if not reps or (args.trace and (traced is None or other is None)):
        print(json.dumps({"correct": False, "attempted": bench.attempted, "failed": bench.failed, "metrics": {}}))
        return 1

    run_s = [r["run_s"] for r in reps]
    median_run = statistics.median(run_s)
    if args.trace:
        if workload.threads == 1:
            speedup = median_run / other["run_s"]
        else:
            speedup = other["run_s"] / median_run
        values = per_layer(traced["trace"], traced, workload, args.smoke, reps, speedup, bench.failed)
        units = PER_LAYER_UNITS
    else:
        values = {
            "run_s": median_run,
            "traj_steps_per_s": workload.n_runs(args.smoke) * workload.size(args.smoke).n_steps / median_run,
            "setup_s": statistics.median(r["setup_s"] for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        }
        units = END_TO_END_UNITS

    print(f"workload {workload.name}: {len(reps)} runs of {median_run:.3f} s median, "
          f"min {min(run_s):.3f} s, max {max(run_s):.3f} s; attempted {bench.attempted}, failed {bench.failed}")
    for name, value in values.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    print("env " + json.dumps(env))
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
