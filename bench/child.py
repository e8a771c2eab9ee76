"""One timed run of a workload's entry call in a fresh Python process.

    python3 bench/child.py SPAWN_TIME SRC CONFIG OUT ENTRY THREADS TRACE

ENTRY is run_ensemble, ensemble, trajectory, or none (set up and exit).

SPAWN_TIME is the parent's CLOCK_MONOTONIC reading just before it started
this process, so ``setup_s`` counts interpreter start, ``import qjump``,
parsing the config, building the generator and compiling the flow.
``run_s`` is the entry call alone, ending when its outputs are written.
Prints one JSON object on the last line of stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv: list[str]) -> int:
    spawned = float(argv[0])
    src, config_path, out_dir, entry = argv[1:5]
    threads, trace = int(argv[5]), argv[6] == "1"

    sys.path.insert(0, src)
    import qjump
    import qjump.cli
    from qjump._flow import compile_flow
    from qjump.config import parse_config

    if os.path.dirname(os.path.abspath(qjump.__file__)) != os.path.join(os.path.abspath(src), "qjump"):
        print(f"imported qjump from {qjump.__file__}, not from {src}", file=sys.stderr)
        return 2
    imported = now()

    tracer = None
    if trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
        tracer.start()
        # module attributes may have been swapped, so look them up again
        parse_config = qjump.config.parse_config
        compile_flow = qjump._flow.compile_flow

    with open(config_path, encoding="utf-8") as handle:
        text = handle.read()
    cfg = parse_config(text)
    compile_flow(cfg.generator)
    ready = now()

    with contextlib.redirect_stdout(io.StringIO()):
        if entry == "none":
            code = 0
        elif entry == "run_ensemble":
            from qjump import ensemble

            base = ensemble.TrajectoryConfig(dt=cfg.dt, t_final=cfg.t_final, seed=cfg.seed, observables=cfg.observables)
            ecfg = ensemble.EnsembleConfig(n_trajectories=cfg.n_trajectories, base=base, snapshot_times=cfg.snapshot_times)
            os.makedirs(out_dir, exist_ok=True)
            report = ensemble.run_ensemble(cfg.generator, cfg.initial_state, ecfg, threads=threads)
            ensemble.write_convergence_csv(report, os.path.join(out_dir, "convergence.csv"))
            code = 0
        else:
            code = qjump.cli.main([entry, "--config", config_path, "--out", out_dir, "--threads", str(threads)])
    done = now()
    if tracer is not None:
        tracer.stop()

    result = {
        "exit": code,
        "setup_s": ready - spawned,
        "import_s": imported - spawned,
        "run_s": done - ready,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "chunk": getattr(qjump._batch, "CHUNK", None),
    }
    if tracer is not None:
        result["trace"] = {
            "window_s": tracer.window,
            "unattributed_s": tracer.unattributed,
            "wall": dict(tracer.wall),
            "busy": dict(tracer.busy),
            "total": dict(tracer.total),
            "calls": dict(tracer.calls),
            "counts": dict(tracer.counts),
        }
    print(json.dumps(result))
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
