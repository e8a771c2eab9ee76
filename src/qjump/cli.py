"""Command line driver: verify a model, run trajectories, run ensembles.

    qjump verify     --config model.cfg
    qjump trajectory --config model.cfg [--out DIR] [--seed S]
    qjump ensemble   --config model.cfg [--out DIR] [--seed S] [--threads N]

--threads 0 (the default) uses all cores this process may use; the
environment variable QJUMP_THREADS supplies a default when the flag is
absent.  Ensemble runs keep numpy's OpenBLAS at one thread, so the
worker threads are the only parallelism.  Outputs are CSV with a header
row and 17 significant digits, and are byte-identical across reruns and
thread counts for the same config; ensemble outputs also across BLAS
thread settings.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from ._flow import compile_flow, flow_rhs, rhs_block
from ._io import density_dump_lines, fmt, write_lines
from .config import RunConfig, parse_config
from .ensemble import (
    EnsembleConfig,
    run_ensemble,
    single_step_equivalence_test,
    write_convergence_csv,
)
from .errors import ConfigError, QJumpError
from .generator import CheckItem, apply_generator, validate_generator
from .linalg import outer
from .oscillator import (
    closed_form_channels,
    closed_form_rate_operator,
    generator_reference,
    hasse_defect,
    occupancy_tail,
    random_truncation_safe_state,
)
from .trajectory import TrajectoryConfig, run_trajectory, write_event_log
from .unraveling import (
    jump_channels,
    modified_rate_operator,
    total_decay_rate,
    transition_rate_operator,
)

VERIFY_TOL = 1e-8
VERIFY_TIGHT = 1e-10
N_PROBE_STATES = 4
ORDER_RATIO_WINDOW = (3.5, 4.5)
ORDER_RATIO_EPS = 1e-4


def _probe_states(cfg: RunConfig) -> list[np.ndarray]:
    """Initial state plus a few random unit states drawn from the config seed."""
    rng = np.random.default_rng(cfg.seed)
    states = [cfg.initial_state]
    dim = cfg.generator.dim
    for _ in range(N_PROBE_STATES):
        if cfg.oscillator is not None:
            states.append(random_truncation_safe_state(dim, rng))
        else:
            raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            states.append(raw / np.linalg.norm(raw))
    return states


def cmd_verify(cfg: RunConfig, out=None) -> int:
    """Run the invariant suite against the configured model; 0 when clean."""
    if out is None:
        out = sys.stdout
    spec = cfg.generator
    checks: list[CheckItem] = list(validate_generator(spec).checks)

    def bounded(name: str, value: float, threshold: float) -> None:
        checks.append(CheckItem(name, value <= threshold, value, threshold))

    states = _probe_states(cfg)
    worst = {
        "flow_norm_tangency": 0.0,
        "flow_decay_rate": 0.0,
        "rate_operator_eigenstate": 0.0,
        "modified_rate_annihilates_state": 0.0,
        "modified_rate_trace_sum_rule": 0.0,
        "modified_rate_positive": 0.0,
        "channel_rate_sum": 0.0,
        "channel_reconstruction": 0.0,
    }
    osc_worst = {
        "closed_form_rate_operator": 0.0,
        "closed_form_channel_reconstruction": 0.0,
        "hasse_defect_rate_link": 0.0,
        "reference_generator_agreement": 0.0,
    }
    flow = compile_flow(spec)
    for psi in states:
        rhs = flow_rhs(flow, psi)
        worst["flow_norm_tangency"] = max(worst["flow_norm_tangency"], abs(2.0 * np.vdot(psi, rhs).real))
        w = total_decay_rate(spec, psi)
        _, flow_rate = rhs_block(flow, psi[:, None], want_rate=True)
        worst["flow_decay_rate"] = max(worst["flow_decay_rate"], abs(float(flow_rate[0]) - w) / max(1.0, w))
        w_op = transition_rate_operator(spec, psi)
        wp_op = modified_rate_operator(spec, psi)
        worst["rate_operator_eigenstate"] = max(
            worst["rate_operator_eigenstate"], float(np.linalg.norm(w_op @ psi + w * psi))
        )
        worst["modified_rate_annihilates_state"] = max(
            worst["modified_rate_annihilates_state"], float(np.linalg.norm(wp_op @ psi))
        )
        worst["modified_rate_trace_sum_rule"] = max(
            worst["modified_rate_trace_sum_rule"], abs(float(np.trace(wp_op).real) - w)
        )
        low = float(np.min(np.linalg.eigvalsh(wp_op)))
        worst["modified_rate_positive"] = max(worst["modified_rate_positive"], max(0.0, -low))
        report = jump_channels(spec, psi)
        worst["channel_rate_sum"] = max(worst["channel_rate_sum"], abs(float(report.rates.sum()) - w))
        recon = sum((ch.rate * outer(ch.target) for ch in report.channels), np.zeros_like(wp_op))
        worst["channel_reconstruction"] = max(
            worst["channel_reconstruction"], float(np.max(np.abs(recon - wp_op)))
        )
        if cfg.oscillator is not None:
            params = cfg.oscillator
            cf_op = closed_form_rate_operator(psi, params)
            osc_worst["closed_form_rate_operator"] = max(
                osc_worst["closed_form_rate_operator"], float(np.max(np.abs(cf_op - wp_op)))
            )
            cf_report = closed_form_channels(psi, params)
            cf_recon = sum(
                (ch.rate * outer(ch.target) for ch in cf_report.channels), np.zeros_like(wp_op)
            )
            osc_worst["closed_form_channel_reconstruction"] = max(
                osc_worst["closed_form_channel_reconstruction"], float(np.max(np.abs(cf_recon - wp_op)))
            )
            defect_rate = 2.0 / params.hbar**2 * hasse_defect(psi, params)
            osc_worst["hasse_defect_rate_link"] = max(
                osc_worst["hasse_defect_rate_link"], abs(w - defect_rate) / max(1.0, w)
            )
            rho = outer(psi)
            osc_worst["reference_generator_agreement"] = max(
                osc_worst["reference_generator_agreement"],
                float(np.max(np.abs(apply_generator(spec, rho) - generator_reference(params, rho)))),
            )

    bounded("flow_norm_tangency", worst["flow_norm_tangency"], VERIFY_TIGHT)
    bounded("flow_decay_rate", worst["flow_decay_rate"], VERIFY_TIGHT)
    bounded("rate_operator_eigenstate", worst["rate_operator_eigenstate"], VERIFY_TOL)
    bounded("modified_rate_annihilates_state", worst["modified_rate_annihilates_state"], VERIFY_TOL)
    bounded("modified_rate_trace_sum_rule", worst["modified_rate_trace_sum_rule"], VERIFY_TOL)
    bounded("modified_rate_positive", worst["modified_rate_positive"], VERIFY_TOL)
    bounded("channel_rate_sum", worst["channel_rate_sum"], VERIFY_TOL)
    bounded("channel_reconstruction", worst["channel_reconstruction"], VERIFY_TOL)

    coarse = single_step_equivalence_test(spec, cfg.initial_state, 2.0 * ORDER_RATIO_EPS)
    fine = single_step_equivalence_test(spec, cfg.initial_state, ORDER_RATIO_EPS)
    if fine > 0.0:
        value = coarse / fine
        lo, hi = ORDER_RATIO_WINDOW
        checks.append(CheckItem("single_step_order_ratio", lo <= value <= hi, value, hi))
    else:
        checks.append(CheckItem("single_step_order_ratio", True, 0.0, ORDER_RATIO_WINDOW[1]))

    if cfg.oscillator is not None:
        bounded("closed_form_rate_operator", osc_worst["closed_form_rate_operator"], VERIFY_TIGHT)
        bounded(
            "closed_form_channel_reconstruction",
            osc_worst["closed_form_channel_reconstruction"],
            VERIFY_TOL,
        )
        bounded("hasse_defect_rate_link", osc_worst["hasse_defect_rate_link"], VERIFY_TOL)
        bounded("reference_generator_agreement", osc_worst["reference_generator_agreement"], 1e-12)
        print(f"initial state occupancy tail: {cfg.initial_tail:.3e}", file=out)

    for check in checks:
        print(check.line(), file=out)
    failed = sum(1 for c in checks if not c.passed)
    total = len(checks)
    print(f"{total - failed}/{total} checks passed", file=out)
    return 0 if failed == 0 else 1


def cmd_trajectory(cfg: RunConfig) -> list[str]:
    """One observable CSV and one event log per configured trajectory index."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    written = []
    for idx in cfg.trajectory_indices:
        tcfg = TrajectoryConfig(
            dt=cfg.dt,
            t_final=cfg.t_final,
            seed=cfg.seed,
            trajectory_index=idx,
            observables=cfg.observables,
        )
        record = run_trajectory(cfg.generator, cfg.initial_state, tcfg)
        names = list(record.observables)
        lines = ["time" + "".join(f",{name}" for name in names)]
        for i, t in enumerate(record.times):
            row = fmt(t) + "".join(f",{fmt(record.observables[name][i])}" for name in names)
            lines.append(row)
        obs_path = os.path.join(cfg.out_dir, f"observables_{idx:05d}.csv")
        write_lines(obs_path, lines)
        jump_path = os.path.join(cfg.out_dir, f"jumps_{idx:05d}.csv")
        write_event_log(record, jump_path)
        written.extend([obs_path, jump_path])
    return written


def cmd_ensemble(cfg: RunConfig, threads: int = 1) -> list[str]:
    """Ensemble average vs density-operator reference; writes convergence.csv."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    base = TrajectoryConfig(
        dt=cfg.dt,
        t_final=cfg.t_final,
        seed=cfg.seed,
        observables=cfg.observables,
    )
    ecfg = EnsembleConfig(
        n_trajectories=cfg.n_trajectories,
        base=base,
        snapshot_times=cfg.snapshot_times,
    )
    report = run_ensemble(cfg.generator, cfg.initial_state, ecfg, threads=threads)
    conv_path = os.path.join(cfg.out_dir, "convergence.csv")
    write_convergence_csv(report, conv_path)
    written = [conv_path]
    if cfg.dump_density:
        for n in range(report.times.shape[0]):
            mc_path = os.path.join(cfg.out_dir, f"rho_mc_{n:03d}.txt")
            write_lines(mc_path, density_dump_lines(report.rho_mc[n]))
            oracle_path = os.path.join(cfg.out_dir, f"rho_oracle_{n:03d}.txt")
            write_lines(oracle_path, density_dump_lines(report.rho_oracle[n]))
            written.extend([mc_path, oracle_path])
    return written


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qjump", description="Stochastic pure-state simulator for Markovian master equations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("verify", "check model invariants and print a pass/fail report"),
        ("trajectory", "run single trajectories and write observable/event CSVs"),
        ("ensemble", "run a trajectory ensemble and compare against the master equation"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="path to the run configuration file")
        p.add_argument("--out", default=None, help="output directory (overrides the config)")
        p.add_argument("--seed", type=int, default=None, help="base seed (overrides the config)")
        p.add_argument(
            "--threads",
            type=int,
            default=None,
            help="worker threads for ensemble runs; 0 means all cores this process may use (default, or QJUMP_THREADS)",
        )
    return parser


def _resolve_thread_request(args: argparse.Namespace) -> int:
    if args.threads is not None:
        return args.threads
    env = os.environ.get("QJUMP_THREADS", "").strip()
    if env:
        try:
            return int(env)
        except ValueError:
            print(f"warning: ignoring non-integer QJUMP_THREADS={env!r}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read config {args.config!r}: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text).with_overrides(out_dir=args.out, seed=args.seed)
    except ConfigError as exc:
        print(f"error: invalid config {args.config!r}:", file=sys.stderr)
        for lineno, message in getattr(exc, "errors", []) or [(0, str(exc))]:
            print(f"  line {lineno}: {message}", file=sys.stderr)
        return 2
    try:
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "trajectory":
            for path in cmd_trajectory(cfg):
                print(path)
            return 0
        for path in cmd_ensemble(cfg, threads=_resolve_thread_request(args)):
            print(path)
        return 0
    except QJumpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
