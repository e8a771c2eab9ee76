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

from ._flow import compile_flow, rhs_block
from ._io import density_dump_lines, fmt, write_lines
from .config import RunConfig, parse_config
from .ensemble import (
    EnsembleConfig,
    run_ensemble,
    single_step_equivalence_test,
    write_convergence_csv,
)
from .errors import ConfigError, QJumpError
from .generator import CheckItem, GeneratorSpec, apply_generator, validate_generator
from .linalg import expectation, lowest_eigenvalue, outer
from .oscillator import (
    OscillatorParams,
    closed_form_channels,
    closed_form_rate_operator,
    frictional_hamiltonian,
    frictional_rhs_closed_form,
    generator_reference,
    hasse_defect,
    random_truncation_safe_state,
)
from .trajectory import TrajectoryConfig, run_trajectory, write_event_log
from .unraveling import (
    RateReport,
    channels_from_rate_operator,
    modified_rate_operator,
    total_decay_rate,
    transition_rate_operator,
)

VERIFY_TOL = 1e-8
VERIFY_TIGHT = 1e-10
N_PROBE_STATES = 4
ORDER_RATIO_WINDOW = (3.5, 4.5)
ORDER_RATIO_EPS = 1e-4

# (name, tolerance) rows judged on the worst value over the probe states
GENERIC_CHECKS = (
    ("flow_norm_tangency", VERIFY_TIGHT),
    ("flow_decay_rate", VERIFY_TIGHT),
    ("rate_operator_eigenstate", VERIFY_TOL),
    ("modified_rate_annihilates_state", VERIFY_TOL),
    ("modified_rate_trace_sum_rule", VERIFY_TOL),
    ("modified_rate_positive", VERIFY_TOL),
    ("channel_rate_sum", VERIFY_TOL),
    ("channel_reconstruction", VERIFY_TOL),
)
OSCILLATOR_CHECKS = (
    ("closed_form_rate_operator", VERIFY_TIGHT),
    ("closed_form_channel_reconstruction", VERIFY_TOL),
    ("hasse_defect_rate_link", VERIFY_TOL),
    ("reference_generator_agreement", 1e-12),
    ("closed_form_flow_rhs", VERIFY_TIGHT),
    ("frictional_hamiltonian_flow", VERIFY_TIGHT),
)


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


def _reconstruction_defect(report: RateReport, wp_op: np.ndarray) -> float:
    """Largest entry of |sum_n w_n |phi_n><phi_n| - W'|."""
    recon = sum((ch.rate * outer(ch.target) for ch in report.channels), np.zeros_like(wp_op))
    return float(np.max(np.abs(recon - wp_op)))


def _generic_defects(spec: GeneratorSpec, psi: np.ndarray, rhs: np.ndarray, flow_rate: float, w: float, wp_op: np.ndarray) -> dict[str, float]:
    """The GENERIC_CHECKS values at one probe state: compiled flow rhs and rate, decay rate w, W' = wp_op."""
    low = lowest_eigenvalue(wp_op)
    report = channels_from_rate_operator(wp_op, psi)
    return {
        "flow_norm_tangency": abs(2.0 * np.vdot(psi, rhs).real),
        "flow_decay_rate": abs(flow_rate - w) / max(1.0, w),
        "rate_operator_eigenstate": float(np.linalg.norm(transition_rate_operator(spec, psi) @ psi + w * psi)),
        "modified_rate_annihilates_state": float(np.linalg.norm(wp_op @ psi)),
        "modified_rate_trace_sum_rule": abs(float(np.trace(wp_op).real) - w),
        "modified_rate_positive": 0.0 if low >= 0.0 else -low,
        "channel_rate_sum": abs(float(report.rates.sum()) - w),
        "channel_reconstruction": _reconstruction_defect(report, wp_op),
    }


def _oscillator_defects(
    spec: GeneratorSpec, params: OscillatorParams, psi: np.ndarray, rhs: np.ndarray, w: float, wp_op: np.ndarray
) -> dict[str, float]:
    """The OSCILLATOR_CHECKS values: closed forms against the generic route, and Hasse's H_fr."""
    rho = outer(psi)
    closed_rhs = frictional_rhs_closed_form(params, psi)
    mean_h0 = expectation(spec.hamiltonian, psi).real
    hamiltonian_rhs = (-1j / params.hbar) * (frictional_hamiltonian(params, psi) @ psi - mean_h0 * psi)
    return {
        "closed_form_rate_operator": float(np.max(np.abs(closed_form_rate_operator(psi, params) - wp_op))),
        "closed_form_channel_reconstruction": _reconstruction_defect(closed_form_channels(psi, params), wp_op),
        "hasse_defect_rate_link": abs(w - 2.0 / params.hbar**2 * hasse_defect(psi, params)) / max(1.0, w),
        "reference_generator_agreement": float(
            np.max(np.abs(apply_generator(spec, rho) - generator_reference(params, rho)))
        ),
        "closed_form_flow_rhs": float(np.max(np.abs(rhs - closed_rhs))),
        "frictional_hamiltonian_flow": float(np.max(np.abs(hamiltonian_rhs - closed_rhs))),
    }


def cmd_verify(cfg: RunConfig, out=None) -> int:
    """Run the invariant suite against the configured model; 0 when clean."""
    if out is None:
        out = sys.stdout
    spec = cfg.generator
    params = cfg.oscillator
    flow = compile_flow(spec)
    generic, oscillator = [], []
    for psi in _probe_states(cfg):
        w = total_decay_rate(spec, psi)
        wp_op = modified_rate_operator(spec, psi)
        rhs, flow_rate = rhs_block(flow, psi[:, None], want_rate=True)
        generic.append(_generic_defects(spec, psi, rhs[:, 0], float(flow_rate[0]), w, wp_op))
        if params is not None:
            oscillator.append(_oscillator_defects(spec, params, psi, rhs[:, 0], w, wp_op))

    checks = list(validate_generator(spec).checks)
    checks += [CheckItem.worst_of(name, [d[name] for d in generic], tol) for name, tol in GENERIC_CHECKS]
    coarse = single_step_equivalence_test(spec, cfg.initial_state, 2.0 * ORDER_RATIO_EPS)
    fine = single_step_equivalence_test(spec, cfg.initial_state, ORDER_RATIO_EPS)
    lo, hi = ORDER_RATIO_WINDOW
    # a zero residual has no order to measure; a NaN one gives a NaN ratio, which fails
    ratio = coarse / fine if fine != 0.0 else 0.0
    checks.append(CheckItem("single_step_order_ratio", fine == 0.0 or lo <= ratio <= hi, ratio, hi))
    if params is not None:
        # H_fr generates the flow only where [x, p] = i hbar holds, as on the random truncation-safe
        # probes; the initial state may have weight at the top level, so that row skips it
        del oscillator[0]["frictional_hamiltonian_flow"]
        checks += [CheckItem.worst_of(name, [d[name] for d in oscillator if name in d], tol) for name, tol in OSCILLATOR_CHECKS]
        print(f"initial state occupancy tail: {cfg.initial_tail:.3e}", file=out)

    for check in checks:
        print(check.line(), file=out)
    failed = sum(1 for c in checks if not c.passed)
    print(f"{len(checks) - failed}/{len(checks)} checks passed", file=out)
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


def _thread_count(text: str) -> int:
    """A thread count as --threads and QJUMP_THREADS give it: a nonnegative integer."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


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
            type=_thread_count,
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
            return _thread_count(env)
        except argparse.ArgumentTypeError as exc:
            print(f"warning: ignoring QJUMP_THREADS: {exc}", file=sys.stderr)
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
