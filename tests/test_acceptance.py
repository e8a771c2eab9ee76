"""Acceptance suite: the eight headline guarantees, one pass/fail line each.

Each test prints a single [PASS]/[FAIL] summary line with the measured
numbers next to the tolerance it is held to, then asserts.  Run with
pytest -s to see the lines as they happen.
"""

import time

import numpy as np
import pytest

from qjump.cli import main
from qjump.ensemble import (
    EnsembleConfig,
    master_evolve,
    run_ensemble,
    single_step_equivalence_test,
)
from qjump.generator import apply_generator
from qjump.linalg import expectation, normalize, orthonormal_completion, outer
from qjump.oscillator import (
    OscillatorParams,
    build_operators,
    closed_form_rate_operator,
    coherent_state,
    fock_state,
    frictional_rhs_closed_form,
    hasse_defect,
    minimize_hasse_defect,
    oscillator_generator,
    random_truncation_safe_state,
    squeezed_vacuum,
)
from qjump.trajectory import TrajectoryConfig, run_trajectory
from qjump.unraveling import (
    frictional_rhs,
    jump_channels,
    modified_rate_operator,
    total_decay_rate,
)

DIFFUSION = OscillatorParams(levels=20, d22=0.5)
DIFFUSION_SPEC = oscillator_generator(DIFFUSION)
# full-rank coefficient matrix with Im D12 = 0.05
FULL = OscillatorParams(levels=20, d11=0.3, d22=0.5, re_d12=0.1, im_d12=0.05)
FULL_SPEC = oscillator_generator(FULL)
# rank-1 matrix whose Hasse defect can be tuned to zero by squeezing
TUNED = OscillatorParams(levels=20, d11=0.05, d22=0.2, im_d12=0.1)


def report(ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] {text}")
    assert ok


def test_criterion_1_single_step_equivalence_order():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    eps = 1e-4
    ratios = []
    for _ in range(5):
        psi = random_truncation_safe_state(20, rng)
        coarse = single_step_equivalence_test(DIFFUSION_SPEC, psi, eps)
        fine = single_step_equivalence_test(DIFFUSION_SPEC, psi, eps / 2.0)
        ratios.append(coarse / fine)
    elapsed = time.perf_counter() - start
    ok = all(3.5 <= r <= 4.5 for r in ratios) and elapsed < 1.0
    report(
        ok,
        "criterion 1: single-step residual ratio in [3.5, 4.5] on 5 states "
        f"(range {min(ratios):.3f}..{max(ratios):.3f}, {elapsed:.2f} s < 1 s)",
    )


def test_criterion_2_ensemble_convergence():
    start = time.perf_counter()
    psi0 = fock_state(20, 0)
    snapshot_times = (0.25, 0.5, 1.0)

    def distances(n_traj, seed):
        base = TrajectoryConfig(dt=1e-3, t_final=1.0, seed=seed)
        cfg = EnsembleConfig(n_trajectories=n_traj, base=base, snapshot_times=snapshot_times)
        return run_ensemble(DIFFUSION_SPEC, psi0, cfg, threads=1).trace_distances

    seeds = (101, 202, 303, 404, 505)
    big_ok = True
    small_beats_big = 0
    worst_big = 0.0
    for seed in seeds:
        big = distances(5000, seed)
        small = distances(500, seed)
        worst_big = max(worst_big, float(big.max()))
        big_ok = big_ok and bool(np.all(big <= 0.05))
        if small[-1] > big[-1]:
            small_beats_big += 1
    elapsed = time.perf_counter() - start
    ok = big_ok and small_beats_big >= 4 and elapsed < 120.0
    report(
        ok,
        "criterion 2: M=5000 trace distance <= 0.05 at t in {0.25, 0.5, 1.0} "
        f"(worst {worst_big:.4f}), M=500 worse in {small_beats_big}/5 seed groups, "
        f"{elapsed:.0f} s < 120 s",
    )


def test_criterion_3_ground_state_jump_channel():
    psi = fock_state(20, 0)
    channels = jump_channels(DIFFUSION_SPEC, psi).channels
    rate_err = abs(channels[0].rate - 0.5) if channels else float("inf")
    overlap = abs(np.vdot(fock_state(20, 1), channels[0].target)) if channels else 0.0
    ok = len(channels) == 1 and rate_err <= 1e-10 and overlap >= 1.0 - 1e-10
    report(
        ok,
        f"criterion 3: ground state has {len(channels)} channel, rate error "
        f"{rate_err:.1e} <= 1e-10, overlap with first excited state 1-{1.0 - overlap:.1e}",
    )


def test_criterion_4_operator_identities():
    rng = np.random.default_rng(4004)
    worst = dict.fromkeys(
        ("annihilation", "trace", "negativity", "closed_form", "sum_rule"), 0.0
    )
    count_ok = True
    for _ in range(20):
        psi = random_truncation_safe_state(20, rng)
        w = total_decay_rate(FULL_SPEC, psi)
        wp_op = modified_rate_operator(FULL_SPEC, psi)
        worst["annihilation"] = max(worst["annihilation"], float(np.linalg.norm(wp_op @ psi)))
        worst["trace"] = max(worst["trace"], abs(float(np.trace(wp_op).real) - w))
        low = float(np.min(np.linalg.eigvalsh(wp_op)))
        worst["negativity"] = max(worst["negativity"], max(0.0, -low))
        count_ok = count_ok and len(jump_channels(FULL_SPEC, psi).channels) <= 2
        closed = closed_form_rate_operator(psi, FULL)
        worst["closed_form"] = max(worst["closed_form"], float(np.max(np.abs(wp_op - closed))))
        image = apply_generator(FULL_SPEC, outer(psi))
        basis = orthonormal_completion(psi)
        total = sum(expectation(image, basis[:, n]).real for n in range(19))
        worst["sum_rule"] = max(worst["sum_rule"], abs(total - w))
    ok = (
        worst["annihilation"] <= 1e-8
        and worst["trace"] <= 1e-8
        and worst["negativity"] <= 1e-8
        and count_ok
        and worst["closed_form"] <= 1e-10
        and worst["sum_rule"] <= 1e-8
    )
    report(
        ok,
        "criterion 4: rate operator identities on 20 random states "
        f"(|W'psi| {worst['annihilation']:.1e}, trace {worst['trace']:.1e}, "
        f"negativity {worst['negativity']:.1e}, closed form {worst['closed_form']:.1e}, "
        f"sum rule {worst['sum_rule']:.1e}; <= 2 channels {count_ok})",
    )


def test_criterion_5_frictional_flow():
    rng = np.random.default_rng(5005)
    worst_rhs = 0.0
    worst_norm = 0.0
    for params, spec in ((DIFFUSION, DIFFUSION_SPEC), (FULL, FULL_SPEC)):
        for _ in range(5):
            psi = random_truncation_safe_state(20, rng)
            rhs = frictional_rhs(spec, psi)
            closed = frictional_rhs_closed_form(params, psi)
            worst_rhs = max(worst_rhs, float(np.max(np.abs(rhs - closed))))
            worst_norm = max(worst_norm, abs(2.0 * np.vdot(psi, rhs).real))
    # pure-Hamiltonian limit: 1e4 deterministic steps conserve the energy
    free = oscillator_generator(OscillatorParams(levels=20, d22=0.0))
    h0 = np.array(free.hamiltonian)
    psi0 = coherent_state(20, 1.0)
    cfg = TrajectoryConfig(dt=1e-4, t_final=1.0, seed=0, observables={"H0": h0})
    energy = run_trajectory(free, psi0, cfg).observables["H0"]
    drift = float(np.max(np.abs(energy - energy[0])))
    ok = worst_rhs <= 1e-10 and worst_norm <= 1e-10 and drift <= 1e-8
    report(
        ok,
        f"criterion 5: flow rhs generic-vs-closed {worst_rhs:.1e} <= 1e-10, "
        f"norm derivative {worst_norm:.1e} <= 1e-10, energy drift over 1e4 steps "
        f"{drift:.1e} <= 1e-8",
    )


def test_criterion_6_hasse_diagnostic():
    psi, _, defect = minimize_hasse_defect(TUNED)
    rate = total_decay_rate(oscillator_generator(TUNED), psi)
    tuned_ok = abs(defect) <= 1e-6 and rate <= 2e-6 * 2.0
    rng = np.random.default_rng(6006)
    probes = [squeezed_vacuum(20, r) for r in np.linspace(-0.45, 0.45, 31)]
    probes += [random_truncation_safe_state(20, rng) for _ in range(20)]
    probes.append(minimize_hasse_defect(DIFFUSION)[0])
    min_defect = min(hasse_defect(p, DIFFUSION) for p in probes)
    ok = tuned_ok and min_defect > 0.0
    report(
        ok,
        f"criterion 6: tuned squeezed state defect {abs(defect):.1e} <= 1e-6 with "
        f"rate {rate:.1e} <= 4e-6; pure-diffusion defect stays positive "
        f"(min {min_defect:.3f})",
    )


def test_criterion_7_moment_odes():
    params = TUNED
    spec = oscillator_generator(params)
    _, x, p = build_operators(params)
    lam = params.friction
    rho0 = outer(coherent_state(20, 1.0 + 0.5j))
    dt = 1e-3
    steps = sorted({100, 200, 300, 400} | {99, 101, 199, 201, 299, 301, 399, 401})
    rhos = dict(zip(steps, master_evolve(spec, rho0, [k * dt for k in steps])))

    def mean(op, rho):
        return float(np.trace(op @ rho).real)

    worst = 0.0
    for k in (100, 200, 300, 400):
        dx = (mean(x, rhos[k + 1]) - mean(x, rhos[k - 1])) / (2.0 * dt)
        dp = (mean(p, rhos[k + 1]) - mean(p, rhos[k - 1])) / (2.0 * dt)
        expected_dx = mean(p, rhos[k]) / params.mass
        expected_dp = -params.mass * params.omega**2 * mean(x, rhos[k]) - 2.0 * lam * mean(p, rhos[k])
        worst = max(worst, abs(dx - expected_dx), abs(dp - expected_dp))
    ok = worst <= 1e-6
    report(ok, f"criterion 7: first-moment equations by central differences, worst {worst:.1e} <= 1e-6")


def test_criterion_8_byte_identical_ensemble(tmp_path):
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(
        "[model]\ntype = damped_oscillator\nN = 12\nD22 = 0.5\n"
        "[initial]\nstate = coherent(0.8)\n"
        "[run]\ndt = 1e-3\nt_final = 0.3\nsnapshot_times = 0.15 0.3\n"
        "n_trajectories = 600\nseed = 88\n"
        "[output]\ndirectory = unused\ndump_density = true\n"
    )
    outputs = {}
    for label, threads in (("a", "1"), ("b", "8"), ("c", "1")):
        out_dir = tmp_path / label
        code = main(
            ["ensemble", "--config", str(cfg_path), "--out", str(out_dir), "--threads", threads]
        )
        assert code == 0
        outputs[label] = {
            name.name: name.read_bytes() for name in sorted(out_dir.iterdir())
        }
    same_rerun = outputs["a"] == outputs["c"]
    same_threads = outputs["a"] == outputs["b"]
    n_files = len(outputs["a"])
    ok = same_rerun and same_threads and n_files == 5
    report(
        ok,
        f"criterion 8: {n_files} output files byte-identical across reruns "
        f"({same_rerun}) and across --threads 1 vs 8 ({same_threads})",
    )
