"""Ensemble averaging against the density-operator reference.

Uses the two-level flip model for analytic oracles: from |0> the master
equation gives rho_00(t) = (1 + e^{-2t})/2, and the jump statistics are
simple enough that modest ensembles converge fast.
"""

import numpy as np
import pytest

from qjump import _batch
from qjump._batch import run_batch
from qjump.ensemble import (
    ConvergenceReport,
    EnsembleConfig,
    master_evolve,
    master_step,
    run_ensemble,
    single_step_equivalence_test,
    write_convergence_csv,
)
from qjump.errors import PositivityLost
from qjump.generator import GeneratorSpec
from qjump.linalg import normalize, outer, trace_distance
from qjump.oscillator import (
    OscillatorParams,
    fock_state,
    oscillator_generator,
    random_truncation_safe_state,
)
from qjump.trajectory import TrajectoryConfig, run_trajectory

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
FLIP = GeneratorSpec(hamiltonian=np.zeros((2, 2)), couplings=(SX,), coeff=[[0.5]])
OSC = oscillator_generator(OscillatorParams(levels=20, d22=0.5))
E0_2 = np.array([1.0, 0.0], dtype=np.complex128)
POP0 = np.diag([1.0, 0.0]).astype(np.complex128)


def test_master_step_preserves_density_structure():
    rho = outer(E0_2)
    for _ in range(50):
        rho = master_step(FLIP, rho, 1e-2)
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-10


def test_master_evolution_matches_analytic_flip_solution():
    snaps = (0, 250, 500, 1000)
    rhos = master_evolve(FLIP, outer(E0_2), 1e-3, 1000, snaps)
    assert rhos.shape == (4, 2, 2)
    for rho, step in zip(rhos, snaps):
        t = step * 1e-3
        expected = 0.5 * (1.0 + np.exp(-2.0 * t))
        assert rho[0, 0].real == pytest.approx(expected, abs=1e-10)
        assert abs(rho[0, 1]) < 1e-12


def test_master_step_unitary_accuracy():
    # pure Hamiltonian: one RK4 step vs the exact phase evolution
    params = OscillatorParams(levels=6, d22=0.0)
    spec = oscillator_generator(params)
    psi0 = normalize(fock_state(6, 0) + fock_state(6, 3))
    dt = 1e-2
    stepped = master_step(spec, outer(psi0), dt)
    phases = np.exp(-1j * np.diag(spec.hamiltonian).real * dt)
    exact = outer(phases * psi0)
    assert np.max(np.abs(stepped - exact)) < 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_master_step_rejects_non_finite_density(bad):
    for entry in ((0, 0), (0, 1)):
        rho = outer(E0_2)
        rho[entry] = bad
        with pytest.raises(PositivityLost), np.errstate(invalid="ignore"):
            master_step(FLIP, rho, 1e-2)


def test_master_step_rejects_oversized_step():
    with pytest.raises(PositivityLost):
        master_evolve(OSC, outer(fock_state(20, 0)), 0.8, 10, (10,))


def test_single_step_equivalence_residual_and_order():
    rng = np.random.default_rng(123)
    for spec, dim in [(FLIP, 2), (OSC, 20)]:
        for _ in range(3):
            if dim == 20:
                psi = random_truncation_safe_state(dim, rng)
            else:
                psi = normalize(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
            eps = 1e-4
            fine = single_step_equivalence_test(spec, psi, eps)
            coarse = single_step_equivalence_test(spec, psi, 2.0 * eps)
            assert fine < 1e-6
            assert 3.5 <= coarse / fine <= 4.5


def test_engine_matches_single_trajectory_runner():
    # same Philox streams, same step policy: identical jump logs and
    # per-trajectory agreement of the final states.  From fock(4) the
    # decay rate is 4.5, so the logs are not empty.
    n_steps = 400
    for level in (0, 4):
        psi0 = fock_state(20, level)
        batch = run_batch(
            OSC,
            psi0,
            1e-3,
            n_steps,
            3,
            31,
            snapshot_steps=(n_steps,),
            keep_final=True,
            record_jumps=True,
        )
        assert bool(batch.jump_log) == (level > 0)
        for idx in range(3):
            cfg = TrajectoryConfig(dt=1e-3, t_final=0.4, seed=31, trajectory_index=idx)
            record = run_trajectory(OSC, psi0, cfg)
            engine_log = [(time, channel) for traj, time, _, channel in batch.jump_log if traj == idx]
            assert [(event.time, event.target_index) for event in record.jumps] == engine_log
            assert all(event.pre_state_norm_check == pytest.approx(1.0, abs=1e-12) for event in record.jumps)
            assert np.max(np.abs(batch.final_states[:, idx] - record.final_state)) < 1e-9


def test_engine_reduction_independent_of_thread_count():
    # more trajectories than one chunk so the reduction actually merges
    batch1 = run_batch(FLIP, E0_2, 1e-2, 50, 2100, 3, snapshot_steps=(0, 50), threads=1)
    batch4 = run_batch(FLIP, E0_2, 1e-2, 50, 2100, 3, snapshot_steps=(0, 50), threads=4)
    assert np.array_equal(batch1.block_sums, batch4.block_sums)
    assert np.array_equal(batch1.block_counts, batch4.block_counts)
    assert batch1.max_jump_prob == batch4.max_jump_prob


class DrawSpy:
    """A trajectory stream that records the rows of every uniform draw."""

    def __init__(self, stream, rows):
        self._stream = stream
        self._rows = rows

    def random(self, size):
        self._rows.append(size[0])
        return self._stream.random(size)


@pytest.mark.parametrize("threads", [1, 2])
def test_uniform_window_does_not_move_output(monkeypatch, threads):
    # 130 steps leave a partial last window at every window size tried
    n_steps, n_traj = 130, 12
    monkeypatch.setattr(_batch, "CHUNK", 5)
    keyed = _batch.trajectory_rng
    results = {}
    for window in (_batch.WINDOW, 1, 7):
        rows = []
        monkeypatch.setattr(_batch, "WINDOW", window)
        monkeypatch.setattr(_batch, "trajectory_rng", lambda seed, index: DrawSpy(keyed(seed, index), rows))
        results[window] = run_batch(
            FLIP,
            E0_2,
            1e-2,
            n_steps,
            n_traj,
            3,
            snapshot_steps=(0, 65, n_steps),
            observables=(POP0,),
            threads=threads,
            record_jumps=True,
        )
        assert max(rows) == window and sum(rows) == n_steps * n_traj
    reference = results.pop(_batch.WINDOW)
    assert reference.jump_log
    for batch in results.values():
        assert batch.block_sums.tobytes() == reference.block_sums.tobytes()
        assert batch.obs_sum.tobytes() == reference.obs_sum.tobytes()
        assert batch.obs_sumsq.tobytes() == reference.obs_sumsq.tobytes()
        assert batch.jump_log == reference.jump_log


def ensemble_config(n_traj, dt=1e-2, t_final=1.0, seed=5, observables=None):
    base = TrajectoryConfig(dt=dt, t_final=t_final, seed=seed, observables=observables or {})
    return EnsembleConfig(n_trajectories=n_traj, base=base, snapshot_times=(0.5, 1.0))


def test_ensemble_config_validation():
    base = TrajectoryConfig(dt=0.1, t_final=1.0, seed=0)
    with pytest.raises(ValueError):
        EnsembleConfig(n_trajectories=0, base=base, snapshot_times=(1.0,))
    with pytest.raises(ValueError):
        EnsembleConfig(n_trajectories=10, base=base, snapshot_times=(0.55,))
    with pytest.raises(ValueError):
        EnsembleConfig(n_trajectories=10, base=base, snapshot_times=(0.5, 0.5))
    cfg = EnsembleConfig(n_trajectories=10, base=base, snapshot_times=(0.5, 1.0))
    assert cfg.snapshot_steps == (5, 10)


def test_run_ensemble_converges_on_flip_model():
    report = run_ensemble(FLIP, E0_2, ensemble_config(800, observables={"pop0": POP0}), threads=1)
    assert report.n_trajectories == 800
    assert np.array_equal(report.times, [0.5, 1.0])
    assert np.all(report.trace_distances < 0.1)
    assert np.all(report.stat_errors > 0.0)
    assert np.all(report.stat_errors < 0.1)
    # mean of pop0 within five standard errors of the analytic value
    for s, t in enumerate(report.times):
        expected = 0.5 * (1.0 + np.exp(-2.0 * t))
        spread = max(report.observable_stderrs[s, 0], 1e-3)
        assert abs(report.observable_means[s, 0] - expected) < 5.0 * spread
    # oracle column is the analytic solution up to RK4 error at dt = 1e-2
    assert report.rho_oracle[1][0, 0].real == pytest.approx(0.5 * (1.0 + np.exp(-2.0)), abs=1e-8)


def test_run_ensemble_single_trajectory():
    report = run_ensemble(FLIP, E0_2, ensemble_config(1), threads=1)
    assert np.all(report.stat_errors == 0.0)
    assert np.all(np.isfinite(report.trace_distances))
    # one projector, so the Monte Carlo density is pure
    eigs = np.linalg.eigvalsh(report.rho_mc[1])
    assert eigs[-1] == pytest.approx(1.0, abs=1e-10)


def test_ensemble_mean_converges_with_size():
    # crude 1/sqrt(M) behavior: the big ensemble beats the small one
    small = run_ensemble(FLIP, E0_2, ensemble_config(40, seed=9), threads=1)
    big = run_ensemble(FLIP, E0_2, ensemble_config(2000, seed=9), threads=1)
    assert big.trace_distances[-1] < small.trace_distances[-1]


def test_convergence_csv_format(tmp_path):
    report = run_ensemble(FLIP, E0_2, ensemble_config(50, observables={"pop0": POP0}), threads=1)
    path = tmp_path / "convergence.csv"
    write_convergence_csv(report, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "time,trace_distance,stat_error,mean_pop0,stderr_pop0"
    assert len(lines) == 3
    # 17 significant digits round-trip exactly
    for s, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert float(fields[0]) == report.times[s]
        assert float(fields[1]) == report.trace_distances[s]
        assert float(fields[3]) == report.observable_means[s, 0]
