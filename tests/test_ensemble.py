"""Ensemble averaging against the density-operator reference.

Uses the two-level flip model for analytic oracles: from |0> the master
equation gives rho_00(t) = (1 + e^{-2t})/2, and the jump statistics are
simple enough that modest ensembles converge fast.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from qjump import _batch, _flow, cli, ensemble, generator, unraveling
from qjump._batch import run_batch
from qjump.ensemble import (
    ConvergenceReport,
    EnsembleConfig,
    master_evolve,
    run_ensemble,
    single_step_equivalence_test,
    write_convergence_csv,
)
from qjump.errors import DimensionMismatch, PositivityLost
from qjump.generator import GeneratorSpec
from qjump.linalg import normalize, outer, trace_distance
from qjump.oscillator import (
    OscillatorParams,
    build_operators,
    coherent_state,
    fock_state,
    oscillator_generator,
    random_truncation_safe_state,
)
from qjump.trajectory import TrajectoryConfig, run_trajectories

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
FLIP = GeneratorSpec(hamiltonian=np.zeros((2, 2)), couplings=(SX,), coeff=[[0.5]])
OSC = oscillator_generator(OscillatorParams(levels=20, d22=0.5))
E0_2 = np.array([1.0, 0.0], dtype=np.complex128)
POP0 = np.diag([1.0, 0.0]).astype(np.complex128)


def test_master_evolve_preserves_density_structure():
    (rho,) = master_evolve(OSC, outer(coherent_state(20, 0.8 - 0.3j)), (0.5,))
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-10


def test_master_evolution_matches_analytic_flip_solution():
    times = (0.0, 0.25, 0.5, 1.0)
    rhos = master_evolve(FLIP, outer(E0_2), times)
    assert rhos.shape == (4, 2, 2)
    for rho, t in zip(rhos, times):
        assert rho[0, 0].real == pytest.approx(0.5 * (1.0 + np.exp(-2.0 * t)), abs=1e-14)
        assert abs(rho[0, 1]) < 1e-14


def test_master_evolve_fills_unsorted_times_in_their_own_slots():
    times = (1.0, 0.0, 0.5)
    rhos = master_evolve(OSC, outer(fock_state(20, 1)), times)
    for rho, t in zip(rhos, times):
        (alone,) = master_evolve(OSC, outer(fock_state(20, 1)), (t,))
        assert np.max(np.abs(rho - alone)) < 1e-14


def test_master_evolve_unitary_accuracy():
    # pure Hamiltonian: the exact phase evolution
    params = OscillatorParams(levels=6, d22=0.0)
    spec = oscillator_generator(params)
    psi0 = normalize(fock_state(6, 0) + fock_state(6, 3))
    times = (1e-2, 1.0)
    for rho, t in zip(master_evolve(spec, outer(psi0), times), times):
        phases = np.exp(-1j * np.diag(spec.hamiltonian).real * t)
        assert np.max(np.abs(rho - outer(phases * psi0))) < 1e-13


@pytest.mark.parametrize(
    "params",
    [OscillatorParams(levels=20, d22=0.5), OscillatorParams(levels=20, d11=0.3, d22=0.5, re_d12=0.1, im_d12=0.05)],
    ids=["diffusion-only", "full-rank"],
)
def test_master_evolve_matches_expm_of_the_liouvillian(params):
    # the Liouvillian's columns are the reference generator's images of the basis matrices
    d = params.levels
    spec = oscillator_generator(params)
    basis = np.eye(d * d, dtype=np.complex128).reshape(d * d, d, d)
    liouvillian = np.stack([generator.apply_generator(spec, e).ravel() for e in basis], axis=1)
    rho0 = outer(coherent_state(d, 0.8 - 0.3j))
    times = (0.25, 1.0)
    for rho, t in zip(master_evolve(spec, rho0, times), times):
        exact = (scipy.linalg.expm(liouvillian * t) @ rho0.ravel()).reshape(d, d)
        assert np.max(np.abs(rho - exact)) <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("t", [0.0, 1e-2])
def test_master_evolve_rejects_non_finite_density(bad, t):
    for entry in ((0, 0), (0, 1)):
        rho = outer(E0_2)
        rho[entry] = bad
        with pytest.raises(PositivityLost, match=f"^oracle at t={t:g}: "), np.errstate(invalid="ignore"):
            master_evolve(FLIP, rho, (t,))


def test_master_evolve_rejects_a_density_of_another_dimension():
    with pytest.raises(DimensionMismatch, match=r"^operator has shape \(2, 2\), expected \(20, 20\)$"):
        master_evolve(OSC, outer(E0_2), (0.1,))


def test_master_evolve_names_the_time_of_a_failed_guard():
    # trace 1 and Hermitian, but with eigenvalue -1/2: the flow relaxes it towards 1/2 only slowly
    rho = np.diag([1.5, -0.5]).astype(np.complex128)
    with pytest.raises(PositivityLost, match=r"^oracle at t=0\.01: eigenvalue -4\.80\de-01 < -1\.0e-06$"):
        master_evolve(FLIP, rho, (0.01,))


@pytest.mark.parametrize(
    "times, message",
    [
        ((-0.1,), r"snapshot time -0\.1 is negative or not finite"),
        ((float("inf"),), "snapshot time inf is negative or not finite"),
        ((float("nan"),), "snapshot time nan is negative or not finite"),
        ((0.5, 0.1, 0.5), r"snapshot times \(0\.5, 0\.1, 0\.5\) repeat a time"),
    ],
    ids=["negative", "inf", "nan", "repeated"],
)
def test_master_evolve_rejects_snapshot_times_it_cannot_fill(times, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        master_evolve(FLIP, outer(E0_2), times)


def test_run_ensemble_at_a_coarse_step_takes_an_exact_oracle():
    # an RK4 step of 0.1 on this model leaves an eigenvalue of -4.8e-6; the oracle takes no step of the grid
    base = TrajectoryConfig(dt=0.1, t_final=1.0, seed=5)
    with pytest.warns(UserWarning, match="discretization bias is first order in dt"):
        report = run_ensemble(OSC, fock_state(20, 0), EnsembleConfig(n_trajectories=8, base=base, snapshot_times=(0.5, 1.0)))
    assert np.array_equal(report.rho_oracle, master_evolve(OSC, outer(fock_state(20, 0)), (0.5, 1.0)))
    assert np.all(np.isfinite(report.trace_distances))


def test_run_ensemble_steps_its_oracle_on_the_compiled_flow(monkeypatch):
    # apply_generator is the reference route; the oracle must not call it
    calls = []
    real = generator.apply_generator

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (generator, ensemble, unraveling, cli):
        monkeypatch.setattr(module, "apply_generator", spy)
    base = TrajectoryConfig(dt=1e-2, t_final=0.2, seed=5)
    report = run_ensemble(OSC, fock_state(20, 1), EnsembleConfig(n_trajectories=6, base=base, snapshot_times=(0.1, 0.2)))
    assert calls == []
    assert np.all(np.isfinite(report.rho_oracle))


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
    # same Philox streams, same step policy.  3 trajectories make 3
    # jackknife blocks, so trajectory idx is alone in block idx and that
    # block's sum is the projector on its final state.  From fock(4) the
    # decay rate is 4.5, so some trajectory jumps.
    base = TrajectoryConfig(dt=1e-3, t_final=0.4, seed=31)
    for level in (0, 4):
        psi0 = fock_state(20, level)
        batch = run_batch(OSC, psi0, EnsembleConfig(n_trajectories=3, base=base, snapshot_times=(0.4,)))
        records = run_trajectories(OSC, psi0, base, range(3))
        assert any(record.jumps for record in records) == (level > 0)
        for idx, record in enumerate(records):
            assert np.max(np.abs(batch.block_sums[0, idx] - outer(record.final_state))) < 1e-9


# H = sx with no dissipation: the state rotates and no trajectory ever jumps
STILL = GeneratorSpec(hamiltonian=SX, couplings=(SX,), coeff=[[0.0]])


def still_config(n_steps):
    base = TrajectoryConfig(dt=1e-3, t_final=n_steps * 1e-3, seed=3, observables={"pop0": POP0})
    return EnsembleConfig(n_trajectories=2100, base=base, snapshot_times=(0.0, n_steps * 1e-3))


def test_trajectories_that_never_jump_share_one_state(monkeypatch):
    # one flow evaluation of psi0, then per step three Runge-Kutta stages and
    # the evaluation carried into the next step, each of the one shared state
    n_steps = 20
    widths = []
    real = _flow.rhs_block

    def spy(flow, psi):
        widths.append(psi.shape[1])
        return real(flow, psi)

    monkeypatch.setattr(_flow, "rhs_block", spy)
    batch = run_batch(STILL, E0_2, still_config(n_steps))
    assert widths == [1] * (1 + 4 * n_steps)
    assert batch.max_jump_prob == 0.0
    assert batch.block_counts.sum() == 2100


def test_ensemble_memory_does_not_grow_with_n_steps():
    # the uniforms are drawn WINDOW rows at a time whatever n_steps is
    peaks = {}
    for n_steps in (200, 2000):
        tracemalloc.start()
        try:
            run_batch(STILL, E0_2, still_config(n_steps))
            peaks[n_steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[2000] == pytest.approx(peaks[200], rel=0.1)


class DrawSpy:
    """A trajectory stream that records the rows of every uniform draw."""

    def __init__(self, stream, rows):
        self._stream = stream
        self._rows = rows

    def random(self, size):
        self._rows.append(size[0])
        return self._stream.random(size)


@pytest.mark.parametrize("runs", [1, 2])
def test_uniform_window_does_not_move_output(monkeypatch, runs):
    # 130 steps leave a partial last window at every window size tried; each
    # window size runs `runs` times in a row, and a repeat moves nothing either
    n_steps, n_traj = 130, 12
    base = TrajectoryConfig(dt=1e-2, t_final=1.3, seed=3, observables={"pop0": POP0})
    cfg = EnsembleConfig(n_trajectories=n_traj, base=base, snapshot_times=(0.0, 0.65, 1.3))
    keyed = _batch.trajectory_rng
    results = []
    for window in (_batch.WINDOW, 1, 7):
        monkeypatch.setattr(_batch, "WINDOW", window)
        for _ in range(runs):
            rows = []
            monkeypatch.setattr(_batch, "trajectory_rng", lambda seed, index: DrawSpy(keyed(seed, index), rows))
            results.append(run_batch(FLIP, E0_2, cfg))
            assert max(rows) == window and sum(rows) == n_steps * n_traj
    reference = results.pop(0)
    # some trajectory jumped: the flow alone never leaves |0>
    assert reference.block_sums[-1, :, 1, 1].real.sum() > 0
    assert len(results) == 3 * runs - 1
    for batch in results:
        assert batch.block_sums.tobytes() == reference.block_sums.tobytes()
        assert batch.obs_sum.tobytes() == reference.obs_sum.tobytes()
        assert batch.obs_sqdev.tobytes() == reference.obs_sqdev.tobytes()


def test_ensemble_stderr_matches_a_two_pass_reference():
    # at t = 0.03 a handful of 300 trajectories have jumped, so the variance
    # of x is about 2e-11 of its squared mean: E[x^2] - E[x]^2 would lose
    # most of its digits to cancellation
    params = OscillatorParams(levels=20, d11=0.3, d22=0.5, re_d12=0.1, im_d12=0.05)
    spec = oscillator_generator(params)
    psi0 = coherent_state(20, 1.0)
    base = TrajectoryConfig(dt=1e-3, t_final=0.03, seed=7, observables={"x": build_operators(params)[1]})
    report = run_ensemble(spec, psi0, EnsembleConfig(n_trajectories=300, base=base, snapshot_times=(0.03,)))
    values = [record.observables["x"][-1] for record in run_trajectories(spec, psi0, base, range(300))]
    mean = math.fsum(values) / 300
    reference = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / 300 / 299)
    assert 300 * reference**2 < 1e-10 * mean**2
    assert report.observable_stderrs[0, 0] == pytest.approx(reference, rel=1e-10)


def ensemble_config(n_traj, dt=1e-2, t_final=1.0, seed=5, observables=None):
    base = TrajectoryConfig(dt=dt, t_final=t_final, seed=seed, observables=observables or {})
    return EnsembleConfig(n_trajectories=n_traj, base=base, snapshot_times=(0.5, 1.0))


def test_ensemble_config_validation():
    base = TrajectoryConfig(dt=0.1, t_final=1.0, seed=0)
    with pytest.raises(ValueError):
        EnsembleConfig(n_trajectories=0, base=base, snapshot_times=(1.0,))
    for count in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="^n_trajectories must be a positive integer, got"):
            EnsembleConfig(n_trajectories=count, base=base, snapshot_times=(1.0,))
    with pytest.raises(ValueError):
        EnsembleConfig(n_trajectories=10, base=base, snapshot_times=(0.55,))
    with pytest.raises(ValueError):
        EnsembleConfig(n_trajectories=10, base=base, snapshot_times=(0.5, 0.5))
    cfg = EnsembleConfig(n_trajectories=10, base=base, snapshot_times=(0.5, 1.0))
    assert cfg.snapshot_steps == (5, 10)


def test_checked_configs_cannot_change():
    # run_batch repeats none of the checks these configs made, so no field may change after them
    base = TrajectoryConfig(dt=0.1, t_final=1.0, seed=0)
    cfg = EnsembleConfig(n_trajectories=10, base=base, snapshot_times=(0.5, 1.0))
    with pytest.raises(AttributeError):
        cfg.snapshot_steps = (50,)
    with pytest.raises(AttributeError):
        base.t_final = 0.5
    with pytest.raises(TypeError):
        base.observables["raise"] = np.array([[0.0, 1.0], [0.0, 0.0]])


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
    # the oracle is the analytic solution, with no error from the grid
    assert report.rho_oracle[1][0, 0].real == pytest.approx(0.5 * (1.0 + np.exp(-2.0)), abs=1e-14)


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


# The paper's frictional case: the full-rank oscillator, with friction
# lambda = 2 Im D12 / hbar = 0.1, from a displaced coherent state so that
# <x> moves.  Every other ensemble test uses a friction-free model.
FRICTION = OscillatorParams(levels=20, d11=0.3, d22=0.5, re_d12=0.1, im_d12=0.05)


@pytest.fixture(scope="module")
def friction_run():
    """run_ensemble on FRICTION from coherent(0.8-0.3i): M = 1000, dt = 1e-3, snapshots at 0.1 and 0.2, x observed."""
    x = build_operators(FRICTION)[1]
    base = TrajectoryConfig(dt=1e-3, t_final=0.2, seed=1, observables={"x": x})
    cfg = EnsembleConfig(n_trajectories=1000, base=base, snapshot_times=(0.1, 0.2))
    return run_ensemble(oscillator_generator(FRICTION), coherent_state(20, 0.8 - 0.3j), cfg), x


def test_run_ensemble_converges_with_friction(friction_run):
    report, _ = friction_run
    assert np.array_equal(report.times, [0.1, 0.2])
    assert np.all(report.trace_distances < 0.05)


def test_ensemble_mean_of_x_matches_the_oracle_with_friction(friction_run):
    # every trajectory carries the oracle's <x> (the test below), so the
    # standard error collapses to roundoff and the bound is absolute
    report, x = friction_run
    for s in range(report.times.size):
        oracle = np.trace(report.rho_oracle[s] @ x).real
        assert abs(report.observable_means[s, 0] - oracle) <= 1e-9


@pytest.mark.parametrize("dt", [1e-3, 4e-3])
def test_each_trajectory_carries_the_oracles_first_moments(dt):
    # A jump leaves <x> and <p> where they were, and the frictional flow moves
    # them by the master equation's linear moment equations (Molmer, Castin &
    # Dalibard, JOSA B 10, 524 (1993)), so every trajectory's own <x> and <p>
    # equal the oracle's at every step, whatever its jumps.
    spec = oscillator_generator(FRICTION)
    _, x, p = build_operators(FRICTION)
    psi0 = coherent_state(20, 0.8 - 0.3j)
    cfg = TrajectoryConfig(dt=dt, t_final=0.4, seed=1, observables={"x": x, "p": p})
    records = run_trajectories(spec, psi0, cfg, range(16))
    assert any(record.jumps for record in records)
    rhos = master_evolve(spec, outer(psi0), cfg.times)
    for name, op in (("x", x), ("p", p)):
        oracle = np.einsum("ij,tji->t", op, rhos).real
        assert max(np.max(np.abs(record.observables[name] - oracle)) for record in records) <= 1e-6
