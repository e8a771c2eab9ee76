"""Single-trajectory behavior: determinism, jump statistics, event logs.

The two-level flip model (H = 0, A = sx, D = [[1/2]]) has constant decay
rate w = 1 from either basis state and a frozen flow there, so its
inter-jump waits are exponential with unit rate up to the first-order
discretization of the jump clock on the dt grid.  That makes it the one
model where the waiting-time distribution has a clean reference.
"""

import warnings

import numpy as np
import pytest
from scipy import stats

from qjump import _batch, _flow, trajectory
from qjump._batch import jump_step, run_batch, select_channel
from qjump._flow import compile_flow, rhs_block
from qjump.cli import main
from qjump.ensemble import EnsembleConfig, run_ensemble
from qjump.errors import DimensionMismatch, EmptyChannels, NegativeRate, StepTooLarge
from qjump.generator import GeneratorSpec
from qjump.oscillator import OscillatorParams, fock_state, oscillator_generator
from qjump.trajectory import (
    JumpEvent,
    TrajectoryConfig,
    run_trajectories,
    run_trajectory,
    trajectory_rng,
    write_event_log,
)
from qjump.unraveling import jump_channels

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
FLIP = GeneratorSpec(hamiltonian=np.zeros((2, 2)), couplings=(SX,), coeff=[[0.5]])
OSC = oscillator_generator(OscillatorParams(levels=20, d22=0.5))

E0_2 = np.array([1.0, 0.0], dtype=np.complex128)

# Three levels: |0> decays into |1> at rate 1/2 and into |2> at rate 1, each
# of |1> and |2> back into |0>, and the flow leaves every basis state where
# it is.  From |0> the channels in ascending rate are |1> and |2>, so a
# second uniform below 1/3 selects |1> and one above it |2>.
A01 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], dtype=np.complex128)
A02 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], dtype=np.complex128)
VEE = GeneratorSpec(hamiltonian=np.zeros((3, 3)), couplings=(A01, A02), coeff=[[0.25, 0.0], [0.0, 0.5]])
VEE0 = np.eye(3, dtype=np.complex128)[0]


def flip_config(dt=1e-3, t_final=1.0, seed=42):
    return TrajectoryConfig(dt=dt, t_final=t_final, seed=seed)


def flip_ensemble(n_trajectories, dt, t_final, seed=3):
    """A flip-model ensemble of n_trajectories on the grid of flip_config, with one snapshot at t_final."""
    return EnsembleConfig(n_trajectories=n_trajectories, base=flip_config(dt, t_final, seed), snapshot_times=(t_final,))


def policy_step(spec, psi, dt, u, step=0, first=0):
    """One step of the shared jump policy, column j of the (d, M) block psi holding its own state.

    Returns (next block, one column per trajectory; largest probability; jumps).
    """
    flow = compile_flow(spec)
    owner = np.arange(psi.shape[1])
    states, owner, _, (prob, _), jumps = jump_step(
        flow, psi, owner, rhs_block(flow, psi), dt, u, step, range(first, first + psi.shape[1])
    )
    return states[:, owner], prob, jumps


def step_once(spec, psi, dt, u1, u2):
    """One step of the shared jump policy on a single state: (next state, largest probability, jumps)."""
    psi_next, prob, jumps = policy_step(spec, psi[:, None], dt, np.array([[u1], [u2]]))
    return psi_next[:, 0], prob, jumps


def scripted_uniforms(monkeypatch, script, rest=(0.99, 0.5)):
    """Make trajectory index draw the pairs script[index] at t = 0 and after its first jumps, then rest.

    Pair n is the one a trajectory draws after its n-th jump.  A pair
    (0.0, b) jumps on the first step with w > 0, through the channel that b
    selects; rest's 0.99 sets a threshold of 4.6, more decay than any of
    these runs integrates.
    """

    def scripted(seed, keys, blocks):
        out = np.empty((4, len(keys)))
        for j, (key, block) in enumerate(zip(keys.tolist(), np.asarray(blocks).tolist())):
            pairs = list(script.get(key, ()))[2 * block : 2 * block + 2]
            out[:, j] = np.ravel(pairs + [rest] * (2 - len(pairs)))
        return out

    monkeypatch.setattr(_batch, "philox_uniforms", scripted)


def forced_uniforms(monkeypatch, u1, u2):
    """Make run_trajectory draw the pair (u1, u2) at t = 0 and after every jump."""
    scripted_uniforms(monkeypatch, {}, rest=(u1, u2))


def test_config_validation():
    with pytest.raises(ValueError):
        TrajectoryConfig(dt=0.0, t_final=1.0, seed=0)
    with pytest.raises(ValueError):
        TrajectoryConfig(dt=0.3, t_final=1.0, seed=0)  # not on the grid
    with pytest.raises(ValueError):
        TrajectoryConfig(dt=1e-3, t_final=1.0, seed=-1)
    with pytest.raises(ValueError, match="^dt must be positive and finite, got inf$"):
        TrajectoryConfig(dt=float("inf"), t_final=1.0, seed=0)
    for seed in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\^64\), got"):
            TrajectoryConfig(dt=1e-3, t_final=1.0, seed=seed)
    cfg = TrajectoryConfig(dt=0.25, t_final=1.0, seed=0)
    assert cfg.n_steps == 4
    assert np.allclose(cfg.times, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_rng_streams():
    a = trajectory_rng(7, 3).random(4)
    b = trajectory_rng(7, 3).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, trajectory_rng(7, 4).random(4))
    assert not np.array_equal(a, trajectory_rng(3, 7).random(4))


def test_philox_uniforms_read_each_stream_by_block():
    # block b of the stream (seed, index) holds doubles 4b ... 4b + 3 of trajectory_rng(seed, index)
    indices, blocks = (0, 1, 2**63, 2**64 - 1), (0, 1, 1000)
    keys = np.array([index for index in indices for _ in blocks], dtype=np.uint64)
    at = np.array([block for _ in indices for block in blocks], dtype=np.uint64)
    for seed in (0, 7, 2**64 - 1):
        got = _batch.philox_uniforms(seed, keys, at)
        assert got.shape == (4, keys.size)
        for j, (index, block) in enumerate(zip(keys.tolist(), at.tolist())):
            assert got[:, j].tobytes() == trajectory_rng(seed, index).random(4 * (block + 1))[-4:].tobytes()


def test_clock_reads_each_stream_as_one_pair_per_jump():
    # a plain reference clock on VEE, whose basis states are frozen and keep
    # their rates: 1.5 from |0> (a second uniform below 1/3 picks |1>), 1/2
    # from |1> and 1 from |2>, each back into |0>.  Trajectory j reads
    # pair 0 of its stream at t = 0 and pair n after its n-th jump
    dt, n_steps = 0.01, 1000
    cfg = TrajectoryConfig(dt=dt, t_final=dt * n_steps, seed=11)
    records = run_trajectories(VEE, VEE0, cfg, range(8))
    for j, record in enumerate(records):
        pairs = trajectory_rng(cfg.seed, j).random(2 * n_steps).reshape(-1, 2)
        level, n, expected = 0, 0, []
        residual = -np.log1p(-pairs[0, 0])
        for k in range(1, n_steps + 1):
            rate = (1.5, 0.5, 1.0)[level]
            if residual < rate * dt:
                channel = int(pairs[n, 1] * 1.5 >= 0.5) if level == 0 else 0
                level = 1 + channel if level == 0 else 0
                expected.append((k, channel))
                n += 1
                residual = -np.log1p(-pairs[n, 0])
            else:
                residual -= rate * dt
        assert len(expected) >= 5  # pairs 0 ... 5 span three blocks of the stream
        assert [round(event.time / dt) for event in record.jumps] == [k for k, _ in expected]
        assert [event.target_index for event in record.jumps] == [channel for _, channel in expected]


def test_flip_survival_is_the_exponential_of_the_integrated_rate():
    # w = 1 on every step, so a trajectory makes no jump in 10 steps of 0.08
    # with probability exp(-0.8) = 0.4493; a Bernoulli trial with probability
    # w dt per step would give 0.92^10 = 0.4344, 8.5 standard errors below
    m = 80000
    cfg = TrajectoryConfig(dt=0.08, t_final=0.8, seed=1)
    jumped = np.zeros(m, dtype=bool)
    for _, _, _, jumps, _ in _batch.integrate(compile_flow(FLIP), E0_2, cfg, range(m)):
        jumped[[j for j, _, _ in jumps]] = True
    survival = np.exp(-0.8)
    sigma = np.sqrt(survival * (1.0 - survival) / m)
    assert abs(np.mean(~jumped) - survival) < 4.0 * sigma


def test_run_is_bitwise_deterministic():
    obs = {"pop0": np.diag([1.0, 0.0]).astype(np.complex128)}
    cfg = TrajectoryConfig(dt=1e-2, t_final=2.0, seed=5, observables=obs)
    first = run_trajectory(FLIP, E0_2, cfg)
    second = run_trajectory(FLIP, E0_2, cfg)
    assert np.array_equal(first.observables["pop0"], second.observables["pop0"])
    assert np.array_equal(first.final_state, second.final_state)
    assert [e.time for e in first.jumps] == [e.time for e in second.jumps]
    third = run_trajectory(FLIP, E0_2, cfg, 1)
    assert not np.array_equal(first.observables["pop0"], third.observables["pop0"])


def test_pure_hamiltonian_trajectory_is_unitary():
    params = OscillatorParams(levels=8, d22=0.0)
    spec = oscillator_generator(params)
    psi0 = (fock_state(8, 0) + fock_state(8, 3)) / np.sqrt(2.0)
    h0 = np.array(spec.hamiltonian)
    cfg = TrajectoryConfig(dt=1e-3, t_final=0.5, seed=0, observables={"H0": h0})
    record = run_trajectory(spec, psi0, cfg)
    assert record.jumps == []
    energy = record.observables["H0"]
    assert np.max(np.abs(energy - energy[0])) < 1e-10
    # H0 is diagonal, so the exact propagator is a pure phase per level
    exact = np.exp(-1j * np.diag(h0).real * 0.5) * psi0
    assert abs(np.vdot(exact, record.final_state)) > 1.0 - 1e-9
    assert np.linalg.norm(record.final_state) == pytest.approx(1.0, abs=1e-12)


def test_observables_recorded_on_full_grid():
    obs = {"pop0": np.diag([1.0, 0.0]).astype(np.complex128)}
    cfg = TrajectoryConfig(dt=0.1, t_final=1.0, seed=1, observables=obs)
    record = run_trajectory(FLIP, E0_2, cfg)
    assert record.observables["pop0"].shape == (11,)
    assert record.observables["pop0"][0] == pytest.approx(1.0)


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        run_trajectory(FLIP, np.array([1.0, 0.0, 0.0]), flip_config())
    bad_obs = {"x": np.zeros((3, 3), dtype=np.complex128)}
    with pytest.raises(DimensionMismatch):
        run_trajectory(FLIP, E0_2, TrajectoryConfig(dt=0.1, t_final=1.0, seed=0, observables=bad_obs))


def test_grid_step():
    assert trajectory.grid_step(0.3, 0.1) == 3
    assert trajectory.grid_step(0.0, 0.1) == 0
    assert trajectory.grid_step(-0.2, 0.1) == -2
    assert trajectory.grid_step(0.25, 0.1) is None
    assert trajectory.grid_step(float("nan"), 0.1) is None
    assert trajectory.grid_step(float("inf"), 0.1) is None


def test_maybe_jump_clock_contract(monkeypatch):
    # ground state decays at w = 1/2, so w dt = 5e-4 at dt = 1e-3: a residual
    # of 5.1e-4 outlasts the step and one of 4.9e-4 ends in it
    psi = fock_state(20, 0)
    u = np.array([[5.1e-4], [0.5]])
    _, _, jumps = policy_step(OSC, psi[:, None], 1e-3, u)
    assert jumps == []
    assert u[0, 0] == pytest.approx(1e-5, abs=1e-12)  # the step spent w dt of it
    # the jump lands on fock(1) at the start of the step, which then flows for dt
    landed = _flow.rk4_step_block(compile_flow(OSC), fock_state(20, 1)[:, None], 1e-3)[0][:, 0]
    target, _, jumps = step_once(OSC, psi, 1e-3, u1=4.9e-4, u2=0.5)
    assert abs(np.vdot(landed, target)) >= 1.0 - 1e-10
    assert jumps == [(0, jumps[0][1], 0)]
    assert jumps[0][1] == pytest.approx(0.5, abs=1e-10)
    # the same through run_trajectory, whose event carries the time the step
    # lands on: a pair (a, b) sets the threshold -log(1 - a), about a here
    cfg = TrajectoryConfig(dt=1e-3, t_final=1e-3, seed=0)
    forced_uniforms(monkeypatch, 5.1e-4, 0.5)
    assert run_trajectory(OSC, psi, cfg).jumps == []
    forced_uniforms(monkeypatch, 4.9e-4, 0.5)
    record = run_trajectory(OSC, psi, cfg)
    assert abs(np.vdot(landed, record.final_state)) >= 1.0 - 1e-10
    (event,) = record.jumps
    assert event == JumpEvent(time=1e-3, channel_rate=event.channel_rate, target_index=0)
    assert event.channel_rate == pytest.approx(0.5, abs=1e-10)
    # a trajectory whose pair sets the threshold E jumps on the first step k
    # with E < sum of w dt over steps 1 ... k, then draws its next pair: the
    # flip model's w dt is 0.01 on every step at dt = 0.01, so every pair
    # (1 - e^-E, b) makes a jump every k steps
    cfg = TrajectoryConfig(dt=0.01, t_final=0.2, seed=0)
    for threshold, k in [(0.0, 1), (0.015, 2), (0.035, 4), (0.0999, 10)]:
        forced_uniforms(monkeypatch, -np.expm1(-threshold), 0.5)
        times = [event.time for event in run_trajectory(FLIP, E0_2, cfg).jumps]
        assert times == pytest.approx([n * k * 0.01 for n in range(1, 20 // k + 1)], abs=1e-12)


def test_maybe_jump_probability_guards(monkeypatch):
    psi = fock_state(20, 9)  # w = 2 * 0.5 * 19/2 = 9.5
    _, prob, jumps = step_once(OSC, psi, 0.02, u1=0.99, u2=0.5)
    assert prob == pytest.approx(0.19, rel=1e-9)
    assert jumps == []
    with pytest.raises(StepTooLarge):
        step_once(OSC, psi, 0.06, u1=0.99, u2=0.5)
    forced_uniforms(monkeypatch, 0.99, 0.5)
    with pytest.warns(UserWarning, match="trajectory 0 at t=0.02: jump probability 0.190"):
        record = run_trajectory(OSC, psi, TrajectoryConfig(dt=0.02, t_final=0.02, seed=0))
    assert record.jumps == []
    with pytest.raises(StepTooLarge):
        run_trajectory(OSC, psi, TrajectoryConfig(dt=0.06, t_final=0.06, seed=0))


def count_warnings(run):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run()
    return result, len([w for w in caught if issubclass(w.category, UserWarning)])


def test_trajectory_warns_once_per_run():
    # the flip model's rate is 1 everywhere, so every step of 0.2 is above the threshold
    record, n_warnings = count_warnings(lambda: run_trajectory(FLIP, E0_2, flip_config(dt=0.2, t_final=1.0)))
    assert len(record.times) == 6
    assert n_warnings == 1


@pytest.mark.parametrize("runs", [1, 2])
def test_batch_warns_once_per_run(runs):
    # once per run, not once per process: a second run warns again
    for _ in range(runs):
        result, n_warnings = count_warnings(lambda: run_batch(FLIP, E0_2, flip_ensemble(8, dt=0.2, t_final=1.0)))
        assert result.max_jump_prob == pytest.approx(0.2)
        assert n_warnings == 1


def rate_by_level(monkeypatch, rates):
    """Make the flow report rate rates[n] for every state that has reached level n."""
    real = _flow.rhs_block

    def fake(flow, psi):
        rhs, rate = real(flow, psi)
        for level, value in rates.items():
            rate = np.where(np.abs(psi[level]) > 0.5, value, rate)
        return rhs, rate

    monkeypatch.setattr(_flow, "rhs_block", fake)


@pytest.mark.parametrize("runs", [1, 2])
def test_batch_warning_names_the_trajectory_and_time(monkeypatch, runs):
    # of 7 trajectories, indices 1 and 5 jump on their first step, each to
    # its own state above the threshold, and index 5 to the highest; each of
    # `runs` runs in a row names the same trajectory
    scripted_uniforms(monkeypatch, {1: [(0.0, 0.2)], 5: [(0.0, 0.9)]})
    rate_by_level(monkeypatch, {1: 2.5, 2: 3.0})
    for _ in range(runs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_batch(VEE, VEE0, flip_ensemble(7, dt=0.05, t_final=0.25))
        messages = [str(w.message) for w in caught if issubclass(w.category, UserWarning)]
        assert len(messages) == 1
        assert messages[0].startswith("trajectory 5 at t=0.1: jump probability 0.150 per step exceeds 0.1")
        assert result.max_jump_prob == pytest.approx(0.15)


@pytest.mark.parametrize("entry", ["run_batch", "run_ensemble", "run_trajectories", "run_trajectory"])
def test_jump_probability_warning_points_at_the_caller(entry):
    # the flip model's rate is 1 everywhere, so every step of 0.2 is above the threshold
    cfg = flip_config(dt=0.2, t_final=1.0)
    calls = {
        "run_batch": lambda: run_batch(FLIP, E0_2, flip_ensemble(8, dt=0.2, t_final=1.0)),
        "run_ensemble": lambda: run_ensemble(FLIP, E0_2, EnsembleConfig(n_trajectories=8, base=cfg, snapshot_times=(1.0,))),
        "run_trajectories": lambda: run_trajectories(FLIP, E0_2, cfg, (0, 1)),
        "run_trajectory": lambda: run_trajectory(FLIP, E0_2, cfg),
    }
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        calls[entry]()
    (warning,) = [w for w in caught if issubclass(w.category, UserWarning)]
    assert warning.filename == __file__


def test_select_channel_cumulative_scan():
    rates = np.array([0.2, 0.3])
    assert select_channel(rates, 0.0) == 0
    assert select_channel(rates, 0.39) == 0
    assert select_channel(rates, 0.41) == 1
    assert select_channel(rates, 0.999999) == 1
    with pytest.raises(EmptyChannels):
        select_channel(np.zeros(0), 0.5)


def test_oversized_step_rejected_by_norm_drift():
    psi = fock_state(20, 0)
    with pytest.raises(StepTooLarge):
        step_once(OSC, psi, 5.0, u1=0.99, u2=0.5)
    # zero decay rate, so the jump-probability guard passes and the
    # Runge-Kutta step's norm-drift guard is what rejects the step
    unitary = oscillator_generator(OscillatorParams(levels=8, d22=0.0))
    block = np.repeat(((fock_state(8, 0) + fock_state(8, 3)) / np.sqrt(2.0))[:, None], 3, axis=1)
    with pytest.raises(StepTooLarge, match="trajectory 7 at t=10:"):
        policy_step(unitary, block, 5.0, np.full((2, 3), 0.5), step=1, first=7)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_state_column_is_rejected(bad):
    block = np.repeat(fock_state(20, 0)[:, None], 3, axis=1)
    block[4, 1] = bad
    # the rate of the bad column is NaN, so the jump-probability guard trips
    with pytest.raises(StepTooLarge, match="trajectory 11 at t=0.003: jump probability nan"):
        with np.errstate(invalid="ignore"):
            policy_step(OSC, block, 1e-3, np.full((2, 3), 0.5), step=2, first=10)


@pytest.mark.parametrize("dt", [np.nan, np.inf])
def test_non_finite_jump_probability_is_rejected(dt):
    # w = 0.5 from the ground state, so the probability w dt is nan or inf
    with pytest.raises(StepTooLarge, match="jump probability"):
        step_once(OSC, fock_state(20, 0), dt, u1=0.99, u2=0.5)


# Error location.  Under seed 33, with 8 flip-model trajectories and w dt
# 0.05 per step, trajectories 6, 2 and 3 jump within 6 steps, 6 first, on
# step 2.  The batch engine must report the trajectory index of the
# column, and the time the failing step lands on.
LOC_DT, LOC_STEPS, LOC_SEED = 0.05, 6, 33


def first_jump():
    """(trajectory, step) of the first jump in the engine's order: step, then column.

    Trajectory k's first pair sets the threshold E = -log(1 - a), and the
    flip model spends LOC_DT of it per step, so k first jumps on step
    floor(E / LOC_DT).
    """
    thresholds = np.array([-np.log1p(-trajectory_rng(LOC_SEED, k).random()) for k in range(8)])
    steps = np.floor(thresholds / LOC_DT).astype(int)
    traj = int(steps.argmin())
    assert steps[traj] < LOC_STEPS, "no jump"
    return traj, int(steps[traj])


def run_located(error):
    with pytest.raises(error) as info:
        run_batch(FLIP, E0_2, flip_ensemble(8, dt=LOC_DT, t_final=LOC_DT * LOC_STEPS, seed=LOC_SEED))
    return str(info.value)


def rate_after_jump(monkeypatch, value):
    """Make the flow report rate `value` for every column that has jumped to |1>."""
    real = _flow.rhs_block

    def fake(flow, psi):
        rhs, rate = real(flow, psi)
        return rhs, np.where(np.abs(psi[1]) > 0.5, value, rate)

    monkeypatch.setattr(_flow, "rhs_block", fake)


def no_channels(flow, psi):
    """channels_block with every channel of every column filtered out."""
    return [(np.zeros(0), np.zeros((psi.shape[0], 0), dtype=np.complex128))] * psi.shape[1]


def test_empty_channels_error_names_trajectory_and_time(monkeypatch):
    traj, step = first_jump()
    assert (traj, step) == (6, 2)
    monkeypatch.setattr(_flow, "channels_block", no_channels)
    message = run_located(EmptyChannels)
    assert f"trajectory {traj} at t={(step + 1) * LOC_DT:.12g}:" in message
    # the single-trajectory engine names the same place
    cfg = TrajectoryConfig(dt=LOC_DT, t_final=LOC_DT * LOC_STEPS, seed=LOC_SEED)
    with pytest.raises(EmptyChannels) as info:
        run_trajectory(FLIP, E0_2, cfg, traj)
    assert f"trajectory {traj} at t={(step + 1) * LOC_DT:.12g}:" in str(info.value)


def test_block_error_names_the_index_of_its_column(monkeypatch):
    # index 0 does not jump within the window and index 2 jumps after 6, so the first jump, and the error, is 6's
    traj, step = first_jump()
    monkeypatch.setattr(_flow, "channels_block", no_channels)
    cfg = TrajectoryConfig(dt=LOC_DT, t_final=LOC_DT * LOC_STEPS, seed=LOC_SEED)
    with pytest.raises(EmptyChannels, match=f"trajectory {traj} at t={(step + 1) * LOC_DT:.12g}:"):
        run_trajectories(FLIP, E0_2, cfg, (0, 2, traj))


def test_negative_rate_error_names_trajectory_and_time(monkeypatch):
    traj, step = first_jump()
    rate_after_jump(monkeypatch, -1.0)
    message = run_located(NegativeRate)
    # the jump lands on step + 1, the failing step after it on step + 2
    assert f"trajectory {traj} at t={(step + 2) * LOC_DT:.12g}:" in message


def test_step_too_large_error_names_trajectory_and_time(monkeypatch):
    traj, step = first_jump()
    rate_after_jump(monkeypatch, 100.0)
    message = run_located(StepTooLarge)
    assert f"trajectory {traj} at t={(step + 2) * LOC_DT:.12g}:" in message


def first_waits(dt, t_final, n_traj, seed):
    """Time of the first jump per trajectory, exactly exponential at rate 1.

    Only the first wait is used: pooling all completed inter-jump waits
    from a finite window over-samples short waits (the censored stretch
    after the last jump preferentially swallows long ones).  The window
    is long enough that the missing-first-jump probability e^{-t_final}
    is far below the resolution of the test.
    """
    records = run_trajectories(FLIP, E0_2, TrajectoryConfig(dt=dt, t_final=t_final, seed=seed), range(n_traj))
    return np.asarray(sorted(record.jumps[0].time for record in records if record.jumps))


def test_flip_waiting_times_are_exponential():
    waits = first_waits(dt=1e-3, t_final=10.0, n_traj=1000, seed=2024)
    assert waits.size >= 999
    assert waits.mean() == pytest.approx(1.0, rel=0.1)
    result = stats.kstest(waits, "expon")
    assert result.pvalue > 0.01
    # halving dt only sharpens the discretization, never degrades it
    finer = first_waits(dt=5e-4, t_final=10.0, n_traj=500, seed=77)
    assert stats.kstest(finer, "expon").pvalue > 0.01


def test_flip_jump_rate_is_constant():
    records = run_trajectories(FLIP, E0_2, TrajectoryConfig(dt=1e-3, t_final=2.0, seed=9), range(100))
    rates = [event.channel_rate for record in records for event in record.jumps]
    assert len(rates) > 100
    assert np.max(np.abs(np.asarray(rates) - 1.0)) < 1e-9


BLOCK_INDICES = (0, 2, 5)


def block_config():
    # from fock(4) the decay rate is 4.5, so each trajectory jumps about twice
    observables = {"number": np.diag(np.arange(20.0)), "x": OSC.couplings[1]}
    return TrajectoryConfig(dt=1e-3, t_final=0.4, seed=31, observables=observables)


def jump_list(record):
    return [(event.time, event.target_index) for event in record.jumps]


def test_block_of_indices_matches_each_index_alone():
    cfg = block_config()
    psi0 = fock_state(20, 4)
    records = run_trajectories(OSC, psi0, cfg, BLOCK_INDICES)
    assert len(records) == len(BLOCK_INDICES)
    assert any(record.jumps for record in records)
    for index, record in zip(BLOCK_INDICES, records):
        alone = run_trajectory(OSC, psi0, cfg, index)
        assert jump_list(record) == jump_list(alone)
        np.testing.assert_array_equal(record.times, alone.times)
        for name, series in alone.observables.items():
            assert np.max(np.abs(record.observables[name] - series)) < 1e-8
        assert np.max(np.abs(record.final_state - alone.final_state)) < 1e-8


# Three levels: |0> is frozen and decays into |1> at rate 1, and H_12 = 40
# turns |1> into |2> far too fast for dt = 0.1, so a Runge-Kutta step from
# |1> drifts off unit norm; at dt = 0.01 it drifts by 3e-5.  Under seed 5 and
# dt = 0.01 trajectory 0 jumps into |1> on the step to t=1.33, back into |0>
# on the step to t=1.8 and into |1> again on the step to t=2.09, and
# trajectory 5 jumps into |1> on the step to t=2.62.
H12 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 40.0], [0.0, 40.0, 0.0]], dtype=np.complex128)
TRIO = GeneratorSpec(hamiltonian=H12, couplings=(A01,), coeff=[[0.5]])
TRIO_CONFIG = """
[model]
type = explicit
dim = 3
hamiltonian = 0,0 0,0 0,0  0,0 0,0 40,0  0,0 40,0 0,0
couplings = 1
coupling_1 = 0,0 1,0 0,0  1,0 0,0 0,0  0,0 0,0 0,0
coeff = 0.5,0

[initial]
state = fock(0)

[run]
dt = 0.01
t_final = 3.0
n_trajectories = 1
seed = 5
trajectory_indices = 0 5

[output]
directory = {out}
"""


def test_a_state_every_holder_jumps_from_is_never_judged():
    psi = np.eye(3, dtype=np.complex128)[:, [1, 0]]  # |1> drifts, |0> is frozen
    with pytest.raises(StepTooLarge, match="trajectory 0 at t=0.1: pre-renormalization norm drifted by"):
        policy_step(TRIO, psi, 0.1, np.array([[0.99, 0.99], [0.5, 0.5]]))
    psi_next, _, jumps = policy_step(TRIO, psi, 0.1, np.array([[0.0, 0.99], [0.5, 0.5]]))
    assert [j for j, _, _ in jumps] == [0]
    # the jump's target |0> takes the step and is judged; the |1> it left is not
    target = jump_channels(TRIO, psi[:, 0]).channels[0].target
    np.testing.assert_array_equal(psi_next[:, 0], _flow.rk4_step_block(compile_flow(TRIO), target[:, None], 0.1)[0][:, 0])
    np.testing.assert_array_equal(psi_next[:, 1], psi[:, 1])


def test_a_trajectory_does_not_fail_for_its_neighbours_step():
    cfg = TrajectoryConfig(dt=0.01, t_final=3.0, seed=5)
    psi0 = np.eye(3)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = run_trajectories(TRIO, psi0, cfg, (0, 5))
        alone = [run_trajectory(TRIO, psi0, cfg, index) for index in (0, 5)]
    assert [jump_list(record) for record in records] == [jump_list(record) for record in alone]
    assert jump_list(records[0]) == [(pytest.approx(1.33), 0), (pytest.approx(1.8), 0), (pytest.approx(2.09), 0)]
    assert jump_list(records[1]) == [(pytest.approx(2.62), 0)]


def test_cli_trajectory_block_with_a_jumping_neighbour_succeeds(tmp_path):
    path = tmp_path / "trio.cfg"
    path.write_text(TRIO_CONFIG.format(out=tmp_path / "out"))
    assert main(["trajectory", "--config", str(path)]) == 0
    assert (tmp_path / "out" / "jumps_00005.csv").exists()


def vee_config():
    return TrajectoryConfig(dt=0.05, t_final=0.25, seed=0, observables={"p2": np.diag([0.0, 0.0, 1.0])})


def assert_each_index_alone(spec, psi0, cfg, indices):
    """The records of indices as one block equal those of each index run alone; returns the block's."""
    records = run_trajectories(spec, psi0, cfg, indices)
    for index, record in zip(indices, records):
        alone = run_trajectory(spec, psi0, cfg, index)
        assert jump_list(record) == jump_list(alone)
        np.testing.assert_allclose(record.observables["p2"], alone.observables["p2"], rtol=0, atol=1e-12)
        np.testing.assert_allclose(record.final_state, alone.final_state, rtol=0, atol=1e-12)
    return records


def test_a_step_in_which_every_column_jumps(monkeypatch):
    # every column jumps on step 0 from the one shared |0> into one shared
    # |1>; on step 2 indices 0 and 1 jump from |1> and index 2 from |0>, so
    # no column keeps a state for the Runge-Kutta step.  |1>'s w dt is
    # 0.025, so a threshold of 0.0375 after the first jump outlasts step 1
    # and ends in step 2
    later = (-np.expm1(-0.0375), 0.5)
    scripted_uniforms(
        monkeypatch,
        {
            0: [(0.0, 0.2), later],
            1: [(0.0, 0.2), later],
            2: [(0.0, 0.2), (0.0, 0.5), (0.0, 0.9)],
        },
    )
    records = assert_each_index_alone(VEE, VEE0, vee_config(), (0, 1, 2))
    at = [pytest.approx(k * 0.05) for k in range(4)]
    assert [jump_list(record) for record in records] == [
        [(at[1], 0), (at[3], 0)],
        [(at[1], 0), (at[3], 0)],
        [(at[1], 0), (at[2], 0), (at[3], 1)],
    ]
    flow = compile_flow(VEE)
    states = VEE0[:, None]
    states, owner, _, _, jumps = jump_step(
        flow, states, np.zeros(3, dtype=np.intp), rhs_block(flow, states), 0.05, np.zeros((2, 3)), 0, range(3)
    )
    assert [(j, chosen) for j, _, chosen in jumps] == [(0, 0), (1, 0), (2, 0)]
    np.testing.assert_array_equal(states, np.eye(3, dtype=np.complex128)[:, [1]])
    np.testing.assert_array_equal(owner, [0, 0, 0])


@pytest.mark.parametrize("u2, channels", [((0.2, 0.25), (0, 0)), ((0.2, 0.9), (0, 1))])
def test_columns_that_jump_from_one_state_share_a_target_only_through_one_channel(monkeypatch, u2, channels):
    # indices 0 and 1 jump from the shared |0> on step 0; index 2 stays there
    flow = compile_flow(VEE)
    states = VEE0[:, None]
    u = np.array([[0.0, 0.0, 0.99], [u2[0], u2[1], 0.5]])
    states, owner, _, _, jumps = jump_step(
        flow, states, np.zeros(3, dtype=np.intp), rhs_block(flow, states), 0.05, u, 0, range(3)
    )
    assert [(j, chosen) for j, _, chosen in jumps] == [(0, channels[0]), (1, channels[1])]
    assert states.shape[1] == 1 + len(set(channels))
    assert (owner[0] == owner[1]) == (channels[0] == channels[1])
    np.testing.assert_array_equal(states[:, owner[2]], VEE0)
    for j, chosen in zip((0, 1), channels):
        np.testing.assert_array_equal(states[:, owner[j]], np.eye(3, dtype=np.complex128)[1 + chosen])
    scripted_uniforms(monkeypatch, {0: [(0.0, u2[0])], 1: [(0.0, u2[1])]})
    records = assert_each_index_alone(VEE, VEE0, vee_config(), (0, 1, 2))
    at = pytest.approx(0.05)
    assert [jump_list(record) for record in records] == [[(at, channels[0])], [(at, channels[1])], []]


def test_each_distinct_state_takes_the_flow_step_once(monkeypatch):
    # from one psi0, a state exists per (step, source, channel) of a jump
    # made so far, plus psi0's own branch, and never more than one per column
    n_trajectories = 256
    widths: list[int] = []
    steps: list[tuple[list[int], int]] = []  # (widths of a step's flow evaluations, jump events made by its end)
    made = 0
    real_rhs, real_step = _flow.rhs_block, _batch.jump_step

    def rhs(flow, psi):
        widths.append(psi.shape[1])
        return real_rhs(flow, psi)

    def step(flow, states, owner, *rest):
        nonlocal made
        out = real_step(flow, states, owner, *rest)
        made += len({(int(owner[j]), chosen) for j, _, chosen in out[4]})
        steps.append((widths[:], made))
        widths.clear()
        return out

    monkeypatch.setattr(_flow, "rhs_block", rhs)
    monkeypatch.setattr(_batch, "jump_step", step)
    base = TrajectoryConfig(dt=5e-3, t_final=0.5, seed=7)
    run_batch(OSC, fock_state(20, 0), EnsembleConfig(n_trajectories=n_trajectories, base=base, snapshot_times=(0.5,)))
    assert len(steps) == base.n_steps
    first = next(k for k, (_, events) in enumerate(steps) if events)
    assert all(width == 1 for seen, _ in steps[:first] for width in seen)
    for seen, events in steps:
        assert max(seen) <= min(n_trajectories, 1 + events)
    assert 10 < made < n_trajectories


def test_block_rejects_a_repeated_index():
    with pytest.raises(ValueError, match="repeat"):
        run_trajectories(FLIP, E0_2, flip_config(), (3, 1, 3))


@pytest.mark.parametrize("index", [2.5, float("inf"), float("nan"), -1])
def test_trajectory_rejects_an_index_that_names_no_stream(index):
    with pytest.raises(ValueError, match=r"^trajectory index must be an integer in \[0, 2\^64\), got"):
        run_trajectory(FLIP, E0_2, flip_config(), index)


def test_block_rejects_an_empty_index_list():
    with pytest.raises(ValueError, match="at least one trajectory index"):
        run_trajectories(FLIP, E0_2, flip_config(), ())


def test_block_warns_once_naming_the_largest_probability(monkeypatch):
    # only index 4 is pushed above the warning threshold: it jumps to |1> on
    # its first step, where the flow reports rate 3
    scripted_uniforms(monkeypatch, {4: [(0.0, 0.5)]})
    rate_by_level(monkeypatch, {1: 3.0})
    cfg = TrajectoryConfig(dt=0.1, t_final=0.5, seed=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_trajectories(OSC, fock_state(20, 0), cfg, (2, 4))
    messages = [str(w.message) for w in caught if issubclass(w.category, UserWarning)]
    assert len(messages) == 1
    assert messages[0].startswith("trajectory 4 at t=0.2: jump probability 0.300")


def test_event_log_format(tmp_path):
    cfg = TrajectoryConfig(dt=0.05, t_final=2.0, seed=12)
    record = run_trajectory(FLIP, E0_2, cfg)
    assert record.jumps  # seed chosen so at least one jump fires
    path = tmp_path / "jumps.csv"
    write_event_log(record, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "time,event_type,channel_rate,target_index"
    assert len(lines) == 1 + cfg.n_steps
    jump_rows = [line for line in lines[1:] if ",jump," in line]
    assert len(jump_rows) == len(record.jumps)
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 4
        assert fields[1] in ("step", "jump")
        if fields[1] == "step":
            assert fields[2] == "" and fields[3] == ""
        else:
            assert float(fields[2]) == pytest.approx(1.0, abs=1e-9)
            assert fields[3] == "0"
