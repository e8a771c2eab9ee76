"""Piecewise-deterministic trajectories: flow steps interrupted by jumps.

Time is discretized on a fixed grid of step dt.  Each step either jumps,
with Bernoulli probability w dt decided by one uniform draw, or advances
the deterministic no-jump flow by one Runge-Kutta step.  A jump replaces
the whole step: the state at t + dt is the selected channel target.  The
random stream is a counter-based Philox generator keyed by
(seed, trajectory_index), two uniforms per step, so any trajectory of an
ensemble can be reproduced in isolation and ensembles need no
coordination between trajectories.

run_trajectory takes every step through _batch.jump_step, the step
policy the ensemble engine uses, on a block of one column; it adds only
the per-step observable series and the jump events.  Trajectory j run
alone therefore makes the same jump decisions as trajectory j of an
ensemble.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._batch import JUMP_PROB_WARN, jump_step, trajectory_rng
from ._flow import compile_flow, rhs_block
from ._io import fmt, write_lines
from .errors import DimensionMismatch
from .generator import GeneratorSpec
from .linalg import as_state, normalize, require_hermitian

GRID_TOL = 1e-9


def grid_step(t: float, dt: float) -> int | None:
    """Index k of the grid point k dt that t lies on, or None if t is off the dt grid."""
    ratio = t / dt
    if not math.isfinite(ratio):
        return None
    k = round(ratio)
    if not (abs(k * dt - t) <= GRID_TOL * max(1.0, abs(t))):
        return None
    return k


@dataclass
class TrajectoryConfig:
    """Grid, RNG key and observables for one trajectory."""

    dt: float
    t_final: float
    seed: int
    trajectory_index: int = 0
    observables: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if self.t_final < self.dt:
            raise ValueError(f"t_final {self.t_final!r} must be at least dt {self.dt!r}")
        if grid_step(self.t_final, self.dt) is None:
            raise ValueError(f"t_final {self.t_final!r} is not an integer multiple of dt {self.dt!r}")
        for name, bound in (("seed", self.seed), ("trajectory_index", self.trajectory_index)):
            if int(bound) != bound or not 0 <= bound < 2**64:
                raise ValueError(f"{name} must be an integer in [0, 2^64), got {bound!r}")
        self.seed = int(self.seed)
        self.trajectory_index = int(self.trajectory_index)
        self.observables = {
            name: require_hermitian(mat, name=f"observable {name!r}")
            for name, mat in self.observables.items()
        }

    @property
    def n_steps(self) -> int:
        return round(self.t_final / self.dt)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1, dtype=np.float64) * self.dt


@dataclass
class JumpEvent:
    """One jump: when it happened, through which channel, at what rate."""

    time: float
    channel_rate: float
    pre_state_norm_check: float
    target_index: int


@dataclass
class TrajectoryRecord:
    """Observable time series plus the jump log of one trajectory."""

    times: np.ndarray
    observables: dict[str, np.ndarray]
    jumps: list[JumpEvent]
    final_state: np.ndarray


def run_trajectory(spec: GeneratorSpec, psi0: np.ndarray, cfg: TrajectoryConfig) -> TrajectoryRecord:
    """Evolve one trajectory on the configured grid.

    Identical (spec, psi0, cfg) inputs give bitwise-identical records:
    the RNG stream is fixed by (seed, trajectory_index) with exactly two
    uniforms consumed per step whether or not a jump fires.
    """
    psi = normalize(as_state(psi0))
    if psi.shape[0] != spec.dim:
        raise DimensionMismatch(f"state dimension {psi.shape[0]} does not match generator dimension {spec.dim}")
    for name, mat in cfg.observables.items():
        if mat.shape[0] != spec.dim:
            raise DimensionMismatch(f"observable {name!r} has dimension {mat.shape[0]}, expected {spec.dim}")
    flow = compile_flow(spec)
    rng = trajectory_rng(cfg.seed, cfg.trajectory_index)
    n = cfg.n_steps
    names = list(cfg.observables)
    values = np.empty((len(names), n + 1), dtype=np.float64)
    series = dict(zip(names, values))
    obs_stack = np.reshape([cfg.observables[name] for name in names], (-1, spec.dim))

    def record(step: int, state: np.ndarray) -> None:
        values[:, step] = np.vecdot(state, (obs_stack @ state).reshape(-1, spec.dim)).real

    jumps: list[JumpEvent] = []
    block = psi[:, None]
    evaluation = rhs_block(flow, block, want_rate=True)
    warned = False
    record(0, psi)
    for i in range(n):
        u = rng.random((2, 1))
        nxt, evaluation, prob, fired = jump_step(spec, flow, block, evaluation, cfg.dt, u, i, cfg.trajectory_index)
        if prob > JUMP_PROB_WARN and not warned:
            warnings.warn(
                f"trajectory {cfg.trajectory_index} at t={(i + 1) * cfg.dt:.12g}: jump probability {prob:.3f} per step exceeds {JUMP_PROB_WARN}: discretization bias is first order in dt",
                stacklevel=2,
            )
            warned = True
        for _, rate, chosen in fired:
            pre_norm = float(np.linalg.norm(block[:, 0]))
            jumps.append(JumpEvent(time=(i + 1) * cfg.dt, channel_rate=rate, pre_state_norm_check=pre_norm, target_index=chosen))
        block = nxt
        record(i + 1, block[:, 0])
    return TrajectoryRecord(times=cfg.times, observables=series, jumps=jumps, final_state=block[:, 0])


def write_event_log(record: TrajectoryRecord, path: str) -> None:
    """Per-step event log: time, event_type (step or jump), rate, target.

    Step rows leave the channel fields empty; jump rows carry the
    selected channel's rate and index.
    """
    dt = float(record.times[1] - record.times[0])
    by_step = {int(round(event.time / dt)): event for event in record.jumps}
    lines = ["time,event_type,channel_rate,target_index"]
    for i in range(1, record.times.shape[0]):
        event = by_step.get(i)
        if event is None:
            lines.append(f"{fmt(record.times[i])},step,,")
        else:
            lines.append(f"{fmt(record.times[i])},jump,{fmt(event.channel_rate)},{event.target_index}")
    write_lines(path, lines)
