"""Piecewise-deterministic trajectories: flow steps interrupted by jumps.

Time is discretized on a fixed grid of step dt.  A step from t may
jump, and then advances the deterministic no-jump flow by one
Runge-Kutta step: jump at t, then flow to t + dt, so after a jump the
state at t + dt is the selected channel target flowed for dt.  Each
trajectory jumps on the step in which its decay, the sum of w dt since
its last jump, passes a threshold -log(1 - a), so it survives k steps
with probability exp(-sum of w dt).  The random stream is a
counter-based Philox stream keyed by (seed, trajectory_index), read as
one pair (a, b) of uniforms at t = 0 and one after each jump, b picking
the jump's channel, so any trajectory of an ensemble can be reproduced
in isolation and ensembles need no coordination between trajectories.

run_trajectories steps all its trajectory indices as one block, in the
calling thread, through _batch.integrate, the step loop the ensemble
engine uses, after the same input checks (_batch.prepare); it keeps
every step's observables (_batch.expectations) and the jump events, and
warns as the ensemble engine does.  Besides the records, the block holds
under 100 B per index however many steps the run takes.  The indices
start on one shared state and share it until a jump of their own
separates them, but each decides with its own stream and is judged on
its own state.  Trajectory j therefore makes the same jump decisions
whether it runs alone, next to other indices or inside an ensemble.
run_trajectory is the one-index case.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import _batch
from ._batch import trajectory_rng  # noqa: F401  re-exported: the streams this module documents
from ._io import fmt, write_lines
from .generator import GeneratorSpec
from .linalg import require_hermitian

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


@dataclass(frozen=True)
class TrajectoryConfig:
    """Grid, RNG seed and observables shared by the trajectories of a run; frozen once checked."""

    dt: float
    t_final: float
    seed: int
    observables: Mapping[str, np.ndarray] = field(default_factory=dict)  # read-only once checked

    def __post_init__(self) -> None:
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if self.t_final < self.dt:
            raise ValueError(f"t_final {self.t_final!r} must be at least dt {self.dt!r}")
        if grid_step(self.t_final, self.dt) is None:
            raise ValueError(f"t_final {self.t_final!r} is not an integer multiple of dt {self.dt!r}")
        # the range first, so that inf and nan fail it before int() could overflow
        if not (0 <= self.seed < 2**64 and self.seed == self.seed // 1):
            raise ValueError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        observables = {name: require_hermitian(mat, name=f"observable {name!r}") for name, mat in self.observables.items()}
        object.__setattr__(self, "observables", MappingProxyType(observables))

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
    target_index: int


@dataclass
class TrajectoryRecord:
    """Observable time series plus the jump log of one trajectory."""

    times: np.ndarray
    observables: dict[str, np.ndarray]
    jumps: list[JumpEvent]
    final_state: np.ndarray


def run_trajectories(
    spec: GeneratorSpec, psi0: np.ndarray, cfg: TrajectoryConfig, indices: Sequence[int]
) -> list[TrajectoryRecord]:
    """Evolve the trajectories indices on the configured grid, one record per index.

    The indices are integrated in one block, so an error in any
    trajectory stops the whole run.
    Identical inputs give bitwise-identical records: each stream is fixed
    by (seed, index), and it is read as one pair of uniforms at t = 0 and
    one after each jump, whichever other indices run beside it.
    """
    indices = tuple(indices)
    if not indices:
        raise ValueError("need at least one trajectory index")
    for index in indices:
        # the range first, so that inf and nan fail it before int() could overflow
        if not (0 <= index < 2**64 and index == index // 1):
            raise ValueError(f"trajectory index must be an integer in [0, 2^64), got {index}")
    indices = tuple(int(index) for index in indices)
    if len(set(indices)) != len(indices):
        raise ValueError(f"trajectory indices {indices} repeat an index")
    names = list(cfg.observables)
    flow, psi0, obs_stack = _batch.prepare(spec, psi0, [cfg.observables[name] for name in names])
    n = cfg.n_steps
    times = cfg.times
    values = np.empty((len(indices), len(names), n + 1), dtype=np.float64)
    events: list[list[JumpEvent]] = [[] for _ in indices]
    for k, states, owner, fired, peak in _batch.integrate(flow, psi0, cfg, indices):
        for j, rate, chosen in fired:
            events[j].append(JumpEvent(time=k * cfg.dt, channel_rate=rate, target_index=chosen))
        values[:, :, k] = _batch.expectations(obs_stack, states)[owner]
    _batch.warn_jump_prob(peak, cfg.dt)
    finals = states[:, owner]
    return [
        TrajectoryRecord(times=times, observables=dict(zip(names, values[j])), jumps=events[j], final_state=finals[:, j])
        for j in range(len(indices))
    ]


def run_trajectory(spec: GeneratorSpec, psi0: np.ndarray, cfg: TrajectoryConfig, index: int = 0) -> TrajectoryRecord:
    """Evolve trajectory index on the configured grid."""
    return run_trajectories(spec, psi0, cfg, (index,))[0]


def write_event_log(record: TrajectoryRecord, path: str) -> None:
    """Per-step event log: time, event_type (step or jump), rate, target.

    Each row is the step that lands on its time.  Step rows leave the
    channel fields empty; a jump row's step jumped at its start, through
    the channel whose rate and index it carries, then flowed for dt.
    """
    dt = float(record.times[1] - record.times[0])
    jumps = {round(event.time / dt): f",jump,{fmt(event.channel_rate)},{event.target_index}" for event in record.jumps}
    rows = (fmt(record.times[i]) + jumps.get(i, ",step,,") for i in range(1, record.times.shape[0]))
    write_lines(path, itertools.chain(["time,event_type,channel_rate,target_index"], rows))
