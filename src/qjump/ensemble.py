"""Monte Carlo estimation of the density operator and its master-equation oracle.

The ensemble mean of trajectory projectors must reproduce the density
operator evolved directly under the generator.  This module holds both
sides of that comparison: the direct Runge-Kutta master integrator (the
oracle), the single-step algebraic equivalence check, and the
convergence report that quantifies their distance with a jackknife
error bar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._batch import run_batch, single_blas_thread
from ._flow import compile_flow, rk4_step
from ._io import fmt, write_lines
from .errors import PositivityLost
from .generator import GeneratorSpec, apply_generator
from .linalg import as_operator, as_state, hermiticity_defect, normalize, outer, trace_distance
from .trajectory import TrajectoryConfig, grid_step
from .unraveling import jump_channels

TRACE_DRIFT_TOL = 1e-12
HERMITICITY_DRIFT_TOL = 1e-12
EIGENVALUE_ERROR_TOL = -1e-6
JACKKNIFE_BLOCKS = 10


@dataclass
class EnsembleConfig:
    """Trajectory count, shared grid settings, and snapshot times."""

    n_trajectories: int
    base: TrajectoryConfig
    snapshot_times: tuple[float, ...]

    def __post_init__(self) -> None:
        if int(self.n_trajectories) != self.n_trajectories or self.n_trajectories < 1:
            raise ValueError(f"n_trajectories must be a positive integer, got {self.n_trajectories!r}")
        self.n_trajectories = int(self.n_trajectories)
        self.snapshot_times = tuple(float(t) for t in self.snapshot_times)
        if not self.snapshot_times:
            raise ValueError("need at least one snapshot time")
        steps = []
        for t in self.snapshot_times:
            k = grid_step(t, self.base.dt)
            if k is None or not 0 <= k <= self.base.n_steps:
                raise ValueError(f"snapshot time {t!r} is not on the grid (dt {self.base.dt!r}, t_final {self.base.t_final!r})")
            steps.append(k)
        if len(set(steps)) != len(steps):
            raise ValueError(f"snapshot times {self.snapshot_times} repeat a grid point")
        self._snapshot_steps = tuple(steps)

    @property
    def snapshot_steps(self) -> tuple[int, ...]:
        return self._snapshot_steps


@dataclass
class ConvergenceReport:
    """Per-snapshot distance between Monte Carlo mean and oracle, with errors."""

    times: np.ndarray  # (S,)
    trace_distances: np.ndarray  # (S,)
    stat_errors: np.ndarray  # (S,) jackknife standard error of the trace distance
    observable_names: list[str]
    observable_means: np.ndarray  # (S, K)
    observable_stderrs: np.ndarray  # (S, K)
    rho_mc: np.ndarray  # (S, d, d)
    rho_oracle: np.ndarray  # (S, d, d)
    n_trajectories: int


def master_step(spec: GeneratorSpec, rho: np.ndarray, dt: float) -> np.ndarray:
    """One Runge-Kutta step of the master equation d rho / dt = L[rho].

    Guards the structural invariants every step: trace drift and
    hermiticity drift stay at roundoff, and the spectrum may dip below
    zero only by discretization noise.
    """
    rho = as_operator(rho)
    k1 = apply_generator(spec, rho)
    k2 = apply_generator(spec, rho + (0.5 * dt) * k1)
    k3 = apply_generator(spec, rho + (0.5 * dt) * k2)
    k4 = apply_generator(spec, rho + dt * k3)
    out = rho + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    # each guard is a negated in-bounds test so that NaN and inf fail it
    drift = abs(complex(np.trace(out)) - complex(np.trace(rho)))
    if not (drift <= TRACE_DRIFT_TOL):
        raise PositivityLost(f"master step changed the trace by {drift:.3e}")
    defect = hermiticity_defect(out)
    if not (defect <= HERMITICITY_DRIFT_TOL):
        raise PositivityLost(f"master step broke hermiticity by {defect:.3e}")
    low = float(np.min(np.linalg.eigvalsh(0.5 * (out + out.conj().T))))
    if not (low >= EIGENVALUE_ERROR_TOL):
        raise PositivityLost(f"master step produced eigenvalue {low:.3e} < {EIGENVALUE_ERROR_TOL:.1e}")
    return out


def master_evolve(
    spec: GeneratorSpec,
    rho0: np.ndarray,
    dt: float,
    n_steps: int,
    snapshot_steps: tuple[int, ...] = (),
) -> np.ndarray:
    """Integrate the master equation, returning the requested snapshots."""
    slot_of = {int(s): i for i, s in enumerate(snapshot_steps)}
    d = spec.dim
    snaps = np.empty((len(snapshot_steps), d, d), dtype=np.complex128)
    rho = as_operator(rho0)
    if 0 in slot_of:
        snaps[slot_of[0]] = rho
    for i in range(n_steps):
        rho = master_step(spec, rho, dt)
        slot = slot_of.get(i + 1)
        if slot is not None:
            snaps[slot] = rho
    return snaps


def single_step_equivalence_test(spec: GeneratorSpec, psi: np.ndarray, eps: float) -> float:
    """Largest entry of the one-step mismatch between the two evolutions.

    Route A advances the projector directly by the generator:
    rho_A = P + eps L[P].  Route B mixes the no-jump flow with the jump
    channels: rho_B = (1 - eps w) |psi(eps)><psi(eps)| + eps sum_n
    rate_n |phi_n><phi_n|.  The residual must shrink as eps^2; callers
    verify the order by halving eps and checking the ratio is near 4.
    """
    psi = normalize(as_state(psi))
    proj = outer(psi)
    rho_a = proj + eps * apply_generator(spec, proj)
    report = jump_channels(spec, psi)
    evolved = rk4_step(compile_flow(spec), psi, eps)
    rho_b = (1.0 - eps * report.total) * outer(evolved)
    for channel in report.channels:
        rho_b += (eps * channel.rate) * outer(channel.target)
    return float(np.max(np.abs(rho_a - rho_b)))


def _jackknife_errors(
    block_sums: np.ndarray,
    block_counts: np.ndarray,
    oracle: np.ndarray,
) -> np.ndarray:
    """Delete-one-block jackknife standard error of each trace distance."""
    n_snap, n_blocks = block_sums.shape[0], block_sums.shape[1]
    total_count = int(block_counts.sum())
    live = [b for b in range(n_blocks) if block_counts[b] > 0]
    errors = np.zeros(n_snap, dtype=np.float64)
    if len(live) < 2:
        return errors
    totals = block_sums.sum(axis=1)
    for s in range(n_snap):
        estimates = []
        for b in live:
            rest = (totals[s] - block_sums[s, b]) / (total_count - int(block_counts[b]))
            estimates.append(trace_distance(rest, oracle[s]))
        estimates = np.asarray(estimates)
        n = estimates.size
        errors[s] = np.sqrt((n - 1) / n * np.sum((estimates - estimates.mean()) ** 2))
    return errors


@single_blas_thread()
def run_ensemble(
    spec: GeneratorSpec,
    psi0: np.ndarray,
    cfg: EnsembleConfig,
    threads: int = 1,
) -> ConvergenceReport:
    """Monte Carlo ensemble versus master-equation oracle on one grid.

    Trajectory indices run from 0 to n_trajectories - 1 under the
    configured seed (the base trajectory_index is ignored here).  The
    result is deterministic for fixed (spec, psi0, cfg) regardless of
    the thread count.  Like run_batch, the whole call, oracle and
    jackknife included, runs with numpy's OpenBLAS at one thread.
    """
    psi0 = normalize(as_state(psi0))
    base = cfg.base
    names = list(base.observables)
    mats = tuple(base.observables[name] for name in names)
    n_blocks = min(JACKKNIFE_BLOCKS, cfg.n_trajectories)
    batch = run_batch(
        spec,
        psi0,
        base.dt,
        base.n_steps,
        cfg.n_trajectories,
        base.seed,
        cfg.snapshot_steps,
        observables=mats,
        n_blocks=n_blocks,
        threads=threads,
    )
    m = cfg.n_trajectories
    rho_mc = batch.block_sums.sum(axis=1) / m
    rho_oracle = master_evolve(spec, outer(psi0), base.dt, base.n_steps, cfg.snapshot_steps)
    n_snap = len(cfg.snapshot_steps)
    distances = np.array([trace_distance(rho_mc[s], rho_oracle[s]) for s in range(n_snap)])
    stat_errors = _jackknife_errors(batch.block_sums, batch.block_counts, rho_oracle)
    means = batch.obs_sum / m
    if m > 1:
        variance = np.maximum(batch.obs_sumsq / m - means**2, 0.0)
        stderrs = np.sqrt(variance / (m - 1))
    else:
        stderrs = np.zeros_like(means)
    times = np.array([s * base.dt for s in cfg.snapshot_steps], dtype=np.float64)
    return ConvergenceReport(
        times=times,
        trace_distances=distances,
        stat_errors=stat_errors,
        observable_names=names,
        observable_means=means,
        observable_stderrs=stderrs,
        rho_mc=rho_mc,
        rho_oracle=rho_oracle,
        n_trajectories=m,
    )


def write_convergence_csv(report: ConvergenceReport, path: str) -> None:
    """Serialize a ConvergenceReport: one row per snapshot."""
    header = ["time", "trace_distance", "stat_error"]
    for name in report.observable_names:
        header += [f"mean_{name}", f"stderr_{name}"]
    lines = [",".join(header)]
    for s in range(report.times.shape[0]):
        row = [fmt(report.times[s]), fmt(report.trace_distances[s]), fmt(report.stat_errors[s])]
        for k in range(len(report.observable_names)):
            row += [fmt(report.observable_means[s, k]), fmt(report.observable_stderrs[s, k])]
        lines.append(",".join(row))
    write_lines(path, lines)
