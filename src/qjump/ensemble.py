"""Monte Carlo estimation of the density operator and its master-equation oracle.

The ensemble mean of trajectory projectors must reproduce the density
operator evolved directly under the generator.  This module holds both
sides of that comparison: the oracle exp(L t) rho0, which takes no grid
and so adds no error of the trajectories' dt, the single-step algebraic
equivalence check, and the convergence report that quantifies their
distance with a jackknife error bar.  The oracle applies L on the compiled
flow, the blocks the trajectories step on too (_flow.generator_image);
generator.apply_generator, which builds L[rho] from the raw specification,
stays the reference that the tests and `qjump verify` compare against.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ._batch import run_batch, single_blas_thread
from ._flow import channels_block, compile_flow, generator_image, rk4_step_block
from ._io import fmt, write_lines
from .errors import DimensionMismatch, PositivityLost
from .generator import GeneratorSpec, apply_generator
from .linalg import as_operator, as_state, hermiticity_defect, normalize, outer, trace_distance
from .trajectory import TrajectoryConfig, grid_step

TRACE_DRIFT_TOL = 1e-12
HERMITICITY_DRIFT_TOL = 1e-12
EIGENVALUE_ERROR_TOL = -1e-6


@dataclass(frozen=True)
class EnsembleConfig:
    """Trajectory count, shared grid settings, snapshot times and their grid steps.

    Frozen, like its base: _batch.run_batch repeats none of the checks made
    here, so no field may change after them.
    """

    n_trajectories: int
    base: TrajectoryConfig
    snapshot_times: tuple[float, ...]
    snapshot_steps: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        # the range first, so that inf and nan fail it before int() could overflow
        if not (1 <= self.n_trajectories < np.inf and self.n_trajectories == self.n_trajectories // 1):
            raise ValueError(f"n_trajectories must be a positive integer, got {self.n_trajectories!r}")
        object.__setattr__(self, "n_trajectories", int(self.n_trajectories))
        object.__setattr__(self, "snapshot_times", tuple(float(t) for t in self.snapshot_times))
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
        object.__setattr__(self, "snapshot_steps", tuple(steps))


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


def master_evolve(spec: GeneratorSpec, rho0: np.ndarray, times: Sequence[float]) -> np.ndarray:
    """exp(L t) rho0 at each of times, each in its own slot: the master equation, on no grid.

    The interval up to each snapshot time from the one below it is split
    into s = ceil(2 bound length) substeps h, with ||L|| <= bound = 2||C|| +
    sum_ab |gain_ab| ||A_a|| ||A_b|| from the compiled flow, so that
    ||L h|| <= 1/2; each substep sums the Taylor series of exp(L h) on
    _flow.generator_image until a term no longer exceeds 1e-16 of the sum
    (scaled Taylor, after Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488
    (2011)).  A negative, non-finite or repeated time raises ValueError.
    Every snapshot is guarded: its trace stays at rho0's, its hermiticity
    defect at roundoff, and its spectrum may dip below zero only by
    roundoff; a failed guard raises PositivityLost naming the time.
    """
    times = [float(t) for t in times]
    for t in times:
        if not 0.0 <= t < np.inf:
            raise ValueError(f"snapshot time {t!r} is negative or not finite")
    if len(set(times)) != len(times):
        raise ValueError(f"snapshot times {tuple(times)} repeat a time")
    flow = compile_flow(spec)
    rho = as_operator(rho0)
    if rho.shape != (spec.dim, spec.dim):
        raise DimensionMismatch(f"operator has shape {rho.shape}, expected {(spec.dim, spec.dim)}")
    trace0 = complex(np.trace(rho))
    d = flow.dim
    norms = np.linalg.norm(flow.stack.reshape(-1, d, d), ord=2, axis=(1, 2))
    bound = 2.0 * norms[0] + norms[1:] @ np.abs(flow.gain) @ norms[1:]
    snaps = np.empty((len(times), d, d), dtype=np.complex128)
    now = 0.0
    for slot in np.argsort(times):
        t = times[slot]
        substeps = math.ceil(2.0 * bound * (t - now))
        h = (t - now) / max(substeps, 1)
        for _ in range(substeps):
            term, n = rho, 1
            while True:
                term = generator_image(flow, term) * (h / n)
                rho = rho + term
                n += 1
                # negated, so that a NaN or inf term stops the series
                if not (np.linalg.norm(term) > 1e-16 * np.linalg.norm(rho)):
                    break
        now = t
        # each guard is a negated in-bounds test so that NaN and inf fail it
        drift = abs(complex(np.trace(rho)) - trace0)
        if not (drift <= TRACE_DRIFT_TOL):
            raise PositivityLost(f"oracle at t={t:.12g}: trace drifted by {drift:.3e}")
        defect = hermiticity_defect(rho)
        if not (defect <= HERMITICITY_DRIFT_TOL):
            raise PositivityLost(f"oracle at t={t:.12g}: hermiticity broken by {defect:.3e}")
        low = float(np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))))
        if not (low >= EIGENVALUE_ERROR_TOL):
            raise PositivityLost(f"oracle at t={t:.12g}: eigenvalue {low:.3e} < {EIGENVALUE_ERROR_TOL:.1e}")
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
    flow = compile_flow(spec)
    rates, targets = channels_block(flow, psi[:, None])[0]
    evolved = rk4_step_block(flow, psi[:, None], eps)[0][:, 0]
    rho_b = (1.0 - eps * rates.sum()) * outer(evolved) + (eps * targets * rates) @ targets.conj().T
    return float(np.max(np.abs(rho_a - rho_b)))


def _jackknife_errors(
    block_sums: np.ndarray,
    block_counts: np.ndarray,
    oracle: np.ndarray,
) -> np.ndarray:
    """Delete-one-block jackknife standard error of each trace distance."""
    n_snap = block_sums.shape[0]
    total_count = int(block_counts.sum())
    live = [b for b in range(block_counts.size) if block_counts[b] > 0]
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
    """Monte Carlo ensemble on the configured grid versus the exact oracle at its snapshot times.

    Trajectory indices run from 0 to n_trajectories - 1 under the
    configured seed, integrated as one block in the calling thread at
    under 100 B per trajectory whatever the number of steps, each drawing
    one pair of uniforms at t = 0 and one after each of its jumps.  threads is
    accepted for existing callers and selects nothing: the result depends
    only on (spec, psi0, cfg).  Like run_batch, the whole call, oracle and
    jackknife included, runs with numpy's OpenBLAS at one thread.
    """
    psi0 = normalize(as_state(psi0))
    base = cfg.base
    batch = run_batch(spec, psi0, cfg)
    m = cfg.n_trajectories
    rho_mc = batch.block_sums.sum(axis=1) / m
    times = np.array([k * base.dt for k in cfg.snapshot_steps], dtype=np.float64)
    rho_oracle = master_evolve(spec, outer(psi0), times)
    n_snap = len(cfg.snapshot_steps)
    distances = np.array([trace_distance(rho_mc[s], rho_oracle[s]) for s in range(n_snap)])
    stat_errors = _jackknife_errors(batch.block_sums, batch.block_counts, rho_oracle)
    means = batch.obs_sum / m
    if m > 1:
        stderrs = np.sqrt(batch.obs_sqdev / m / (m - 1))
    else:
        stderrs = np.zeros_like(means)
    return ConvergenceReport(
        times=times,
        trace_distances=distances,
        stat_errors=stat_errors,
        observable_names=list(base.observables),
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
