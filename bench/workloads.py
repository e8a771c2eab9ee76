"""The benchmark's workloads and the config files it generates for them.

Each workload loads a different layer most heavily:

* ens-diffusion-d20: the criterion-2 model through ``run_ensemble`` with one
  thread.  One active coupling, so the compiled flow dominates and jumps,
  the oracle and the thread pool do little.
* cli-ensemble-d40-t2: ``qjump ensemble --threads 2`` on the full-rank d=40
  oscillator with density dumps.  The only workload with the thread pool,
  config parsing, density dumps, d=40 eigensolves and the two-coupling flow
  all on the path.  BLAS threads are deliberately left as found.
* traj-fullrank-d20: ``qjump trajectory`` on the full-rank d=20 oscillator.
  The only user of the single-trajectory engine and the per-step writers,
  and it drives the flow at M=1 (per-call cost) where the ensembles drive it
  at M=1024 (throughput).

The seed only sets the config's ``seed``; the program sees nothing but the
generated config text.  Sizes are set so that seven to twelve fresh-process runs
fit in one 40-second measurement: 400 and 150 steps for the ensembles (two
1024-column chunks each) and two trajectory indices of 5000 steps.
"""

from __future__ import annotations

from dataclasses import dataclass

DIFFUSION_ONLY = {"D11": 0.0, "D22": 0.5, "ReD12": 0.0, "ImD12": 0.0}
FULL_RANK = {"D11": 0.3, "D22": 0.5, "ReD12": 0.1, "ImD12": 0.05}

# largest trace distance between the Monte Carlo mean and the oracle that a
# run may report at any snapshot; the bound acceptance criterion 2 uses
TRACE_DISTANCE_MAX = 0.05


@dataclass(frozen=True)
class Size:
    n_steps: int
    n_trajectories: int
    snapshot_steps: tuple[int, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    entry: str  # "run_ensemble", "ensemble" or "trajectory"
    threads: int
    levels: int
    coupling: dict
    state: str
    dt: float
    full: Size
    smoke: Size
    observables: tuple[str, ...] = ()
    indices: tuple[int, ...] = (0,)
    dump_density: bool = False

    def size(self, smoke: bool) -> Size:
        return self.smoke if smoke else self.full

    def n_runs(self, smoke: bool) -> int:
        """Trajectories the entry call integrates (the ensemble or the indices)."""
        if self.entry == "trajectory":
            return len(self.indices)
        return self.size(smoke).n_trajectories

    def expected_files(self, smoke: bool) -> int:
        if self.entry == "trajectory":
            return 2 * len(self.indices)
        if self.dump_density:
            return 1 + 2 * len(self.size(smoke).snapshot_steps)
        return 1

    def config_text(self, seed: int, smoke: bool, out_dir: str) -> str:
        size = self.size(smoke)
        model = "\n".join(f"{key} = {value!r}" for key, value in self.coupling.items())
        snapshots = " ".join(f"{k * self.dt:.12g}" for k in size.snapshot_steps)
        lines = [
            "[model]",
            "type = damped_oscillator",
            f"N = {self.levels}",
            "m = 1.0",
            "omega = 1.0",
            "hbar = 1.0",
            model,
            "",
            "[initial]",
            f"state = {self.state}",
            "",
            "[run]",
            f"dt = {self.dt!r}",
            f"t_final = {size.n_steps * self.dt:.12g}",
            f"seed = {seed % 2**63}",
            f"n_trajectories = {size.n_trajectories}",
            f"snapshot_times = {snapshots}",
            "trajectory_indices = " + " ".join(str(i) for i in self.indices),
            "",
        ]
        if self.observables:
            lines += ["[observables]", "names = " + " ".join(self.observables), ""]
        lines += [
            "[output]",
            f"directory = {out_dir}",
            f"dump_density = {'true' if self.dump_density else 'false'}",
        ]
        return "\n".join(lines) + "\n"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ens-diffusion-d20",
            why="criterion-2 model via run_ensemble, 1 thread: the flow kernel dominates; jumps, oracle and threads do little",
            entry="run_ensemble",
            threads=1,
            levels=20,
            coupling=DIFFUSION_ONLY,
            state="fock(0)",
            dt=1e-3,
            full=Size(n_steps=400, n_trajectories=2048, snapshot_steps=(100, 200, 400)),
            smoke=Size(n_steps=40, n_trajectories=1100, snapshot_steps=(10, 20, 40)),
        ),
        Workload(
            name="cli-ensemble-d40-t2",
            why="qjump ensemble --threads 2, full-rank d=40 with density dumps: thread pool, parsing, dumps, d=40 eigensolves",
            entry="ensemble",
            threads=2,
            levels=40,
            coupling=FULL_RANK,
            state="coherent(2.0)",
            dt=1e-3,
            full=Size(n_steps=150, n_trajectories=2048, snapshot_steps=(30, 75, 150)),
            smoke=Size(n_steps=10, n_trajectories=1100, snapshot_steps=(2, 5, 10)),
            observables=("x", "p", "number", "H0"),
            dump_density=True,
        ),
        Workload(
            name="traj-fullrank-d20",
            why="qjump trajectory, full-rank d=20: the single-trajectory engine at M=1 and the per-step CSV writers",
            entry="trajectory",
            threads=1,
            levels=20,
            coupling=FULL_RANK,
            state="coherent(1.0)",
            dt=1e-3,
            full=Size(n_steps=5000, n_trajectories=2, snapshot_steps=(5000,)),
            smoke=Size(n_steps=200, n_trajectories=2, snapshot_steps=(200,)),
            observables=("x", "p", "number", "H0"),
            indices=(0, 1),
        ),
    )
}
