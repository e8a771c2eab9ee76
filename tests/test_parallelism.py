"""The engine runs one block in the calling thread, with BLAS pinned to one thread.

run_batch and run_ensemble lower numpy's OpenBLAS to one thread for the
whole call and restore the count afterwards, so output bytes do not
depend on the BLAS thread setting, even when runs overlap in several
threads of the caller.
"""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import qjump
from qjump import _batch, _flow, ensemble
from qjump._batch import run_batch
from qjump.ensemble import EnsembleConfig, run_ensemble
from qjump.errors import StepTooLarge
from qjump.generator import GeneratorSpec
from qjump.trajectory import TrajectoryConfig

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
FLIP = GeneratorSpec(hamiltonian=np.zeros((2, 2)), couplings=(SX,), coeff=[[0.5]])
E0_2 = np.array([1.0, 0.0], dtype=np.complex128)
SRC = os.path.dirname(os.path.dirname(os.path.abspath(qjump.__file__)))

# 2048 trajectories of a full-rank d=40 oscillator (two active couplings);
# with BLAS threads left to the environment, 3 steps already move its bytes
BLOCK_SUMS_DIGEST = """
import hashlib
import numpy as np
from qjump._batch import run_batch
from qjump.ensemble import EnsembleConfig
from qjump.oscillator import OscillatorParams, oscillator_generator
from qjump.trajectory import TrajectoryConfig
spec = oscillator_generator(OscillatorParams(levels=40, d11=0.05, d22=0.5))
psi0 = np.zeros(40, dtype=np.complex128)
psi0[:2] = 1.0
base = TrajectoryConfig(dt=1e-3, t_final=3e-3, seed=7)
batch = run_batch(spec, psi0, EnsembleConfig(n_trajectories=2048, base=base, snapshot_times=(0.0, 3e-3)))
print(hashlib.sha256(batch.block_sums.tobytes()).hexdigest())
"""


@pytest.fixture
def blas():
    """numpy's OpenBLAS thread-count getter, with the count raised to 2 for the test."""
    api = _batch._numpy_openblas()
    if api is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS this process can reach")
    get, set_ = api
    found = get()
    set_(2)
    try:
        yield get
    finally:
        set_(found)


def spy_rhs_block(monkeypatch, get):
    """Record the BLAS thread count at every flow evaluation."""
    seen = []
    real = _flow.rhs_block

    def spy(flow, psi):
        seen.append(get())
        return real(flow, psi)

    monkeypatch.setattr(_flow, "rhs_block", spy)
    return seen


def flip_batch():
    cfg = EnsembleConfig(n_trajectories=8, base=TrajectoryConfig(dt=1e-2, t_final=0.2, seed=3), snapshot_times=(0.0, 0.2))
    return run_batch(FLIP, E0_2, cfg)


def test_block_sums_bytes_do_not_depend_on_blas_threads():
    digests = {}
    for value in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=value, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-c", BLOCK_SUMS_DIGEST], env=env, capture_output=True, text=True, timeout=300, check=True
        )
        digests[value] = proc.stdout.strip()
    assert digests["1"] == digests["2"]


@pytest.mark.parametrize("runs", [1, 2])
def test_run_batch_pins_blas_and_restores_count(monkeypatch, blas, runs):
    # each of `runs` runs in a row pins BLAS afresh and restores it on leaving
    seen = spy_rhs_block(monkeypatch, blas)
    for _ in range(runs):
        seen.clear()
        flip_batch()
        assert seen and set(seen) == {1}
        assert blas() == 2


def test_run_ensemble_pins_blas_for_the_oracle(monkeypatch, blas):
    seen = spy_rhs_block(monkeypatch, blas)
    real = ensemble.master_evolve

    def spy(*args, **kwargs):
        seen.append(blas())
        return real(*args, **kwargs)

    monkeypatch.setattr(ensemble, "master_evolve", spy)
    base = TrajectoryConfig(dt=1e-2, t_final=0.2, seed=5)
    run_ensemble(FLIP, E0_2, EnsembleConfig(n_trajectories=6, base=base, snapshot_times=(0.2,)))
    assert seen and set(seen) == {1}
    assert blas() == 2


@pytest.mark.parametrize("runs", [1, 2])
def test_blas_count_restored_after_error_in_a_chunk(blas, runs):
    # the flip model decays at rate 1, so dt = 1 is a jump probability of 1
    # per step; the one block of each of `runs` failing runs in a row raises
    base = TrajectoryConfig(dt=1.0, t_final=3.0, seed=3)
    for _ in range(runs):
        with pytest.raises(StepTooLarge):
            run_batch(FLIP, E0_2, EnsembleConfig(n_trajectories=8, base=base, snapshot_times=(3.0,)))
        assert blas() == 2


def test_overlapping_runs_restore_blas_count_when_the_last_leaves(monkeypatch, blas):
    both_inside = threading.Barrier(2, timeout=60)
    early_done = threading.Event()
    seen = {}
    real = _flow.rhs_block

    def gated(flow, psi):
        name = threading.current_thread().name
        if name not in seen:
            seen[name] = []
            both_inside.wait()
            if name == "late":
                assert early_done.wait(60)
        seen[name].append(blas())
        return real(flow, psi)

    monkeypatch.setattr(_flow, "rhs_block", gated)
    errors = []

    def run(name):
        try:
            flip_batch()
        except Exception as exc:  # reported in the main thread
            errors.append(exc)
            both_inside.abort()
        finally:
            if name == "early":
                early_done.set()

    workers = [threading.Thread(target=run, args=(name,), name=name) for name in ("early", "late")]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(120)
        assert not worker.is_alive()
    assert not errors
    # the late run kept one BLAS thread after the early run had returned
    assert set(seen["early"]) == {1}
    assert set(seen["late"]) == {1}
    assert blas() == 2


def test_blas_pin_count_survives_contention(blas):
    # more threads than cores entering and leaving at once: a lost update of
    # the entry count would restore the count early or never
    failures = []
    start = threading.Barrier(8, timeout=60)

    def churn():
        start.wait()
        for _ in range(1000):
            with _batch.single_blas_thread():
                if blas() != 1:
                    failures.append(blas())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=churn) for _ in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(120)
            assert not worker.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not failures
    assert blas() == 2


def test_run_batch_without_a_reachable_openblas(monkeypatch):
    pinned = flip_batch()
    monkeypatch.setattr(_batch, "_numpy_openblas", lambda: None)
    unpinned = flip_batch()
    assert np.array_equal(pinned.block_sums, unpinned.block_sums)
