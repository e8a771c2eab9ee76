"""Vectorized multi-trajectory engine and the one step policy it shares.

Evolves many trajectories of one generator at once.  A run's
trajectories are held as their distinct states, the columns of one
(d, S) block, and an owner map that gives each trajectory its state, so
each Runge-Kutta stage is a single stacked matrix product over the
distinct states only.  Every trajectory owns a Philox stream keyed by
(seed, trajectory_index), which it reads as one pair of uniforms at
t = 0 and one after each of its jumps.  The engine runs its one block in
the calling thread, and the order of every reduction is fixed by the
config alone, so output bytes depend only on the config.  Memory does
not grow with n_steps: per trajectory the block holds its jump clock, the
block of 4 doubles its next pairs come from, a pair count and its index,
under 100 B.  philox_uniforms evaluates the blocks of many streams at
once, so no per-trajectory generator is built.

Both engines share everything but their reductions: run_batch reduces
its block to per-snapshot sums, trajectory.run_trajectories keeps every
step of its requested indices.  run_batch takes the checked
ensemble.EnsembleConfig and integrate a checked trajectory.TrajectoryConfig,
so neither repeats a check of its config; prepare checks the rest.
integrate is the one step loop: it starts every trajectory on one shared
psi0 and takes every step through jump_step, with a jump clock per
trajectory (Dalibard, Castin & Molmer 1992): a pair (a, b) sets the
threshold -log(1 - a), the trajectory jumps on the step in which its
integrated decay, the sum of w dt since the pair was drawn, passes it,
and b selects the channel by cumulative scan; a step jumps at t, then
flows to t + dt.
Trajectories share a state until a jump of their own separates them: the
ones that jump from one state through one channel on one step share the
new state, so there are never more states than trajectories.  The flow
evaluation of a state, carried into the next step, gives both w and the
first Runge-Kutta stage; it, the Runge-Kutta step and the norm drift are
computed once per state however many trajectories hold it, and the
channels once per state that some trajectory jumps from, in one stacked
_flow.channels_block call.  jump_step is also the one judge of a step,
and judges only the states that some trajectory keeps or jumps to.  Each
trajectory still decides with its own clock, and its jump decisions
and verdicts depend only on its stream and its own state, never on which
trajectories share its block or its state; its last bits may, since BLAS
sums a block of several states in another order than a single one.  expectations
gives both drivers' observable values, once per state, and
warn_jump_prob their one warning when a step's jump probability passed
JUMP_PROB_WARN.

For the duration of run_batch (and of ensemble.run_ensemble, which
includes the oracle and the jackknife) numpy's OpenBLAS is lowered to
one thread, process-wide: a BLAS thread count that follows the machine
would make output bytes follow it too.  Where numpy's BLAS is not an
OpenBLAS this module can reach (MKL, Accelerate, no /proc/self/maps),
BLAS threading is left as found.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import sys
import threading
import warnings
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import _flow
from .errors import DimensionMismatch, EmptyChannels, NegativeRate, StepTooLarge
from .generator import GeneratorSpec
from .linalg import as_state, normalize

if TYPE_CHECKING:  # ensemble and trajectory import this module
    from .ensemble import EnsembleConfig
    from .trajectory import TrajectoryConfig

JUMP_PROB_WARN = 0.1
JUMP_PROB_MAX = 0.5
NORM_DRIFT_MAX = 1e-3
RATE_FLOOR_ABS = 1e-9
JACKKNIFE_BLOCKS = 10

# frames warn_jump_prob skips: this package's and single_blas_thread's contextlib wrapper
_INSIDE = (os.path.dirname(__file__) + os.sep, contextlib.__file__)


# (get, set) symbol names of the OpenBLAS thread count: the scipy-openblas
# builds numpy's wheels bundle (64-bit and 32-bit integer), then a plain
# system OpenBLAS
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _numpy_openblas() -> tuple | None:
    """(get, set) thread-count functions of the OpenBLAS numpy loaded, or None.

    Looks through the libraries mapped into this process for an OpenBLAS
    that is numpy's: one numpy's wheel bundles (numpy.libs/) or a system
    one, but not a copy another wheel bundles for itself (scipy.libs/),
    which numpy never calls.  RTLD_NOLOAD binds to the mapped library and
    never loads a second copy.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            paths = sorted({f[5].strip() for f in (line.split(None, 5) for line in maps) if len(f) == 6})
    except OSError:
        return None
    for path in paths:
        home = os.path.basename(os.path.dirname(path))
        if "openblas" not in path.lower() or (home.endswith(".libs") and home != "numpy.libs"):
            continue
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved = 1


@contextlib.contextmanager
def single_blas_thread():
    """Run the body with numpy's OpenBLAS at one thread; restore its count after.

    Entries are counted under a lock, so overlapping or nested uses (two
    runs from two threads, run_batch inside run_ensemble) restore the
    count when the last one leaves.  Does nothing where _numpy_openblas
    finds no library.
    """
    global _pin_depth, _pin_saved
    api = _numpy_openblas()
    if api is None:
        yield
        return
    get, set_ = api
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = get()
            set_(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                set_(_pin_saved)


def trajectory_rng(seed: int, trajectory_index: int) -> np.random.Generator:
    """Philox stream keyed by (seed, trajectory_index): the reference definition of a trajectory's stream.

    Counter-based, so streams for different indices are independent and
    a single trajectory can be replayed without generating the others.
    The key layout (seed first, index second) is part of the stable
    on-disk reproducibility contract.  The engine reads the same doubles
    through philox_uniforms and never builds a generator.
    """
    key = np.array([seed, trajectory_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# Random123's Philox4x64 multipliers and Weyl key increments, as numpy's Philox uses them
_PHILOX_MUL = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_WEYL = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_LOW, _HALF = np.uint64(0xFFFFFFFF), np.uint64(32)
_PHILOX_MUL_LO, _PHILOX_MUL_HI = _PHILOX_MUL & _LOW, _PHILOX_MUL >> _HALF


def philox_uniforms(seed: int, keys: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """(4, M) doubles of block blocks[j] of the stream (seed, keys[j]) in column j.

    Block b holds the doubles 4b ... 4b + 3 of trajectory_rng(seed, keys[j]).random:
    Philox4x64-10 at counter b + 1 (numpy increments the counter before
    each block), each word w read as (w >> 11) 2^-53.  One evaluation over
    all M columns, in uint64 arithmetic, with each 128-bit product's high
    word built from 32-bit halves.
    """
    x = np.zeros((2, len(keys)), dtype=np.uint64)  # counter words 0 and 2
    y = np.zeros_like(x)  # counter words 1 and 3
    x[0] = blocks
    x[0] += 1
    key = np.empty_like(x)
    key[0] = seed
    key[1] = keys
    for _ in range(10):
        lo = x * _PHILOX_MUL
        # high words of x * _PHILOX_MUL, in place over x (Hacker's Delight mulhu)
        x_lo = x & _LOW
        x >>= _HALF
        t = x * _PHILOX_MUL_LO
        t += (x_lo * _PHILOX_MUL_LO) >> _HALF
        x_lo *= _PHILOX_MUL_HI
        x_lo += t & _LOW
        x *= _PHILOX_MUL_HI
        x += t >> _HALF
        x += x_lo >> _HALF
        # Random123's round: (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0)
        x = x[::-1] ^ y
        x ^= key
        key += _PHILOX_WEYL
        y = lo[::-1]
    out = np.stack([x[0], y[0], x[1], y[1]])
    out >>= 11
    return out * 2.0**-53


def select_channel(rates: np.ndarray, u2: float) -> int:
    """Channel index chosen with probability rate / total by cumulative scan."""
    if rates.size == 0:
        raise EmptyChannels("cannot select a channel from no channel rates")
    threshold = u2 * float(rates.sum())
    running = 0.0
    for n, rate in enumerate(rates):
        running += float(rate)
        if threshold < running:
            return n
    return int(rates.size - 1)


def _where(index: int, k: int, dt: float) -> str:
    return f"trajectory {index} at t={k * dt:.12g}"


def _first(mask: np.ndarray) -> int | None:
    """Position of mask's first True, or None: one argmax, cheaper per step than flatnonzero or any."""
    j = int(mask.argmax())
    return j if mask[j] else None


def _first_owner(flagged: np.ndarray, owner: np.ndarray) -> int | None:
    """First column whose state is flagged, or None; reads the columns only when some state is."""
    if _first(flagged) is None:
        return None
    return _first(flagged[owner])


def jump_step(
    flow: _flow.CompiledFlow,
    states: np.ndarray,
    owner: np.ndarray,
    evaluation: tuple[np.ndarray, np.ndarray],
    dt: float,
    u: np.ndarray,
    step: int,
    indices: Sequence[int],
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray], tuple[float, int], list[tuple[int, float, int]]]:
    """One step of the jump policy for every column of a block of shared states.

    Column j is trajectory indices[j] and holds the state states[:, owner[j]]
    of the (d, S) block states; every state is held by some column.
    evaluation is _flow.rhs_block(flow, states): the flow rhs and the decay
    rate w of each state.  It supplies both the jump probability w dt and
    the first Runge-Kutta stage, so each state is evaluated once however
    many columns hold it.  u[:, j] is column j's jump clock (see integrate):
    u[0, j] is what is left of its threshold and u[1, j] the uniform that
    picks the channel of the jump that ends it.  The step lands on
    t = (step + 1) dt; errors name both, for the first column in column
    order whose own state fails a check.  Column j jumps when
    u[0, j] < w dt, at the start of the step, to the channel that u[1, j]
    selects, which then flows to t.  The step spends w dt of every
    column's u[0], in place; integrate redraws the clock of a column that
    jumped.  The channels are
    found once per state that a column jumps from, and the columns that
    jump from one state through one channel share one new state.  Each
    state that some column keeps, and each new state, takes the Runge-Kutta
    step once in one block, and only those steps are held to
    NORM_DRIFT_MAX; a state that no column keeps is dropped unjudged.

    Returns the next block of states, the owner of each column in it, its
    evaluation, the step's largest jump probability with the trajectory
    index of the first column to reach it, and the jumps as (column,
    channel rate, channel index) in column order.
    """
    k1, rate = evaluation
    j = _first_owner(rate < -_flow.RATE_CLAMP, owner)
    if j is not None:
        raise NegativeRate(
            f"{_where(indices[j], step + 1, dt)}: total decay rate {rate[owner[j]]:.3e} is negative beyond roundoff"
        )
    rate = np.maximum(rate, 0.0)
    prob = rate * dt
    # a negated in-bounds test, so that a NaN or inf probability fails it too
    j = _first_owner(~(prob <= JUMP_PROB_MAX), owner)
    if j is not None:
        raise StepTooLarge(
            f"{_where(indices[j], step + 1, dt)}: jump probability {prob[owner[j]]:.3f} per step exceeds {JUMP_PROB_MAX}; reduce dt"
        )
    column_prob = prob[owner]
    highest = int(column_prob.argmax())
    fires = u[0] < column_prob
    u[0] -= column_prob
    jumps: list[tuple[int, float, int]] = []
    targets: list[np.ndarray] = []
    slot_of: dict[tuple[int, int], int] = {}  # (source, channel) -> position in targets
    slots: list[int] = []  # position in targets of each jump's target
    if _first(fires) is not None:
        jumping = np.flatnonzero(fires)
        sources, which = np.unique(owner[jumping], return_inverse=True)
        found = _flow.channels_block(flow, states[:, sources])
        for j, n in zip(jumping.tolist(), which.tolist()):
            rates, channels = found[n]
            if rates.size == 0:
                if rate[sources[n]] > RATE_FLOOR_ABS:
                    raise EmptyChannels(
                        f"{_where(indices[j], step + 1, dt)}: decay rate {rate[sources[n]]:.3e} but every channel was filtered out"
                    )
                continue
            chosen = select_channel(rates, float(u[1, j]))
            jumps.append((j, float(rates[chosen]), chosen))
            slot = slot_of.setdefault((n, chosen), len(targets))
            if slot == len(targets):
                targets.append(channels[:, chosen])
            slots.append(slot)
    if jumps:
        moved = [j for j, _, _ in jumps]
        stays = np.ones(owner.size, dtype=bool)
        stays[moved] = False
        kept = np.zeros(states.shape[1], dtype=bool)
        kept[owner[stays]] = True
        keep = np.flatnonzero(kept)
        # the kept states, in their order, then the targets
        owner = np.cumsum(kept)[owner] - 1
        owner[moved] = keep.size + np.asarray(slots)
        targets = np.stack(targets, axis=1)
        states = np.concatenate([states[:, keep], targets], axis=1)
        k1 = np.concatenate([k1[:, keep], _flow.rhs_block(flow, targets)[0]], axis=1)
    states, drift = _flow.rk4_step_block(flow, states, dt, k1=k1)
    # negated as above, so that a non-finite state fails too
    j = _first_owner(~(drift <= NORM_DRIFT_MAX), owner)
    if j is not None:
        raise StepTooLarge(
            f"{_where(indices[j], step + 1, dt)}: pre-renormalization norm drifted by {drift[owner[j]]:.3e} > {NORM_DRIFT_MAX:.1e}; reduce dt"
        )
    return states, owner, _flow.rhs_block(flow, states), (float(column_prob[highest]), indices[highest]), jumps


# (jump probability, trajectory index, k) of the first step to reach a run's largest probability
Peak = tuple[float, int, int]


def integrate(
    flow: _flow.CompiledFlow, psi0: np.ndarray, cfg: TrajectoryConfig, indices: Sequence[int]
) -> Iterator[tuple[int, np.ndarray, np.ndarray, list[tuple[int, float, int]], Peak]]:
    """Take len(indices) trajectories from psi0 through the n_steps steps of jump_step.

    cfg is the run's checked TrajectoryConfig, of which only the grid and
    the seed are read.  Column j is trajectory indices[j] and reads the
    stream trajectory_rng(cfg.seed, indices[j]) as pairs (a, b): pair 0 at
    t = 0 and pair n after its n-th jump.  A pair sets the column's jump
    clock to the threshold -log(1 - a) and the channel uniform b; the
    column jumps on the step in which the decay it has integrated since
    then, the sum of w dt, passes the threshold.  A column's next pair
    waits in the block of 4 doubles it holds, pairs 2b and 2b + 1 of
    block b.  When a column that has read both pairs of its block jumps,
    one philox_uniforms call refills the next block of every column that
    has read both, so a run makes far fewer calls than steps; which call
    fills a block does not change its doubles.  Every column starts on one
    shared copy of psi0 and shares its state with the columns that have
    made the same jumps so far, until a jump of its own separates it.
    Yields (k, states, owner, jumps, peak) for k = 0 ... n_steps: the (d, S)
    block of distinct states at t = k dt, in which column j holds
    states[:, owner[j]], the jumps of the step that landed on it and the
    columns' Peak so far.
    """
    dt, n_steps = cfg.dt, cfg.n_steps
    keys = np.fromiter(indices, dtype=np.uint64, count=len(indices))
    pooled = np.zeros(keys.size, dtype=np.int64)  # the block in pool, which holds pairs 2b and 2b + 1
    pool = philox_uniforms(cfg.seed, keys, pooled)
    drawn = np.ones(keys.size, dtype=np.int64)  # pairs read so far: pair 1 waits in pool[2:]
    clock = np.stack([-np.log1p(-pool[0]), pool[1]])
    states = psi0[:, None]
    owner = np.zeros(keys.size, dtype=np.intp)
    evaluation = _flow.rhs_block(flow, states)
    peak: Peak = (0.0, indices[0], 0)
    yield 0, states, owner, [], peak
    for i in range(n_steps):
        states, owner, evaluation, (prob, index), jumps = jump_step(
            flow, states, owner, evaluation, dt, clock, i, indices
        )
        if jumps:
            jumped = np.array([j for j, _, _ in jumps])
            if _first(pooled[jumped] < drawn[jumped] // 2) is not None:
                # a jumper has read both pairs of its block: refill every column that has
                spent = np.flatnonzero(pooled < drawn // 2)
                pooled[spent] += 1
                pool[:, spent] = philox_uniforms(cfg.seed, keys[spent], pooled[spent])
            pair = drawn[jumped] % 2
            clock[0, jumped] = -np.log1p(-pool[2 * pair, jumped])
            clock[1, jumped] = pool[2 * pair + 1, jumped]
            drawn[jumped] += 1
        if prob > peak[0]:
            peak = (prob, index, i + 1)
        yield i + 1, states, owner, jumps, peak


def warn_jump_prob(peak: Peak, dt: float) -> float:
    """Warn once if a run's Peak is above JUMP_PROB_WARN; return its probability.

    The warning points at the first frame outside this package: the caller of the run.
    """
    prob, index, k = peak
    if prob > JUMP_PROB_WARN:
        frame, level = sys._getframe(1), 2
        while frame is not None and frame.f_code.co_filename.startswith(_INSIDE):
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"{_where(index, k, dt)}: jump probability {prob:.3f} per step exceeds {JUMP_PROB_WARN}: discretization bias is first order in dt",
            stacklevel=level,
        )
    return prob


def prepare(
    spec: GeneratorSpec, psi0: np.ndarray, observables: Sequence[np.ndarray]
) -> tuple[_flow.CompiledFlow, np.ndarray, np.ndarray]:
    """Check a run's inputs; return its compiled flow, normalized psi0 and (K d, d) observable stack."""
    flow = _flow.compile_flow(spec)
    psi0 = normalize(as_state(psi0))
    d = spec.dim
    if psi0.shape[0] != d:
        raise DimensionMismatch(f"state dimension {psi0.shape[0]} does not match generator dimension {d}")
    mats = [np.asarray(o, dtype=np.complex128) for o in observables]
    for k, o in enumerate(mats):
        if o.shape != (d, d):
            raise DimensionMismatch(f"observable {k} has shape {o.shape}, expected {(d, d)}")
    return flow, psi0, np.asarray(mats, dtype=np.complex128).reshape(-1, d)


def expectations(obs_stack: np.ndarray, states: np.ndarray) -> np.ndarray:
    """(M, K) expectations of the K stacked observables in the M columns of states: one product, one vecdot."""
    d, m = states.shape
    return np.vecdot(states, (obs_stack @ states).reshape(-1, d, m), axis=-2).real.T


@dataclass
class BatchResult:
    """Reduced per-snapshot sums over all trajectories, one snapshot per step of the config's snapshot_steps."""

    block_counts: np.ndarray  # (n_blocks,) trajectories per jackknife block
    block_sums: np.ndarray  # (S, n_blocks, d, d) sums of projectors
    obs_sum: np.ndarray  # (S, K) sums of observable expectations
    obs_sqdev: np.ndarray  # (S, K) sums of squared deviations of the expectations from their mean
    max_jump_prob: float


@single_blas_thread()
def run_batch(spec: GeneratorSpec, psi0: np.ndarray, cfg: EnsembleConfig) -> BatchResult:
    """Run trajectories 0 ... cfg.n_trajectories - 1 from psi0 and reduce them at cfg.snapshot_steps.

    cfg is the checked EnsembleConfig: its snapshot steps are distinct
    steps of its base's grid and it has at least one trajectory.  Every
    trajectory is integrated in one block, in the calling thread.  The
    trajectories fall into min(JACKKNIFE_BLOCKS, n_trajectories) jackknife
    blocks of consecutive indices, and the observables are those of
    cfg.base, in its order.  obs_sqdev sums squared deviations from the
    mean of all trajectories (two passes), so it keeps its digits when the
    spread is tiny next to the mean.
    """
    base = cfg.base
    flow, psi0, obs_stack = prepare(spec, psi0, list(base.observables.values()))
    d = spec.dim
    m = cfg.n_trajectories
    n_blocks = min(JACKKNIFE_BLOCKS, m)
    slot_of = {step: slot for slot, step in enumerate(cfg.snapshot_steps)}
    n_snap = len(slot_of)
    block_counts = np.bincount((np.arange(m, dtype=np.int64) * n_blocks) // m, minlength=n_blocks)
    # each jackknife block is one contiguous range of consecutive trajectory indices
    edges = [0, *np.cumsum(block_counts).tolist()]
    block_sums = np.zeros((n_snap, n_blocks, d, d), dtype=np.complex128)
    obs_sum = np.zeros((n_snap, len(base.observables)), dtype=np.float64)
    obs_sqdev = np.zeros_like(obs_sum)
    for k, states, owner, _, peak in integrate(flow, psi0, base, range(m)):
        slot = slot_of.get(k)
        if slot is None:
            continue
        # each state's projector once per block, weighted by the block's columns that hold it
        for block, (c0, c1) in enumerate(zip(edges, edges[1:])):
            counts = np.bincount(owner[c0:c1], minlength=states.shape[1])
            block_sums[slot, block] = (states * counts) @ states.conj().T
        vals = expectations(obs_stack, states)[owner]
        obs_sum[slot] = vals.sum(axis=0)
        obs_sqdev[slot] = ((vals - obs_sum[slot] / m) ** 2).sum(axis=0)
    return BatchResult(
        block_counts=block_counts,
        block_sums=block_sums,
        obs_sum=obs_sum,
        obs_sqdev=obs_sqdev,
        max_jump_prob=warn_jump_prob(peak, base.dt),
    )
