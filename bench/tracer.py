"""Per-layer spans recorded around calls into qjump's public functions.

Nothing under src/ is instrumented.  After ``import qjump`` the tracer
replaces each traced function by a wrapper in every qjump module namespace
that holds it, so calls made through ``from .x import f`` bindings are seen
too.  A function a later version removes is simply reported with zero calls.

Time accounting.  The traced window is partitioned exactly: between two span
events, every thread's innermost open span is busy, except a span that is
waiting on spans it started in other threads (the engine waiting on its
pool).  The interval is split evenly among the busy spans; with none busy it
is ``unattributed``.  So per span name, ``wall`` (its share of the window)
summed over names plus ``unattributed`` equals the window, with any number
of threads.  In a single thread ``wall`` is the usual self time.  ``busy`` is
self time per thread (thread-seconds) and is what per-call rates use.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

clock = time.perf_counter


class _Span:
    __slots__ = ("name", "start", "child_time", "remote_parent", "remote_live")

    def __init__(self, name: str, start: float, remote_parent: "_Span | None") -> None:
        self.name = name
        self.start = start
        self.child_time = 0.0
        self.remote_parent = remote_parent
        self.remote_live = 0


class Tracer:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stacks: dict[int, list[_Span]] = {}
        self._t0 = self._last = 0.0
        self.wall: dict[str, float] = defaultdict(float)
        self.busy: dict[str, float] = defaultdict(float)
        self.total: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.unattributed = 0.0
        self.window = 0.0

    def start(self) -> None:
        self._t0 = self._last = clock()

    def stop(self) -> None:
        with self._lock:
            self._advance(clock())
            self.window = self._last - self._t0

    def _advance(self, now: float) -> None:
        busy = [s[-1] for s in self._stacks.values() if s and s[-1].remote_live == 0]
        gap = now - self._last
        if busy:
            share = gap / len(busy)
            for span in busy:
                self.wall[span.name] += share
        else:
            self.unattributed += gap
        self._last = now

    def add(self, key: str, amount: float) -> None:
        """Thread-safe counts[key] += amount; worker threads count too."""
        with self._lock:
            self.counts[key] += amount

    def peak(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] = max(self.counts[key], value)

    def current(self) -> _Span | None:
        stack = self._stacks.get(threading.get_ident())
        return stack[-1] if stack else None

    def enter(self, name: str, remote_parent: _Span | None = None) -> _Span:
        tid = threading.get_ident()
        with self._lock:
            now = clock()
            self._advance(now)
            span = _Span(name, now, remote_parent)
            if remote_parent is not None:
                remote_parent.remote_live += 1
            self._stacks.setdefault(tid, []).append(span)
            return span

    def exit(self, span: _Span) -> None:
        tid = threading.get_ident()
        with self._lock:
            now = clock()
            self._advance(now)
            stack = self._stacks[tid]
            if stack.pop() is not span:
                raise RuntimeError(f"span {span.name} closed out of order")
            duration = now - span.start
            self.calls[span.name] += 1
            self.total[span.name] += duration
            self.busy[span.name] += duration - span.child_time
            if stack:
                stack[-1].child_time += duration
            if span.remote_parent is not None:
                span.remote_parent.remote_live -= 1

    def wrap(self, name: str, fn, before=None, after=None):
        """fn inside a span; before(args, kwargs) and after(args, result) run outside it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(span)
            if after is not None:
                after(args, result)
            return result

        return wrapper


def _qjump_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n == "qjump" or n.startswith("qjump.")]


def _replace(module_name: str, attr: str, make, everywhere: bool = True) -> None:
    """Swap module.attr for make(original) wherever qjump binds the original."""
    module = sys.modules.get(module_name)
    original = getattr(module, attr, None)
    if original is None:
        return
    replacement = make(original)
    for mod in _qjump_modules() if everywhere else [module]:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def _rhs_block_flops(args, kwargs, tracer: Tracer) -> None:
    """Real flops of one rhs_block call, computed from d, n_active and M."""
    if len(args) < 2 or len(getattr(args[1], "shape", ())) != 2:
        return
    flow, psi = args[0], args[1]
    want_rate = kwargs.get("want_rate", args[2] if len(args) > 2 else False)
    d, m = psi.shape
    ka = int(getattr(flow, "n_active", 0))
    mac = (1 + ka) * d * d + 2 * d  # stacked product, <psi|v>, projection
    if ka:
        mac += 2 * ka * d + ka * ka  # expectations, gain, coupling sum
        if want_rate:
            mac += ka * ka * (d + 1)  # cross terms of the rate
    tracer.add("flow.rhs_block.flop", 8.0 * mac * m)  # one complex multiply-add = 8 real flops
    tracer.add("flow.rhs_block.cols", m)


def install(tracer: Tracer) -> None:
    """Wrap the traced qjump functions; call after every qjump module is imported."""
    spans = [
        ("qjump._flow", "compile_flow", "flow.compile_flow", None, None),
        ("qjump._flow", "rhs_block", "flow.rhs_block", lambda a, k: _rhs_block_flops(a, k, tracer), None),
        ("qjump._flow", "rk4_step_block", "flow.rk4_step_block", None, None),
        ("qjump._batch", "run_batch", "batch.run_batch", None, None),
        ("qjump.unraveling", "jump_channels", "unraveling.jump_channels", None, None),
        ("qjump.linalg", "eigh_phase_fixed", "linalg.eigh_phase_fixed", None, None),
        ("qjump.generator", "apply_generator", "generator.apply_generator", None, None),
        ("qjump.ensemble", "run_ensemble", "ensemble.run_ensemble", None, None),
        ("qjump.ensemble", "master_evolve", "ensemble.master_evolve", None, None),
        ("qjump.ensemble", "_jackknife_errors", "ensemble._jackknife_errors", None, None),
        ("qjump.trajectory", "maybe_jump", "trajectory.maybe_jump", None, None),
        ("qjump.config", "parse_config", "config.parse_config", None, None),
        ("qjump.cli", "cmd_trajectory", "cli.cmd_trajectory", None, None),
        ("qjump.cli", "cmd_ensemble", "cli.cmd_ensemble", None, None),
    ]
    for module, attr, name, before, after in spans:
        _replace(module, attr, lambda fn, name=name, b=before, a=after: tracer.wrap(name, fn, b, a))

    def count_steps(args, record) -> None:
        times = getattr(record, "times", None)
        if times is not None:
            tracer.add("trajectory.steps", len(times) - 1)

    _replace("qjump.trajectory", "run_trajectory", lambda fn: tracer.wrap("trajectory.run_trajectory", fn, after=count_steps))

    def count_bytes(args, result) -> None:
        if args:
            tracer.add("io.bytes_written", os.path.getsize(args[0]))

    _replace("qjump._io", "write_lines", lambda fn: tracer.wrap("io.write_lines", fn, after=count_bytes))

    # the M=1 adapter as the single-trajectory engine calls it
    _replace("qjump.trajectory", "rk4_step", lambda fn: tracer.wrap("trajectory.rk4_step", fn), everywhere=False)

    # one select_channel call per jump the batch engine applies
    def count_jump(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.add("batch.jumps", 1)
            return fn(*args, **kwargs)

        return wrapper

    _replace("qjump._batch", "select_channel", count_jump, everywhere=False)

    # Philox: keying a stream and drawing its uniforms, as the engine does it
    class TimedGenerator:
        def __init__(self, gen) -> None:
            self._gen = gen

        def random(self, *args, **kwargs):
            span = tracer.enter("batch.philox")
            try:
                out = self._gen.random(*args, **kwargs)
            finally:
                tracer.exit(span)
            tracer.peak("batch.uniforms_max_draw_bytes", out.nbytes)
            return out

        def __getattr__(self, name):
            return getattr(self._gen, name)

    def keyed(fn):
        inner = tracer.wrap("batch.philox", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return TimedGenerator(inner(*args, **kwargs))

        return wrapper

    _replace("qjump._batch", "trajectory_rng", keyed, everywhere=False)

    # chunks run by the engine's pool are children of the span that submitted them
    class TracedPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            parent = tracer.current()

            def chunk():
                span = tracer.enter("batch.chunk", remote_parent=parent)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.exit(span)

            return super().submit(chunk)

    _replace("qjump._batch", "ThreadPoolExecutor", lambda cls: TracedPool, everywhere=False)
