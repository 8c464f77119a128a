"""Pluggable executor backends: threads, processes, subinterpreters.

The simulated machine answers *why* CPU-bound Python threads don't scale
(:class:`~repro.core.machine.GilConfig`); this module is the measured
side of the same ablation, and the library's one host-parallel API.
Every backend maps a picklable function over items behind one protocol,
so E19 can run the identical workload on:

``serial``
    A plain loop — the speedup-1.0 baseline.
``thread``
    ``concurrent.futures.ThreadPoolExecutor``. Under a stock (GIL-ful)
    CPython build this is the *negative control*: real threads, shared
    memory, and still no CPU-bound speedup. On a free-threading build
    (PEP 703, ``sys._is_gil_enabled() is False``) the same backend
    becomes truly parallel — the probe reports which world you're in.
``process``
    A persistent ``multiprocessing.Pool`` — the GIL workaround that
    actually scales on multicore hosts, and the standard Python
    counterpart to the pthreads programs the course writes in C.
``subinterpreter``
    One interpreter per worker, each with its own GIL (PEP 734). Needs
    ``concurrent.interpreters`` (3.14+) or the ``_interpreters`` /
    ``_xxsubinterpreters`` bridge; on hosts without it the probe says
    so and :func:`get_backend` falls back instead of crashing.

All four share one ``map``: chunk the items (``block``, ``cyclic``,
``dynamic``, ``guided`` — see :mod:`repro.core.partition`), dispatch the
chunks to the backend's executor, wait, and scatter the results back
into input order. Each call records an
:class:`~repro.core.metrics.OverheadBreakdown` (spawn/dispatch/compute/
sync seconds) with the same field meanings on every backend, so
breakdowns are comparable across the ablation grid.

Executors are **lazy and persistent**: none exists until the first
``map`` with two or more items, and later calls reuse it warm, so only
the first pays spawn (``last_breakdown.spawn`` is 0.0 on a warm call).
Spawning processes costs tens of milliseconds; a fresh pool per call
buries small workloads in startup overhead — exactly the pitfall that
makes students conclude "parallelism made it slower" (E12). Hold one
backend across calls, and ``shutdown()`` it (or use it as a context
manager) when done.

Measured speedup is bounded by the host's physical cores; on a
single-core machine it hovers near (or below) 1×. That is the expected,
documented behaviour — see EXPERIMENTS.md.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, runtime_checkable

from repro.core.metrics import OverheadBreakdown
from repro.core.partition import CHUNK_MODES, chunk_indices
from repro.errors import ReproError

BACKEND_NAMES = ("serial", "thread", "process", "subinterpreter")


def available_cores() -> int:
    return os.cpu_count() or 1


# A picklable CPU-bound kernel for demos and tests.
def burn(n: int) -> int:
    """Spin ``n`` iterations of integer work; returns a checksum."""
    acc = 0
    for i in range(n):
        acc = (acc * 1103515245 + 12345 + i) & 0x7FFFFFFF
    return acc


def gil_enabled() -> bool:
    """Whether this interpreter runs under a GIL.

    ``sys._is_gil_enabled`` exists on 3.13+; older interpreters always
    have the GIL, so its absence means True.
    """
    probe = getattr(sys, "_is_gil_enabled", None)
    if probe is None:
        return True
    return bool(probe())


def _interpreters_module():
    """The best available subinterpreter API, or None.

    3.14 ships ``concurrent.interpreters``; 3.12/3.13 carry the private
    ``_interpreters`` / ``_xxsubinterpreters`` modules it grew out of.
    We only need create/run/destroy, which all three spell compatibly
    enough to probe for. Anything older than 3.12 is rejected even if
    ``_xxsubinterpreters`` imports (3.11 has it): those interpreters
    still *share* one GIL — per-interpreter GILs are PEP 684, 3.12 —
    so the backend would probe "available" yet measure nothing.
    """
    if sys.version_info < (3, 12):
        return None
    for name in ("concurrent.interpreters", "_interpreters",
                 "_xxsubinterpreters"):
        try:
            __import__(name)
        except ImportError:
            continue
        mod = sys.modules[name]
        if all(hasattr(mod, attr) for attr in ("create", "destroy")):
            return mod
    return None


@runtime_checkable
class ExecutorBackend(Protocol):
    """What E19 and the life wrappers program against."""

    name: str
    workers: int
    last_breakdown: OverheadBreakdown

    def map(self, fn: Callable, items: Sequence, *,
            chunk_mode: str = "block",
            chunk_size: int | None = None) -> list: ...

    def shutdown(self) -> None: ...


@dataclass(frozen=True)
class BackendCapability:
    """One row of :func:`probe_backends`."""
    name: str
    available: bool
    parallel: bool           # can it use >1 core for CPU-bound work?
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        mark = "yes" if self.available else "no "
        par = "parallel" if self.parallel else "serial-equivalent"
        return f"{self.name:<15} available={mark} {par:<18} {self.detail}"


# Top-level so every executor can ship it: pickled to processes and
# subinterpreters, called directly by threads.
def _run_chunk(task: tuple) -> tuple:
    fn, indices, items = task
    t0 = time.perf_counter()
    results = [fn(x) for x in items]
    return indices, results, time.perf_counter() - t0


def _chunked_map(self, fn: Callable, items: Sequence, *,
                 chunk_mode: str = "block",
                 chunk_size: int | None = None) -> list:
    """Map ``fn`` over ``items`` on the backend's (possibly warm) executor.

    Results keep input order for every chunk mode. The call's overhead
    breakdown lands in :attr:`last_breakdown`.
    """
    if chunk_mode not in CHUNK_MODES:
        raise ReproError(f"unknown chunk mode {chunk_mode!r}; "
                         f"valid modes: {', '.join(CHUNK_MODES)}")
    n = len(items)
    wall0 = time.perf_counter()
    if n == 0:
        self.last_breakdown = OverheadBreakdown()
        return []
    spawn = self._ensure_started() if n > 1 else 0.0
    if n == 1 or self._executor is None:
        # Deliberate inline path (one item, or a backend without an
        # executor): no worker is touched, so the whole call is
        # compute — but it must still announce itself on the mp track,
        # or span-based comparisons (E12/E19) silently lose warm-up
        # calls.
        out = [fn(x) for x in items]
        wall = time.perf_counter() - wall0
        self.last_breakdown = OverheadBreakdown(compute=wall, wall=wall)
        if self.recorder.enabled:
            self.recorder.complete(
                "inline", ts=self.recorder.now(), dur=wall * 1e6,
                pid="mp", tid="pool", cat="mp",
                args={"seconds": wall, "items": n,
                      "chunk_mode": chunk_mode})
        return out

    t0 = time.perf_counter()
    tasks = [(fn, chunk, [items[i] for i in chunk])
             for chunk in chunk_indices(n, self.workers, chunk_mode,
                                        chunk_size)
             if chunk]
    gather = self._dispatch(tasks)
    dispatch = time.perf_counter() - t0

    t0 = time.perf_counter()
    parts = gather()
    wait = time.perf_counter() - t0

    out: list = [None] * n
    compute = 0.0
    for indices, results, seconds in parts:
        compute += seconds
        for i, r in zip(indices, results):
            out[i] = r
    # the ideal wait is compute spread over the chunks that actually
    # ran, not the pool width: short queues (fewer chunks than workers)
    # can't use every worker, and dividing by self.workers would book
    # that idle width as compute rather than sync
    k = min(self.workers, len(tasks))
    self.last_breakdown = OverheadBreakdown(
        spawn=spawn, dispatch=dispatch, compute=compute,
        sync=max(0.0, wait - compute / k),
        wall=time.perf_counter() - wall0)
    if self.recorder.enabled:
        self._record_map(len(tasks), chunk_mode, spawn, dispatch, wait)
    return out


class _Backend:
    """What every backend shares: worker validation, the lazy executor
    lifecycle and the recorder hooks.

    A backend supplies only its executor — ``_start`` builds it (or
    returns None to run inline), ``_dispatch`` hands it the chunk
    tasks, ``_stop`` tears it down. Each concrete class binds
    :func:`_chunked_map` as its own ``map`` attribute, so a profiler can
    wrap one backend's ``map`` without touching the others.
    """

    def __init__(self, workers: int | None = None, *,
                 recorder=None) -> None:
        from repro.obs.recorder import coalesce
        if workers is not None and workers <= 0:
            raise ReproError("workers must be positive")
        self.workers = workers if workers is not None else available_cores()
        self._executor = None
        self.spawn_count = 0            # how many times workers were created
        self.last_breakdown = OverheadBreakdown()
        #: shared trace recorder (see repro.obs); NULL_RECORDER when
        #: off, and only the process backend takes one
        self.recorder = coalesce(recorder)

    @property
    def is_alive(self) -> bool:
        return self._executor is not None

    def _ensure_started(self) -> float:
        """Start the executor if needed; returns the spawn seconds paid."""
        if self._executor is not None:
            return 0.0
        t0 = time.perf_counter()
        self._executor = self._start()
        if self._executor is None:
            return 0.0
        self.spawn_count += 1
        return time.perf_counter() - t0

    def _start(self):
        return None

    def _dispatch(self, tasks: list) -> Callable[[], list]:
        """Submit every chunk task; returns the call that waits for all
        of them (results in task order)."""
        futures = [self._executor.submit(_run_chunk, task)
                   for task in tasks]
        return lambda: [f.result() for f in futures]

    def _stop(self, executor) -> None:
        executor.shutdown(wait=True)

    def _record_map(self, n_chunks: int, chunk_mode: str,
                    spawn: float, dispatch: float, wait: float) -> None:
        """Emit the call's phases as back-to-back spans on the mp track.

        Wall-clock seconds become microsecond durations (the Chrome
        trace unit) laid out from the recorder's logical clock, so one
        map() call reads as spawn → dispatch → wait in the viewer.
        """
        ts = self.recorder.now()
        phases = [("dispatch", dispatch), ("wait", wait)]
        if spawn:
            phases.insert(0, ("spawn", spawn))
        for name, seconds in phases:
            dur = seconds * 1e6
            self.recorder.complete(
                name, ts=ts, dur=dur, pid="mp", tid="pool", cat="mp",
                args={"seconds": seconds, "workers": self.workers,
                      "chunks": n_chunks, "chunk_mode": chunk_mode})
            ts += dur

    def shutdown(self) -> None:
        """Stop the workers (idempotent). The backend can be restarted —
        the next :meth:`map` lazily starts fresh workers."""
        executor, self._executor = self._executor, None
        if executor is not None:
            self._stop(executor)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class SerialBackend(_Backend):
    """A plain in-process loop; the denominator of every speedup."""

    name = "serial"
    map = _chunked_map

    def __init__(self, workers: int | None = None) -> None:
        super().__init__(workers)
        self.workers = 1


class ThreadBackend(_Backend):
    """``ThreadPoolExecutor`` workers.

    The GIL-bound baseline on stock CPython: dispatch and shared memory
    are nearly free, but CPU-bound chunks serialize on the interpreter
    lock, so expect speedup ≈ 1 (the E19 negative control). On a
    free-threading build the identical code scales — that contrast *is*
    the experiment. I/O-bound or C-extension workloads that release the
    GIL also genuinely overlap here.
    """

    name = "thread"
    map = _chunked_map

    def _start(self):
        from concurrent.futures import ThreadPoolExecutor
        return ThreadPoolExecutor(max_workers=self.workers)


class ProcessBackend(_Backend):
    """A persistent ``multiprocessing.Pool``: the GIL workaround.

    Start-method aware: pass ``start_method="spawn"`` (or ``"fork"``/
    ``"forkserver"``) to override the platform default; under *spawn*,
    mapped functions and items must be importable/picklable in a fresh
    interpreter. Pass a :class:`~repro.obs.TraceRecorder` to see each
    call's spawn/dispatch/wait phases on the ``mp`` track.
    """

    name = "process"
    map = _chunked_map

    def __init__(self, workers: int | None = None, *,
                 start_method: str | None = None, recorder=None) -> None:
        super().__init__(workers, recorder=recorder)
        self._ctx = mp.get_context(start_method)

    def _start(self):
        return self._ctx.Pool(processes=self.workers)

    def _dispatch(self, tasks: list) -> Callable[[], list]:
        # chunksize=1 so the pool's internal task queue *is* the work
        # queue: idle workers pull the next chunk (dynamic scheduling);
        # for block/cyclic there is exactly one chunk per worker anyway.
        return self._executor.map_async(_run_chunk, tasks,
                                        chunksize=1).get

    def _stop(self, pool) -> None:
        try:
            pool.close()
            pool.join()
        except Exception:
            pool.terminate()
            pool.join()
            raise


class SubinterpreterBackend(_Backend):
    """One interpreter (own GIL) per worker — PEP 734 parallelism.

    Only constructible when the host exposes a subinterpreter API (see
    :func:`_interpreters_module`); everywhere else it raises, and
    :func:`probe_backends` / :func:`get_backend` report or fall back
    instead. On hosts that do support it, the interpreters are driven
    through ``InterpreterPoolExecutor``; an exotic partial build with
    interpreters but no executor API runs the calls inline.
    """

    name = "subinterpreter"
    map = _chunked_map

    def __init__(self, workers: int | None = None) -> None:
        super().__init__(workers)
        if _interpreters_module() is None:
            raise ReproError(
                "subinterpreter backend unavailable: this host has none "
                "of concurrent.interpreters / _interpreters / "
                "_xxsubinterpreters (needs CPython >= 3.12 with the "
                "per-interpreter-GIL work); use get_backend(..., "
                "strict=False) to fall back to processes")

    def _start(self):
        try:
            from concurrent.futures import InterpreterPoolExecutor
        except ImportError:
            return None
        return InterpreterPoolExecutor(max_workers=self.workers)


def probe_backends() -> list[BackendCapability]:
    """What this host can actually run — one row per backend.

    Never raises: unavailable backends come back with ``available=False``
    and a human-readable reason, so CI can log the table and *skip*
    what's missing instead of failing.
    """
    free_threaded = not gil_enabled()
    caps = [
        BackendCapability("serial", True, False, "plain loop baseline"),
        BackendCapability(
            "thread", True, free_threaded,
            "free-threading build (no GIL): true parallelism"
            if free_threaded else
            f"GIL-bound on Python {sys.version_info.major}."
            f"{sys.version_info.minor}: concurrency without parallelism"),
    ]
    try:
        import multiprocessing  # noqa: F401  (stdlib, but probe anyway)
        caps.append(BackendCapability(
            "process", True, available_cores() > 1,
            f"{available_cores()} core(s) visible"
            + ("" if available_cores() > 1
               else ": parallel API, serial host")))
    except ImportError as exc:  # pragma: no cover - never on CPython
        caps.append(BackendCapability("process", False, False, str(exc)))
    api = _interpreters_module()
    if api is None:
        caps.append(BackendCapability(
            "subinterpreter", False, False,
            "no interpreters API (needs CPython >= 3.12 "
            "per-interpreter GIL)"))
    else:
        caps.append(BackendCapability(
            "subinterpreter", True, available_cores() > 1,
            f"via {api.__name__}"))
    return caps


_BACKENDS = {cls.name: cls
             for cls in (SerialBackend, ThreadBackend, ProcessBackend)}


def get_backend(name: str, workers: int | None = None, *,
                strict: bool = False, **kwargs) -> ExecutorBackend:
    """Construct a backend by name, degrading gracefully.

    ``kwargs`` go to the named backend's constructor, so a keyword it
    does not take is a ``TypeError`` on every backend, and so is a
    non-positive ``workers`` count a :class:`~repro.errors.ReproError`.
    With ``strict=False`` (the default) an unavailable backend falls
    back: subinterpreter → process. With ``strict=True`` the
    :class:`~repro.errors.ReproError` propagates — for tests and for
    users who would rather fail than silently measure the wrong thing.
    """
    if name not in BACKEND_NAMES:
        raise ReproError(f"unknown backend {name!r}; "
                         f"valid backends: {', '.join(BACKEND_NAMES)}")
    if name != "subinterpreter":
        return _BACKENDS[name](workers, **kwargs)
    try:
        return SubinterpreterBackend(workers, **kwargs)
    except ReproError:
        if strict:
            raise
        return ProcessBackend(workers)
