"""Spans and counts at the module boundaries, recorded from outside.

Nothing in the program under test is edited: :class:`Tracer` replaces
public functions and methods with wrappers, wherever a module binds the
name (a ``from x import f`` copy is patched as well as ``x.f``), and
puts the originals back on :meth:`Tracer.uninstall`.

* A **span** wrapper records ``(name, start, end, parent span, op id)``
  in memory for each call on the main thread. Self time is a span's
  duration minus the part its child spans cover.
* A **count** wrapper only bumps a counter, split by whether a named
  span is open around the call. It is for per-access entry points
  (``MMU.access``, ``Cache.access``, bus ``_account``), where a span
  per call would swamp the run.

Calls on other threads (the thread backend's workers) pass straight
through, so every span has a well-defined parent on one stack.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

# Span boundaries: (metric name, module, attribute path, hook). The hook,
# if any, sees (tracer, args, result) after the call returns.


def _replay_hook(tracer, args, result):
    tracer.counts["system.bus.replay_accesses"] += len(args[-1])


def _translate_hook(tracer, args, result):
    tracer.counts["vm.translate_many_addresses"] += len(args[1])


def _validate_hook(tracer, args, result):
    tracer.counts["analysis.verify.blocks_validated"] += len(args[0])
    tracer.counts["analysis.verify.blocks_rejected"] += len(result)


def _slice_hook(tracer, args, result):
    if tracer._open["ossim.kernel"]:
        tracer.counts["ossim.kernel.slices"] += 1


def _map_hook(tracer, args, result):
    split = args[0].last_breakdown
    for part in ("spawn", "dispatch", "compute", "sync"):
        tracer.totals[f"core.backends.{part}_ms"] += 1000.0 * getattr(
            split, part)


def _region_hook(tracer, args, result):
    tracer.counts["life.cells_updated"] += args[2].cell_count


def _cluster_hook(tracer, args, result):
    net = result.net_counters
    tracer.counts["cluster.net.messages"] += int(net["messages"])
    tracer.counts["cluster.net.bytes"] += int(net["bytes"])


SPANS = [
    ("isa.ccompiler", "repro.isa.ccompiler", "compile_c", None),
    ("isa.assembler", "repro.isa.assembler", "assemble", None),
    ("analysis.opt", "repro.analysis.opt", "optimize_program", None),
    ("analysis.verify", "repro.analysis.verify", "validate_blocks",
     _validate_hook),
    ("isa.jit.compile", "repro.isa.jit", "JitEngine._compile", None),
    ("isa.exec", "repro.isa.machine", "Machine.run", None),
    ("isa.exec", "repro.isa.machine", "Machine.run_slice", _slice_hook),
    ("system.bus.replay", "repro.system.bus", "FlatBus.replay_block",
     _replay_hook),
    ("system.bus.replay", "repro.system.bus", "CachedBus.replay_block",
     _replay_hook),
    ("system.bus.replay", "repro.system.bus", "VirtualBus.replay_block_for",
     _replay_hook),
    ("memory.simulate_trace", "repro.memory.multilevel",
     "CacheHierarchy.simulate_trace", None),
    ("vm.translate_many", "repro.vm.mmu", "MMU.translate_many",
     _translate_hook),
    ("ossim.kernel", "repro.ossim.kernel", "Kernel.run", None),
    ("core.machine", "repro.core.machine", "SimMachine.run", None),
    ("life.kernel", "repro.life.parallel", "step_region", _region_hook),
    ("life.kernel", "repro.life.serial", "step_band", None),
    ("core.backends", "repro.core.backends", "ThreadBackend.map", _map_hook),
    ("core.backends", "repro.core.backends", "ProcessBackend.map",
     _map_hook),
    ("cluster", "repro.cluster.life", "run_cluster_life", _cluster_hook),
]

# Count-only boundaries: (count name, module, attribute path, enclosing
# span name, weight). The count is kept twice, "<name>.in" for calls
# under the enclosing span and "<name>.out" for the rest; ``weight``
# maps the call's arguments to the amount counted (default 1).
COUNTS = [
    ("vm.mmu_access", "repro.vm.mmu", "MMU.access", "vm.translate_many",
     None),
    ("memory.cache_access", "repro.memory.cache", "Cache.access",
     "memory.simulate_trace", None),
    ("system.bus.scalar", "repro.system.bus", "CachedBus._account",
     "system.bus.replay", None),
    ("system.bus.scalar", "repro.system.bus", "VirtualBus._account",
     "system.bus.replay", None),
    ("life.neighbor_cells", "repro.life.serial", "neighbor_counts",
     "life.kernel", lambda args: args[0].size),
]


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at top level
    op: int | None


@dataclass
class Tracer:
    """Installs the wrappers and holds what they record."""
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    totals: defaultdict = field(default_factory=lambda: defaultdict(float))
    op: int | None = None
    active: bool = False
    _stack: list[int] = field(default_factory=list)
    _open: Counter = field(default_factory=Counter)
    _undo: list[tuple[object, str, object]] = field(default_factory=list)
    _main: int = field(default_factory=threading.get_ident)

    # -- recording -------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self.op))
        self._stack.append(index)
        self._open[name] += 1
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span.end = perf_counter()
        self._stack.pop()
        self._open[span.name] -= 1

    def _span_wrapper(self, name: str, fn: Callable, hook) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active or threading.get_ident() != tracer._main:
                return fn(*args, **kwargs)
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if hook is not None:
                hook(tracer, args, result)
            return result
        return traced

    def _count_wrapper(self, name: str, fn: Callable, within: str,
                       weight) -> Callable:
        tracer = self
        inside, outside = f"{name}.in", f"{name}.out"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.active and threading.get_ident() == tracer._main:
                key = inside if tracer._open[within] else outside
                tracer.counts[key] += weight(args) if weight else 1
            return fn(*args, **kwargs)
        return counted

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary; call before any layer object is built."""
        for name, module, path, hook in SPANS:
            self._patch(module, path,
                        lambda fn, n=name, h=hook: self._span_wrapper(n, fn, h))
        for name, module, path, within, weight in COUNTS:
            self._patch(module, path,
                        lambda fn, n=name, w=within, g=weight:
                        self._count_wrapper(n, fn, w, g))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, module: str, path: str, make: Callable) -> None:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        wrapper = make(original)
        if outer:
            self._set(owner, attr, original, wrapper)
            return
        # a module-level function: patch every program module that bound it
        for name, mod in list(sys.modules.items()):
            if (name.split(".")[0] == "repro"
                    and getattr(mod, attr, None) is original):
                self._set(mod, attr, original, wrapper)

    def _set(self, owner, attr: str, original, wrapper) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- reading ---------------------------------------------------------

    def self_ms(self) -> dict[str, float]:
        """Milliseconds of self time per span name."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        out: dict[str, float] = defaultdict(float)
        for span, covered in zip(self.spans, child):
            out[span.name] += 1000.0 * (span.end - span.start - covered)
        return out

    def total_ms(self) -> dict[str, float]:
        """Milliseconds of outermost-span time per name (nesting counted once)."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            parent = span.parent
            while parent >= 0 and self.spans[parent].name != span.name:
                parent = self.spans[parent].parent
            if parent < 0:
                out[span.name] += 1000.0 * (span.end - span.start)
        return out

    def calls(self) -> Counter:
        return Counter(span.name for span in self.spans)

    def hit(self) -> set[str]:
        hit = {span.name for span in self.spans}
        hit |= {key.rsplit(".", 1)[0] for key, n in self.counts.items()
                if n and key.endswith((".in", ".out"))}
        return hit

    def dump(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "op": s.op} for s in self.spans]
