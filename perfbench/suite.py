"""The three workloads: what one op runs, and how its output is checked.

An op is one call into the program under test with one generated
input. ``Workload.make`` builds op ``index`` of a seed's stream,
``Workload.run`` executes it and returns an :class:`Outcome`, and
:func:`check` and :func:`check_counters` list what went wrong against
the references.
Modules of the program are imported inside functions, so importing
this file costs nothing that set-up time should include.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import workloads as gen

#: Offset that moves the warm-up op onto a seed stream of its own.
WARM_SEED = 1_000_003


@dataclass
class Outcome:
    """What one op produced, reduced to what the checks and metrics use."""
    instructions: int = 0
    cells: int = 0
    exit_statuses: dict = field(default_factory=dict)
    faults: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    jit: dict | None = None
    kernel: dict | None = None
    grids: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[int, int], object]          # (seed, index) -> input
    run: Callable[[object], Outcome]
    modules: tuple[str, ...]                     # imported during set-up
    required: tuple[str, ...]                    # boundaries the trace must hit
    bus: str = ""
    procs: int = 1
    opt: bool = False

    @property
    def isa(self) -> bool:
        return bool(self.bus)


# ---------------------------------------------------------------------------
# ISA ops: one C source through run_system
# ---------------------------------------------------------------------------

def _isa_runner(bus: str, procs: int, opt: bool) -> Callable:
    def run(op: gen.IsaOp) -> Outcome:
        from repro.system import run_system
        report = run_system(op.source, bus=bus, procs=procs, opt=opt)
        return Outcome(instructions=report.instructions,
                       exit_statuses=dict(report.exit_statuses),
                       faults=dict(report.faults),
                       counters=report.counters(), jit=report.jit,
                       kernel=report.kernel)
    return run


def reference_counters(source: str, bus: str, procs: int,
                       opt: bool) -> dict:
    """``RunReport.counters()`` of the same program with the JIT off.

    That path runs the predecoded interpreter over the scalar cache and
    scalar MMU, so it is independent of the block-batched fast paths.
    Runs in a reference worker process, outside every timed window.
    """
    from repro.system import run_system
    return run_system(source, bus=bus, procs=procs, opt=opt,
                      jit=False).counters()


def check_isa(workload: Workload, op: gen.IsaOp, out: Outcome) -> list[str]:
    """Faults and exit statuses against the Python mirror."""
    problems = []
    if out.faults:
        problems.append(f"faulted: {out.faults}")
    statuses = sorted(out.exit_statuses.values(), key=repr)
    if statuses != [op.expected] * workload.procs:
        problems.append(f"exit statuses {out.exit_statuses}, "
                        f"mirror says {op.expected}")
    return problems


def check_counters(out: Outcome, reference: dict) -> list[str]:
    """Simulated statistics against the jit=False run of the same program."""
    if out.counters == reference:
        return []
    diff = sorted(k for k in set(out.counters) | set(reference)
                  if out.counters.get(k) != reference.get(k))
    return [f"counters differ from the jit=False run: {diff}"]


# ---------------------------------------------------------------------------
# Life ops: one grid through every engine
# ---------------------------------------------------------------------------

LIFE_ENGINES = ("pthreads", "pthreads-gil", "thread", "process", "cluster")
LIFE_THREADS = 16
LIFE_NODES = 8


@dataclass(frozen=True)
class LifeInput:
    grid: object
    rounds: int


def _life_workers() -> int:
    import os
    return max(1, min(2, os.cpu_count() or 1))


def run_life(inp: LifeInput) -> Outcome:
    from repro.cluster.life import run_cluster_life
    from repro.core.machine import GilConfig
    from repro.life.parallel import ParallelLife, run_parallel_backend
    grid, rounds, workers = inp.grid, inp.rounds, _life_workers()
    grids = {
        "pthreads": ParallelLife(grid, threads=LIFE_THREADS).run(rounds),
        "pthreads-gil": ParallelLife(grid, threads=LIFE_THREADS,
                                     gil=GilConfig()).run(rounds),
        "thread": run_parallel_backend(grid, rounds, workers=workers,
                                       backend="thread", strict=True),
        "process": run_parallel_backend(grid, rounds, workers=workers,
                                        backend="process", strict=True),
        "cluster": run_cluster_life(grid, rounds, nodes=LIFE_NODES).grid,
    }
    return Outcome(cells=grid.size * rounds * len(grids), grids=grids)


def life_oracle(inp: LifeInput):
    """Serial Life, the oracle every engine is pinned to."""
    from repro.life.serial import step
    current = inp.grid.copy()
    for _ in range(inp.rounds):
        current = step(current)
    return current


def check_life(inp: LifeInput, out: Outcome) -> list[str]:
    """Every engine's final grid against serial Life."""
    import numpy as np
    expected = life_oracle(inp)
    return [f"{engine} grid differs from serial Life"
            for engine in LIFE_ENGINES
            if not np.array_equal(out.grids.get(engine), expected)]


def check(workload: Workload, inp, out: Outcome) -> list[str]:
    """The checks that need no reference run; cheap enough to run per op."""
    if workload.isa:
        return check_isa(workload, inp, out)
    return check_life(inp, out)


# ---------------------------------------------------------------------------
# The workload table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scale:
    """Input sizes; ``full`` is the benchmark, ``tiny`` the self-test."""
    proc_size: int
    life_size: int
    life_rounds: int


SCALES = {
    "full": Scale(proc_size=8, life_size=384, life_rounds=8),
    "tiny": Scale(proc_size=4, life_size=24, life_rounds=2),
}

_ISA_CORE = ("isa.ccompiler", "isa.assembler", "isa.exec")


def workloads(scale: str = "full") -> dict[str, Workload]:
    s = SCALES[scale]
    table = [
        Workload(
            name="procs-virtual",
            why="one pass of all 3 kernel families over 8 ints (array "
                "length alone sets op size, ~2.5k instr/process), 2 "
                "processes on the virtual bus + JIT; 0 repeated inputs; "
                "runs bus replay, cache, MMU, TLB, kernel",
            make=lambda seed, i: gen.mixed_op(seed, i, s.proc_size),
            run=_isa_runner("virtual", 2, False),
            modules=("repro.system", "repro.ossim.kernel"),
            required=_ISA_CORE + ("isa.jit.compile", "system.bus.replay",
                                  "memory.simulate_trace",
                                  "vm.translate_many", "vm.mmu_access",
                                  "ossim.kernel"),
            bus="virtual", procs=2),
        Workload(
            name="tiny-opt",
            why="distinct small programs, 300-700 instr, flat bus with "
                "optimizer + JIT; 0 repeated inputs; compile-bound, "
                "bypasses cache, VM and kernel",
            make=gen.tiny_program,
            run=_isa_runner("flat", 1, True),
            modules=("repro.system", "repro.analysis.opt",
                     "repro.analysis.verify"),
            required=_ISA_CORE + ("analysis.opt", "analysis.verify",
                                  "isa.jit.compile"),
            bus="flat", opt=True),
        Workload(
            name="life-lab",
            why=f"seeded {s.life_size}^2 Life grids x {s.life_rounds} "
                "rounds through simulated pthreads (GIL off/on), thread "
                "and process backends, 8-node cluster; bypasses the ISA",
            make=lambda seed, i: LifeInput(
                gen.life_grid(seed, i, s.life_size), s.life_rounds),
            run=run_life,
            modules=("repro.life.parallel", "repro.cluster.life",
                     "repro.core.backends"),
            required=("core.machine", "life.kernel", "life.neighbor_cells",
                      "core.backends", "cluster")),
    ]
    return {w.name: w for w in table}
