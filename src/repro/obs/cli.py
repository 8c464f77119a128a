"""``python -m repro trace`` — trace a demo workload and profile it.

Each demo drives one simulator with a shared :class:`TraceRecorder`
attached; ``all`` runs every demo into a single recorder so the tracks
sit side by side in the viewer. The profile report always prints;
``--chrome OUT.json`` additionally writes a validated Chrome trace, and
``validate`` checks one already on disk (see
:func:`repro.obs.chrome.validate_main`)::

    python -m repro trace isa
    python -m repro trace all --chrome trace.json --top 5
    python -m repro trace validate trace.json --lane "core 0"
"""

from __future__ import annotations

from typing import Callable

from repro.obs.chrome import validate_main, write_chrome
from repro.obs.recorder import TraceRecorder
from repro.obs.report import profile_report

USAGE = """\
usage: python -m repro trace DEMO [--chrome OUT.json] [--top N]
                                  [--sample N] [--counters-only]
                                  [--capacity K]
       python -m repro trace validate FILE [--lane NAME ...]

demos: {demos}

Runs the demo with a trace recorder attached to every simulator it
touches, prints the text profile, and (with --chrome) writes a
Perfetto-loadable Chrome trace-event JSON file.

Recording policy (see repro.obs.recorder):
  --sample N        keep 1 in N events per category (exact dropped
                    accounting; durable B/E nesting always kept)
  --counters-only   fold every category into aggregate counters —
                    near-zero storage, final values still exact
  --capacity K      ring-buffer capacity in events (default 65536)"""


# -- demo workloads (each returns a one-line summary) -----------------------

def _demo_isa(rec: TraceRecorder) -> str:
    from repro.isa import Machine, assemble
    src = """
    main:
      movl $0, %eax
      movl $20, %ecx
    loop:
      addl %ecx, %eax
      subl $1, %ecx
      cmpl $0, %ecx
      jne loop
      ret
    """
    result = Machine(assemble(src), recorder=rec).run()
    return f"isa: sum 1..20 = {result}"


def _demo_kernel(rec: TraceRecorder) -> str:
    from repro.ossim.kernel import Kernel
    from repro.ossim.programs import Compute, Exit, Fork, Print, Wait

    kernel = Kernel(timeslice=2, recorder=rec)
    prog = [Print("A"),
            Fork(child=[Compute(3), Print("c"), Exit(0)],
                 parent=[Compute(1), Wait()]),
            Print("B"), Exit(0)]
    kernel.spawn("demo", prog)
    kernel.run()
    text = "".join(t for _, t in kernel.output)
    return (f"kernel: output {text!r}, "
            f"{kernel.stats.context_switches} context switches")


def _demo_threads(rec: TraceRecorder) -> str:
    from repro.core import Lock, Mutex, SimMachine, Unlock, Work

    machine = SimMachine(num_cores=2, recorder=rec)
    mutex = Mutex("counter")

    def worker(rounds):
        for _ in range(rounds):
            yield Work(20)
            yield Lock(mutex)
            yield Work(5)
            yield Unlock(mutex)

    for i in range(3):
        machine.spawn(worker, 2, name=f"worker-{i}")
    makespan = machine.run()
    return f"threads: 3 workers on 2 cores, makespan {makespan:.0f} cycles"


def _demo_memory(rec: TraceRecorder) -> str:
    from repro.memory.cache import CacheConfig
    from repro.memory.multilevel import CacheHierarchy

    hierarchy = CacheHierarchy(
        [CacheConfig(num_lines=4, block_size=16, associativity=2),
         CacheConfig(num_lines=16, block_size=16, associativity=4)],
        recorder=rec)
    # a strided sweep plus a rescan: misses, then L1/L2 hits
    trace = [i * 16 for i in range(12)] * 2
    for addr in trace:
        hierarchy.access(addr)
    rates = ", ".join(f"{r:.0%}" for r in hierarchy.local_hit_rates())
    return f"memory: {len(trace)} accesses, local hit rates {rates}"


def _demo_vm(rec: TraceRecorder) -> str:
    from repro.vm.mmu import MMU
    from repro.vm.physical import PhysicalMemory

    mmu = MMU(PhysicalMemory(4, 256), page_size=256,
              tlb_entries=4, recorder=rec)
    mmu.create_process(1, 8)
    mmu.create_process(2, 8)
    for pid in (1, 2, 1):
        mmu.context_switch(pid)
        for vpn in range(3):
            mmu.access(vpn * 256 + 16)
            mmu.access(vpn * 256 + 32)   # same page: a TLB hit
    s = mmu.stats
    return (f"vm: {s.accesses} accesses, {s.page_faults} page faults, "
            f"TLB hit rate {mmu.tlb.stats.hit_rate:.0%}")


def _demo_heap(rec: TraceRecorder) -> str:
    from repro.clib.address_space import AddressSpace
    from repro.clib.memcheck import Memcheck

    mc = Memcheck(AddressSpace.standard(heap_size=4096), recorder=rec)
    a = mc.malloc(64)
    b = mc.malloc(32)
    mc.space.write(a, bytes(range(64)))
    mc.space.read(a, 16)
    mc.space.read(b, 4)          # uninitialised read
    mc.free(a)
    mc.free(a)                   # double free
    return (f"heap: {mc.heap.total_allocated} allocs, "
            f"{len(mc.all_findings())} memcheck findings")


DEMOS: dict[str, Callable[[TraceRecorder], str]] = {
    "isa": _demo_isa,
    "kernel": _demo_kernel,
    "threads": _demo_threads,
    "memory": _demo_memory,
    "vm": _demo_vm,
    "heap": _demo_heap,
}


def run(argv: list[str]) -> int:
    if argv and argv[0] == "validate":
        return validate_main(argv[1:])
    usage = USAGE.format(demos=", ".join([*DEMOS, "all"]))
    demo = None
    chrome_path = None
    top = 10
    sample = None
    counters_only = False
    capacity = 65536
    args = list(argv)
    while args:
        arg = args.pop(0)
        if arg in ("-h", "--help"):
            print(usage)
            return 0
        if arg == "--chrome":
            if not args:
                print("error: --chrome needs a file path")
                return 2
            chrome_path = args.pop(0)
        elif arg == "--top":
            if not args or not args[0].lstrip("-").isdigit():
                print("error: --top needs an integer")
                return 2
            top = int(args.pop(0))
        elif arg == "--sample":
            if not args or not args[0].isdigit() or int(args[0]) < 2:
                print("error: --sample needs an integer >= 2")
                return 2
            sample = int(args.pop(0))
        elif arg == "--counters-only":
            counters_only = True
        elif arg == "--capacity":
            if not args or not args[0].isdigit() or int(args[0]) < 1:
                print("error: --capacity needs a positive integer")
                return 2
            capacity = int(args.pop(0))
        elif arg.startswith("-"):
            print(f"error: unknown option {arg!r}\n{usage}")
            return 2
        elif demo is None:
            demo = arg
        else:
            print(f"error: unexpected argument {arg!r}\n{usage}")
            return 2
    if demo is None:
        print(usage)
        return 2
    if demo != "all" and demo not in DEMOS:
        print(f"error: unknown demo {demo!r}\n{usage}")
        return 2

    if counters_only and sample is not None:
        print("error: --sample and --counters-only are exclusive")
        return 2
    policies = None
    if counters_only:
        policies = {"*": "counters"}
    elif sample is not None:
        policies = {"*": sample}
    recorder = TraceRecorder(capacity=capacity, policies=policies)
    names = list(DEMOS) if demo == "all" else [demo]
    for name in names:
        print(DEMOS[name](recorder))
    print()
    print(profile_report(recorder, top=top))
    if chrome_path is not None:
        count = write_chrome(recorder, chrome_path)
        print(f"\nwrote {count} Chrome trace events to {chrome_path} "
              "(load in https://ui.perfetto.dev)")
    return 0
