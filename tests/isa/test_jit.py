"""The superblock JIT vs the interpreters, three ways on every bus.

Every program runs step-by-step (the scalar oracle), through the
predecoded ``run()`` loop, and through the JIT with ``jit_threshold=1``
(so every reachable block compiles). All three must agree on the final
registers, flags, step counts, the full memory-access trace (loads,
stores, fetches — ``record_fetches=True`` everywhere), bus/cache/TLB
statistics, and faults: same exception type, same message, and the same
mid-block position (steps executed, %eip, partial state, partial
trace). This is the observational-equivalence contract ``repro.isa.jit``
promises.
"""

import random

import pytest

from repro.clib.address_space import HEAP_BASE, AddressSpace
from repro.errors import ReproError
from repro.isa.assembler import assemble
from repro.isa.machine import Machine
from repro.system.bus import CachedBus, FlatBus, VirtualBus

KINDS = ["space", "flat", "cached", "virtual"]


def make_machine(kind, program, **kwargs):
    if kind == "space":
        return Machine(program, AddressSpace.standard(trace=True),
                       record_fetches=True, **kwargs)
    if kind == "flat":
        return Machine(program, bus=FlatBus(AddressSpace.standard(trace=True)),
                       record_fetches=True, **kwargs)
    if kind == "cached":
        return Machine(program,
                       bus=CachedBus(AddressSpace.standard(trace=True)),
                       record_fetches=True, **kwargs)
    bus = VirtualBus(trace=True)
    bus.create_process(1)
    return Machine(program, bus=bus, pid=1, record_fetches=True, **kwargs)


def observe(machine, kind):
    """Everything the three execution paths must agree on."""
    m = machine
    out = {
        "regs": m.regs.snapshot(),
        "flags": str(m.regs.flags),
        "steps": m.steps,
        "halted": m.halted,
    }
    if kind == "space":
        out["trace"] = m.space.trace
    elif kind == "virtual":
        out["trace"] = m.bus.space_of(1).trace
        out["bus"] = repr(vars(m.bus.stats))
        tlb = m.bus.mmu.tlb.stats
        out["tlb"] = (tlb.hits, tlb.misses, tlb.flushes)
        vm = m.bus.mmu.stats
        out["vm"] = (vm.accesses, vm.page_faults, vm.evictions, vm.writebacks)
        out["cache"] = [(c.stats.accesses, c.stats.hits, c.stats.misses)
                        for c in m.bus.hierarchy.levels]
    else:
        out["trace"] = m.bus.space.trace
        out["bus"] = repr(vars(m.bus.stats))
        if kind == "cached":
            out["cache"] = [(c.stats.accesses, c.stats.hits, c.stats.misses)
                            for c in m.bus.hierarchy.levels]
    return out


def run_machine(machine, mode, max_steps=300_000):
    """Execute to completion; faults become comparable (type, message)."""
    try:
        if mode == "step":
            while not machine.halted:
                if machine.steps >= max_steps:
                    from repro.errors import MachineFault
                    raise MachineFault("step limit exceeded (infinite loop?)")
                machine.step()
            return machine.regs.get_signed("eax"), None
        return machine.run(max_steps), None
    except ReproError as exc:
        return None, (type(exc), str(exc))


def assert_three_way(program, kind, max_steps=300_000):
    """step() oracle == predecoded run() == JIT, bit for bit."""
    oracle = make_machine(kind, program)
    predecoded = make_machine(kind, program)
    jitted = make_machine(kind, program, jit=True, jit_threshold=1)
    r_oracle = run_machine(oracle, "step", max_steps)
    r_pre = run_machine(predecoded, "run", max_steps)
    r_jit = run_machine(jitted, "run", max_steps)
    assert r_pre == r_oracle
    assert r_jit == r_oracle
    assert observe(predecoded, kind) == observe(oracle, kind)
    assert observe(jitted, kind) == observe(oracle, kind)
    return r_oracle, jitted


LOOP_ASM = """
main:
  pushl %ebp
  movl %esp, %ebp
  subl $32, %esp
  movl $0, %eax
  movl $0, %ecx
loop:
  cmpl $50, %ecx
  jge done
  movl %ecx, %edx
  imull %edx, %edx
  addl %edx, %eax
  movl %eax, -4(%ebp)
  incl %ecx
  jmp loop
done:
  movl -4(%ebp), %eax
  leave
  ret
"""


class TestLoopsOnEveryBus:
    @pytest.mark.parametrize("kind", KINDS)
    def test_counted_loop(self, kind):
        (result, err), jitted = assert_three_way(assemble(LOOP_ASM), kind)
        assert err is None and result == sum(i * i for i in range(50))
        stats = jitted.jit_stats
        assert stats.blocks_compiled > 0
        assert stats.jit_steps > 0
        assert stats.side_exits > 0        # the jge taken on exit

    @pytest.mark.parametrize("kind", KINDS)
    def test_call_ret_and_stack(self, kind):
        program = assemble("""
main:
  movl $0, %eax
  movl $6, %ecx
again:
  pushl %ecx
  call double
  popl %ecx
  addl %edx, %eax
  decl %ecx
  jne again
  ret
double:
  movl 4(%esp), %edx
  addl %edx, %edx
  ret
""")
        (result, err), _ = assert_three_way(program, kind)
        assert err is None and result == 2 * sum(range(1, 7))


class TestRandomizedThreeWay:
    """Fuzzed loops with memory traffic, pushes/pops, jcc, and idivl."""

    REGS = ["eax", "ebx", "esi", "edi"]
    ARITH = ["addl", "subl", "cmpl", "imull", "andl", "orl", "xorl",
             "testl", "notl", "negl", "incl", "decl"]

    def random_program(self, seed, length=40):
        rng = random.Random(seed)
        lines = ["main:",
                 "  pushl %ebp",
                 "  movl %esp, %ebp",
                 "  subl $64, %esp"]
        for reg in self.REGS:
            lines.append(f"  movl ${rng.randrange(-2**31, 2**31)}, %{reg}")
        lines += ["  movl $12, %ecx", "loop:"]
        skip = 0
        for _ in range(length):
            op = rng.randrange(8)
            r = rng.choice(self.REGS)
            if op == 0:           # store to the frame
                lines.append(f"  movl %{r}, -{rng.randrange(1, 17) * 4}(%ebp)")
            elif op == 1:         # load from the frame
                lines.append(f"  movl -{rng.randrange(1, 17) * 4}(%ebp), %{r}")
            elif op == 2:         # push/pop pair (stack discipline kept)
                lines.append(f"  pushl %{r}")
                lines.append(f"  popl %{rng.choice(self.REGS)}")
            elif op == 3:         # forward jcc over a couple of ops (side exit)
                cond = rng.choice(["je", "jne", "jg", "jl", "jae", "jbe"])
                lines.append(f"  cmpl ${rng.randrange(-100, 100)}, %{r}")
                lines.append(f"  {cond} skip{skip}")
                lines.append(f"  addl ${rng.randrange(1, 1000)}, %{r}")
                lines.append(f"skip{skip}:")
                skip += 1
            elif op == 4:         # guarded idivl: nonzero divisor
                lines.append(f"  movl ${rng.randrange(1, 50)}, %ebx")
                lines.append("  cltd" if rng.random() < 0.5
                             else "  movl $0, %edx")
                lines.append("  idivl %ebx")
            elif op == 5:         # shift by a register count
                lines.append(f"  movl ${rng.randrange(0, 40)}, %ebx")
                lines.append(f"  {rng.choice(['sall', 'sarl', 'shrl'])} "
                             f"%ebx, %{r}")
            elif rng.random() < 0.5:
                m = rng.choice(self.ARITH)
                if m in ("notl", "negl", "incl", "decl"):
                    lines.append(f"  {m} %{r}")
                else:
                    lines.append(f"  {m} ${rng.randrange(-2**31, 2**31)}, %{r}")
            else:
                m = rng.choice(self.ARITH[:7])
                lines.append(f"  {m} %{rng.choice(self.REGS)}, %{r}")
        lines += ["  decl %ecx", "  jne loop",
                  "  movl -4(%ebp), %eax", "  leave", "  ret"]
        return assemble("\n".join(lines))

    @pytest.mark.parametrize("seed", range(10))
    def test_fuzzed_flat_space(self, seed):
        assert_three_way(self.random_program(seed), "space")

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["flat", "cached", "virtual"])
    def test_fuzzed_on_buses(self, kind, seed):
        assert_three_way(self.random_program(seed + 100), kind)


class TestFaultsThreeWay:
    """Faults must land at the same instruction with the same message,
    the same partial state, and the same partial trace — even when the
    fault happens in the middle of a compiled block."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_midblock_segfault_in_hot_loop(self, kind):
        # stores march off the end of the heap after ~16k iterations, so
        # the faulting store sits mid-block in well-warmed JIT code
        program = assemble(f"""
main:
  movl ${HEAP_BASE}, %esi
  movl $0, %ecx
bang:
  movl %ecx, (%esi)
  addl $64, %esi
  incl %ecx
  jmp bang
""")
        (_, err), jitted = assert_three_way(program, kind)
        assert err is not None
        assert jitted.jit_stats.jit_steps > 0      # it really ran jitted

    @pytest.mark.parametrize("kind", KINDS)
    def test_division_faults(self, kind):
        for tail, needle in [("movl $0, %ecx", "division by zero"),
                             ("movl $-1, %ecx", "quotient overflow")]:
            program = assemble(f"""
main:
  movl $-2147483648, %eax
  cltd
  {tail}
  idivl %ecx
  ret
""")
            (_, err), _ = assert_three_way(program, kind)
            assert err is not None and needle in err[1]

    @pytest.mark.parametrize("kind", KINDS)
    def test_step_limit_mid_loop(self, kind):
        program = assemble("main:\nspin:\n  incl %eax\n  jmp spin\n")
        (_, err), _ = assert_three_way(program, kind, max_steps=1000)
        assert err is not None and "step limit" in err[1]

    def test_fell_off_end_message_pinned(self):
        """Hygiene regression: step() and the JIT agree on the
        fell-off-the-end fault — same message text, same %eip, same
        step count — and record_fetches accounts the same fetches."""
        program = assemble("main:\n  movl $1, %eax\n  incl %eax\n")
        (_, err), jitted = assert_three_way(program, "space")
        assert err is not None
        assert err[1] == ("no instruction at eip=0x08048008 after 2 steps "
                          "(fell off the program?)")
        # both executed fetches were recorded before the fault
        fetches = [a for a in jitted.space.trace if a.kind == "fetch"]
        assert len(fetches) == 2


class TestJitMachinery:
    def test_stats_and_coverage(self):
        machine = make_machine("space", assemble(LOOP_ASM),
                               jit=True, jit_threshold=1)
        machine.run()
        stats = machine.jit_stats
        assert stats is not None
        d = stats.as_dict()
        assert set(d) == {"blocks_compiled", "entries", "side_exits",
                          "jit_steps", "failures", "guards_elided"}
        assert d["jit_steps"] <= machine.steps
        assert d["entries"] >= d["blocks_compiled"]

    def test_default_threshold_needs_heat(self):
        # a straight-line program never gets hot at the default threshold
        program = assemble("main:\n  movl $9, %eax\n  ret\n")
        machine = make_machine("space", program, jit=True)
        assert machine.run() == 9
        stats = machine.jit_stats
        assert stats is None or stats.blocks_compiled == 0

    def test_jit_off_by_default(self):
        machine = make_machine("space", assemble(LOOP_ASM))
        machine.run()
        assert machine.jit_stats is None

    def test_run_slice_through_jit(self):
        machine = make_machine("space", assemble(LOOP_ASM),
                               jit=True, jit_threshold=1)
        total = 0
        while not machine.halted:
            total += machine.run_slice(25)
        assert total == machine.steps
        assert machine.regs.get_signed("eax") == sum(i * i for i in range(50))
        assert machine.jit_stats.jit_steps > 0

    def test_unsupported_instructions_fall_back(self):
        # byte ops are interpreter-only; the block fails to compile and
        # the program still runs correctly via the fallback
        program = assemble("""
main:
  movl $5, %ecx
  movl $0, %eax
loop:
  movb $3, %bl
  addl %ebx, %eax
  decl %ecx
  jne loop
  ret
""")
        (result, err), jitted = assert_three_way(program, "space")
        assert err is None and result == 15
        assert jitted.jit_stats.failures > 0


# -- code shared per program, closures bound per machine ---------------------

SHARED_C = """
int sq(int x) { return x * x; }
int main() {
  int i; int s = 0;
  for (i = 0; i < 60; i = i + 1) { s = s + sq(i); }
  return s % 251;
}
"""


def spy_codegen(monkeypatch):
    """Count builtins.compile and _form calls made by the JIT module."""
    from repro.isa import jit
    calls = {"compile": 0, "form": 0}
    real_form = jit._form

    def counting_compile(*args, **kwargs):
        calls["compile"] += 1
        return compile(*args, **kwargs)

    def counting_form(*args, **kwargs):
        calls["form"] += 1
        return real_form(*args, **kwargs)

    monkeypatch.setattr(jit, "compile", counting_compile, raising=False)
    monkeypatch.setattr(jit, "_form", counting_form)
    return calls


def make_variant(kind, program, *, record=True, trace=True, **kwargs):
    """make_machine with the codegen switches the shared cache keys on."""
    if kind == "space" and not trace:
        machine = Machine(program, AddressSpace.standard(), **kwargs)
    else:
        machine = make_machine(kind, program, **kwargs)
    machine.record_fetches = record
    return machine


def three_way_variant(program, kind, *, prime=0, **switches):
    """step() == predecoded run() == JIT for one variant, each machine
    first stepped ``prime`` instructions by the oracle interpreter."""
    recorder = switches.pop("recorder", None)
    runs = []
    for mode, extra in [("step", {}), ("run", {}),
                        ("run", {"jit": True, "jit_threshold": 1,
                                 "recorder": recorder})]:
        machine = make_variant(kind, program, **switches, **extra)
        for _ in range(prime):
            machine.step()
        runs.append((machine, run_machine(machine, mode)))
    (oracle, r_oracle), (pre, r_pre), (jitted, r_jit) = runs
    assert r_pre == r_oracle
    assert r_jit == r_oracle
    assert observe(pre, kind) == observe(oracle, kind)
    assert observe(jitted, kind) == observe(oracle, kind)
    return r_oracle, jitted


class TestSharedCode:
    """Each superblock is generated and compiled once per Program; every
    machine running that program binds its own closures to it."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_second_machine_compiles_nothing(self, kind, monkeypatch):
        from repro.system.runner import program_from_source
        program = program_from_source(SHARED_C)
        calls = spy_codegen(monkeypatch)
        first = make_machine(kind, program, jit=True, jit_threshold=1)
        r_first = run_machine(first, "run")
        assert calls["compile"] > 0 and calls["form"] > 0
        assert first.jit_stats.blocks_compiled > 0
        calls.update(compile=0, form=0)
        second = make_machine(kind, program, jit=True, jit_threshold=1)
        r_second = run_machine(second, "run")
        assert calls == {"compile": 0, "form": 0}
        assert r_second == r_first
        assert observe(second, kind) == observe(first, kind)
        assert second.jit_stats == first.jit_stats

    def test_key_variants_back_to_back_on_one_program(self):
        program = assemble(LOOP_ASM)
        variants = [dict(kind=kind, record=record)
                    for kind in KINDS for record in (True, False)]
        variants += [dict(kind="space", record=True, trace=False),
                     dict(kind="space", record=False, trace=False)]
        from repro.obs import TraceRecorder
        variants += [dict(kind=kind, recorder=TraceRecorder())
                     for kind in KINDS]
        expected = sum(i * i for i in range(50))
        for switches in variants + variants[::-1]:
            (result, err), jitted = three_way_variant(program, **switches)
            assert err is None and result == expected
            assert jitted.jit_stats.blocks_compiled > 0
        # record × (plain space with trace on/off, or any bus): six
        # codegen variants, all cached side by side on the one program
        variant_keys = {key[1:] for key in program.jit_code}
        assert len(variant_keys) == 6

    @pytest.mark.parametrize("kind", KINDS)
    def test_proved_program_away_from_entry_state(self, kind):
        from repro.analysis.opt import optimize_program
        from repro.system.runner import program_from_source
        program = optimize_program(program_from_source(SHARED_C)).program
        assert program.stack_safe
        # from the entry state the proof applies: guards are elided...
        (r_entry, _), at_entry = three_way_variant(program, kind)
        assert at_entry.jit_stats.guards_elided > 0
        # ...one step in, the same program object compiles with safe empty
        (r_moved, _), moved = three_way_variant(program, kind, prime=1)
        assert moved.jit_stats.guards_elided == 0
        assert moved._jit_engine.safe == frozenset()
        assert r_moved == r_entry
        # and the entry-state variant is still served correctly after
        (r_again, _), again = three_way_variant(program, kind)
        assert again.jit_stats == at_entry.jit_stats
        assert r_again == r_entry


class TestSharedCodeInvalidation:
    @pytest.mark.parametrize("patch", ["immediate", "jump target"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_patched_program_is_recompiled(self, kind, patch):
        from repro.isa.instructions import Immediate, LabelRef
        program = assemble(LOOP_ASM)
        (result, _), _ = assert_three_way(program, kind)
        assert result == sum(i * i for i in range(50))
        assert program.jit_code and program.asm_cfg is not None
        if patch == "immediate":
            ins = next(i for i in program.instructions
                       if i.mnemonic == "cmpl")
            ins.operands = (Immediate(20),) + ins.operands[1:]
            expected = sum(i * i for i in range(20))
        else:
            ins = next(i for i in program.instructions
                       if i.mnemonic == "jmp")
            ins.operands = (LabelRef("done", program.labels["done"]),)
            expected = 0
        program.invalidate_predecode()
        assert program.jit_code is None and program.asm_cfg is None
        (result, err), jitted = assert_three_way(program, kind)
        assert err is None and result == expected
        assert jitted.jit_stats.blocks_compiled > 0


class TestSharedCodeMemory:
    def test_cache_holds_code_and_tuples_only(self):
        import types
        from repro.clib.address_space import Access
        program = assemble(LOOP_ASM)
        for kind in KINDS:
            machine = make_machine(kind, program, jit=True, jit_threshold=1)
            machine.run()

        def plain(value):
            if isinstance(value, tuple):
                return all(plain(v) for v in value)
            return isinstance(value, (types.CodeType, int, str, frozenset,
                                      Access, type(None)))

        assert program.jit_code
        for key, code in program.jit_code.items():
            assert plain(key)
            assert code is None or (plain(code)
                                    and isinstance(code[0], types.CodeType))

    @pytest.mark.parametrize("end", ["ret", "halt"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_finished_machine_is_freed_without_the_cycle_collector(
            self, kind, end):
        import gc
        import weakref
        program = assemble(LOOP_ASM.replace("  leave\n  ret\n",
                                            f"  leave\n  {end}\n"))
        machine = make_machine(kind, program, jit=True, jit_threshold=1)
        machine.run()
        assert machine.jit_stats.blocks_compiled > 0
        refs = [weakref.ref(machine), weakref.ref(machine._jit_engine)]
        gc.disable()
        try:
            del machine
            # no reference cycle: freed by reference counting alone
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()
        assert program.jit_code                 # the code outlives them


def _unshared(program):
    """A copy of ``program`` whose JIT code cache never keeps anything,
    so every machine generates and compiles its own blocks."""
    from repro.isa.instructions import Program

    class Unshared(Program):
        @property
        def jit_code(self):
            return None

        @jit_code.setter
        def jit_code(self, value):
            pass

    return Unshared(instructions=program.instructions,
                    labels=program.labels, entry=program.entry,
                    data_image=program.data_image,
                    data_base=program.data_base)


class TestSharedCodeSystem:
    @pytest.mark.parametrize("procs", [1, 2, 3, 4])
    def test_run_system_processes_share_code(self, procs, monkeypatch):
        from repro.system.runner import program_from_source, run_system
        program = program_from_source(SHARED_C)
        reference = run_system(program, bus="virtual", procs=procs,
                               jit=False)
        unshared = run_system(_unshared(program), bus="virtual",
                              procs=procs)
        calls = spy_codegen(monkeypatch)
        shared = run_system(program, bus="virtual", procs=procs)
        one_program = calls["compile"]
        calls.update(compile=0)
        run_system(_unshared(program), bus="virtual", procs=procs)
        assert one_program * procs == calls["compile"]
        assert shared.counters() == reference.counters()
        assert shared.exit_statuses == reference.exit_statuses
        assert shared.jit == unshared.jit      # blocks counted per machine
        assert shared.jit["blocks_compiled"] > 0


# -- tier-up: profile block entries, stop profiling at a slice's tail --------

TIER_UP_C = """
int main() {
  int i; int s = 0; int t = 1;
  for (i = 0; i < 40; i = i + 1) {
    s = s + i * i;
    t = t * 3 + s;
    s = s + (t / 8) % 97;
    t = t - i;
  }
  return (s + t) % 251;
}
"""

#: slice lengths: shorter than the loop's 64-instruction superblocks
#: (none can ever run), and the kernel's default batch (some fit)
SLICES = [20, 100]


def spy_tier_up(monkeypatch, program):
    """Log, per machine, what its JIT engine does on ``program``:
    ("slice",) at each run_slice, ("interp", eip) per interpreted
    instruction, ("compile", entry) per _compile call, and
    ("block", entry, exit_eip) per compiled block execution."""
    from repro.binary.twos_complement import MASK32
    from repro.isa import jit
    log: dict[int, list] = {}
    real_compile = jit.JitEngine._compile

    def spying_compile(engine, entry):
        blk = real_compile(engine, entry)
        events = log.setdefault(id(engine._machine()), [])
        events.append(("compile", entry))
        if blk is not None:
            fn = blk.fn

            def block():
                next_eip, executed = fn()
                events.append(("block", entry, next_eip & MASK32))
                return next_eip, executed
            blk.fn = block
        return blk

    def spying(eip, handler):
        def interp(m, next_eip):
            log.setdefault(id(m), []).append(("interp", eip))
            return handler(m, next_eip)
        return interp

    Machine(program)._predecode()
    program.predecoded = {eip: spying(eip, handler)
                          for eip, handler in program.predecoded.items()}
    monkeypatch.setattr(jit.JitEngine, "_compile", spying_compile)

    real_slice = Machine.run_slice

    def spying_slice(machine, limit, **kwargs):
        log.setdefault(id(machine), []).append(("slice",))
        return real_slice(machine, limit, **kwargs)
    monkeypatch.setattr(Machine, "run_slice", spying_slice)
    return log


def check_tier_up(events, leaders):
    """Every compile is at a leader or a block's exit address, and none
    follows a budget refusal (a compiled entry interpreted) within the
    same slice. Returns (compiles, refusals)."""
    compiled: set[int] = set()
    exits: set[int] = set()
    compiles = refusals = 0
    refused = False
    for event in events:
        if event[0] == "slice":
            refused = False
        elif event[0] == "interp" and event[1] in compiled:
            refused = True
            refusals += 1
        elif event[0] == "block":
            exits.add(event[2])
        elif event[0] == "compile":
            entry = event[1]
            assert entry in leaders or entry in exits, hex(entry)
            assert not refused, f"compiled {entry:#x} after a refusal"
            compiled.add(entry)
            compiles += 1
    return compiles, refusals


def predecoded_slice(machine, limit):
    """run_slice for the predecoded run() loop (which raises at its
    step limit instead of returning)."""
    from repro.errors import MachineFault
    stop = machine.steps + limit
    try:
        machine.run(stop)
    except MachineFault:
        if machine.steps < stop:
            raise


def run_sliced(machines, mode, k):
    """Round-robin ``k``-instruction slices until all halt."""
    while not all(m.halted for m in machines):
        for m in machines:
            if m.halted:
                continue
            if mode == "jit":
                m.run_slice(k)
            elif mode == "run":
                predecoded_slice(m, k)
            else:
                m.run_slice(k, jit=False)      # step() per instruction


def make_sliced(kind, program, **kwargs):
    """One machine on ``space``, or two processes on one virtual bus."""
    if kind == "space":
        return [make_machine("space", program, **kwargs)], None
    bus = VirtualBus(trace=True)
    machines = []
    for pid in (1, 2):
        bus.create_process(pid)
        machines.append(Machine(program, bus=bus, pid=pid,
                                record_fetches=True, **kwargs))
    return machines, bus


def observe_sliced(machines, bus):
    if bus is None:
        return [observe(machines[0], "space")]
    out = [observe(m, "virtual") for m in machines]
    out.append([bus.space_of(pid).trace for pid in (1, 2)])
    return out


class TestTierUp:
    """The JIT counts hotness only at block-entry candidates and stops
    profiling for the rest of a slice once a block no longer fits."""

    @pytest.mark.parametrize("k", SLICES)
    @pytest.mark.parametrize("kind", ["space", "virtual"])
    def test_compiles_only_at_entries_and_never_after_refusal(
            self, kind, k, monkeypatch):
        from repro.analysis.cfg import build_asm_cfg
        from repro.system.runner import program_from_source
        program = program_from_source(TIER_UP_C)
        leaders = set(build_asm_cfg(program).blocks)
        log = spy_tier_up(monkeypatch, program)
        machines, _ = make_sliced(kind, program, jit=True)
        run_sliced(machines, "jit", k)
        for m in machines:
            stats = m.jit_stats
            compiles, refusals = check_tier_up(log[id(m)], leaders)
            assert compiles == stats.blocks_compiled + stats.failures
            assert compiles > 0 and refusals > 0
            assert max(b.length for b in m._jit_engine.blocks.values()) > 20
            assert (stats.jit_steps > 0) == (k == 100)

    @pytest.mark.parametrize("k", SLICES)
    @pytest.mark.parametrize("kind", ["space", "virtual"])
    def test_sliced_run_three_way_equal(self, kind, k):
        from repro.system.runner import program_from_source
        program = program_from_source(TIER_UP_C)
        seen = []
        for mode, kwargs in [("step", {}), ("run", {}),
                             ("jit", {"jit": True})]:
            machines, bus = make_sliced(kind, program, **kwargs)
            run_sliced(machines, mode, k)
            seen.append(observe_sliced(machines, bus))
        assert seen[1] == seen[0]
        assert seen[2] == seen[0]

    def test_length_capped_block_continues_at_its_exit(self):
        # a straight-line loop body longer than MAX_BLOCK: the block from
        # the loop head stops at the cap, mid-block, and the address it
        # exits to (no leader) is profiled and compiled in its turn
        from repro.analysis.cfg import build_asm_cfg
        from repro.isa.jit import MAX_BLOCK
        body = "  addl $3, %eax\n" * (MAX_BLOCK + 16)
        program = assemble(f"""
main:
  movl $0, %eax
  movl $0, %ecx
loop:
{body}  incl %ecx
  cmpl $30, %ecx
  jl loop
  ret
""")
        (result, err), _ = assert_three_way(program, "space")
        assert err is None and result == 3 * 30 * (MAX_BLOCK + 16)
        machine = make_machine("space", program, jit=True)
        assert machine.run() == result
        entries = set(machine._jit_engine.blocks)
        assert entries - set(build_asm_cfg(program).blocks)

    def test_run_system_virtual_counters_equal_jit_off(self):
        from repro.system.runner import program_from_source, run_system
        program = program_from_source(TIER_UP_C)
        reference = run_system(program, bus="virtual", procs=2, jit=False)
        jitted = run_system(program, bus="virtual", procs=2)
        assert jitted.counters() == reference.counters()
        assert jitted.exit_statuses == reference.exit_statuses
        assert jitted.jit["blocks_compiled"] > 0
