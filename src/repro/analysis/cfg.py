"""Basic-block control-flow graphs — over the C-subset AST *and* over
assembled programs.

:func:`build_cfg` lowers one :class:`~repro.isa.ccompiler.Function` into
a :class:`CFG` of :class:`BasicBlock`\\ s.  Structured statements are
split at branch points: an ``if`` contributes a :class:`CondTest`
pseudo-statement plus then/else/join blocks, a ``while`` a condition
block with a back edge.  Constant conditions (literal ``0``/non-zero)
drop the untaken edge at build time, so ``if (0) { ... }`` bodies and
code after ``return`` become blocks with no predecessors — which is
exactly what the unreachable-code check looks for.

The graph also records *fall-through* edges into the synthetic exit
block (control reaching the end of the function without ``return``),
feeding the missing-return check.

:func:`build_asm_cfg` is the same idea lifted one layer down, over an
assembled :class:`~repro.isa.instructions.Program`: leaders are the
entry, every label, every static branch/call target, and every
instruction after a control transfer; each :class:`AsmBlock` is the
straight-line run from a leader to its terminator. This is the block
vocabulary the superblock JIT (:mod:`repro.isa.jit`) compiles from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.ccompiler import (
    AddressOf,
    Assign,
    AssignDeref,
    AssignIndex,
    Binary,
    Call,
    Declare,
    DeclareArray,
    Deref,
    ExprStmt,
    Function,
    If,
    Index,
    Num,
    Return,
    Unary,
    Var,
    While,
)
from repro.isa.instructions import CALLS, INSTRUCTION_SIZE, JUMPS, LabelRef


@dataclass
class CondTest:
    """Pseudo-statement: evaluation of a branch/loop condition."""
    expr: object
    line: int = 0


@dataclass
class BasicBlock:
    bid: int
    stmts: list = field(default_factory=list)
    succs: list[int] = field(default_factory=list)
    preds: list[int] = field(default_factory=list)

    @property
    def first_line(self) -> int:
        for s in self.stmts:
            line = getattr(s, "line", 0)
            if line:
                return line
        return 0


@dataclass
class CFG:
    function: Function
    blocks: list[BasicBlock]
    entry: int
    exit: int
    #: blocks whose control falls off the end of the function (no return)
    fallthrough_from: list[int] = field(default_factory=list)

    def block(self, bid: int) -> BasicBlock:
        return self.blocks[bid]

    def reachable(self) -> set[int]:
        """Block ids reachable from the entry block."""
        seen = {self.entry}
        work = [self.entry]
        while work:
            for succ in self.blocks[work.pop()].succs:
                if succ not in seen:
                    seen.add(succ)
                    work.append(succ)
        return seen

    def statements(self) -> list[tuple[int, int, object]]:
        """Every statement as (block id, index-in-block, stmt)."""
        out = []
        for b in self.blocks:
            for i, s in enumerate(b.stmts):
                out.append((b.bid, i, s))
        return out


def _const_cond(expr) -> bool | None:
    """True/False for a literal condition, None when not constant."""
    if isinstance(expr, Num):
        return expr.value != 0
    return None


class _Builder:
    def __init__(self) -> None:
        self.blocks: list[BasicBlock] = []

    def new_block(self) -> BasicBlock:
        b = BasicBlock(len(self.blocks))
        self.blocks.append(b)
        return b

    def edge(self, src: BasicBlock, dst: BasicBlock) -> None:
        if dst.bid not in src.succs:
            src.succs.append(dst.bid)
            dst.preds.append(src.bid)

    def gen_list(self, stmts: list, current: BasicBlock | None,
                 exit_block: BasicBlock) -> BasicBlock | None:
        """Lower a statement list; returns the live tail block or None
        when every path through the list has returned."""
        for s in stmts:
            if current is None:
                # code after a return: a fresh block with no in-edges
                current = self.new_block()
            if isinstance(s, Return):
                current.stmts.append(s)
                self.edge(current, exit_block)
                current = None
            elif isinstance(s, If):
                current.stmts.append(CondTest(s.cond, s.line))
                taken = _const_cond(s.cond)
                then_b = self.new_block()
                else_b = self.new_block()
                if taken is not False:
                    self.edge(current, then_b)
                if taken is not True:
                    self.edge(current, else_b)
                then_end = self.gen_list(s.then, then_b, exit_block)
                else_end = self.gen_list(s.otherwise, else_b, exit_block)
                if then_end is None and else_end is None:
                    current = None
                else:
                    join = self.new_block()
                    if then_end is not None:
                        self.edge(then_end, join)
                    if else_end is not None:
                        self.edge(else_end, join)
                    current = join
            elif isinstance(s, While):
                cond_b = self.new_block()
                cond_b.stmts.append(CondTest(s.cond, s.line))
                self.edge(current, cond_b)
                taken = _const_cond(s.cond)
                body_b = self.new_block()
                if taken is not False:
                    self.edge(cond_b, body_b)
                body_end = self.gen_list(s.body, body_b, exit_block)
                if body_end is not None:
                    self.edge(body_end, cond_b)
                after = self.new_block()
                if taken is not True:
                    self.edge(cond_b, after)
                current = after
            else:
                current.stmts.append(s)
        return current


def build_cfg(fn: Function) -> CFG:
    """Build the basic-block CFG for one function."""
    b = _Builder()
    entry = b.new_block()
    exit_block = b.new_block()
    end = b.gen_list(fn.body, entry, exit_block)
    fallthrough: list[int] = []
    if end is not None:
        b.edge(end, exit_block)
        fallthrough.append(end.bid)
    return CFG(fn, b.blocks, entry=entry.bid, exit=exit_block.bid,
               fallthrough_from=fallthrough)


# ---------------------------------------------------------------------------
# Expression / statement walkers shared by the dataflow instances
# ---------------------------------------------------------------------------

def expr_nodes(expr) -> list:
    """Pre-order list of every expression node under ``expr``."""
    out: list = []
    stack = [expr]
    while stack:
        e = stack.pop()
        if e is None:
            continue
        out.append(e)
        if isinstance(e, Unary):
            stack.append(e.operand)
        elif isinstance(e, Binary):
            stack.extend((e.left, e.right))
        elif isinstance(e, Index):
            stack.append(e.index)
        elif isinstance(e, AddressOf):
            stack.append(e.index)
        elif isinstance(e, Deref):
            stack.append(e.pointer)
        elif isinstance(e, Call):
            stack.extend(e.args)
    return out


def stmt_exprs(stmt) -> list:
    """The expressions a simple statement (or CondTest) evaluates."""
    if isinstance(stmt, (Return, ExprStmt)):
        return [stmt.value if isinstance(stmt, Return) else stmt.expr]
    if isinstance(stmt, CondTest):
        return [stmt.expr]
    if isinstance(stmt, Declare):
        return [stmt.init] if stmt.init is not None else []
    if isinstance(stmt, Assign):
        return [stmt.value]
    if isinstance(stmt, AssignIndex):
        return [stmt.index, stmt.value]
    if isinstance(stmt, AssignDeref):
        return [stmt.pointer, stmt.value]
    if isinstance(stmt, DeclareArray):
        return []
    return []


def expr_reads(expr) -> set[str]:
    """Variable names whose *values* ``expr`` reads (array names too,
    via decay; address-of counts as a use for liveness purposes)."""
    names: set[str] = set()
    for e in expr_nodes(expr):
        if isinstance(e, (Var, Index, AddressOf)):
            names.add(e.name)
    return names


def stmt_uses(stmt) -> set[str]:
    """Variables a statement reads (for liveness)."""
    used: set[str] = set()
    for e in stmt_exprs(stmt):
        used |= expr_reads(e)
    if isinstance(stmt, AssignIndex):
        used.add(stmt.name)         # the array base is consulted
    return used


def stmt_defs(stmt) -> set[str]:
    """Scalar variables a statement (re)defines."""
    if isinstance(stmt, Declare) and stmt.init is not None:
        return {stmt.name}
    if isinstance(stmt, Assign):
        return {stmt.name}
    return set()


# ---------------------------------------------------------------------------
# CFGs over assembled programs (the JIT's block vocabulary)
# ---------------------------------------------------------------------------

#: terminator kinds an :class:`AsmBlock` can end with
ASM_TERMINATORS = ("fall", "jmp", "jcc", "call", "ret", "halt", "indirect")


@dataclass
class AsmBlock:
    """A straight-line instruction run in an assembled program.

    ``terminator`` says how control leaves:

    * ``"fall"`` — runs into the next address (block split by a leader,
      or the last instruction of the text: falling off faults).
    * ``"jmp"`` — unconditional jump to a static ``target``.
    * ``"jcc"`` — conditional jump: ``target`` if taken, ``fall`` if not.
    * ``"call"`` — transfers to ``target`` (``None`` when indirect) and
      eventually returns to ``fall``.
    * ``"ret"`` / ``"halt"`` — no static successor.
    * ``"indirect"`` — a register-target ``jmp``; successor unknown.
    """
    start: int
    instructions: list = field(default_factory=list)
    terminator: str = "fall"
    target: int | None = None      # static branch/call target address
    fall: int | None = None        # fall-through address (next instruction)
    succs: list[int] = field(default_factory=list)
    preds: list[int] = field(default_factory=list)

    @property
    def end(self) -> int:
        """One past the last instruction's address slot."""
        if not self.instructions:
            return self.start
        return self.instructions[-1].address + INSTRUCTION_SIZE

    def __len__(self) -> int:
        return len(self.instructions)


@dataclass
class AsmCFG:
    """Basic blocks of one assembled :class:`Program`, keyed by address.

    Holds no reference to the program, so ``Program.asm_cfg`` can cache
    it without a reference cycle."""
    blocks: dict[int, AsmBlock]
    #: instruction address -> leader address of its block
    _containing: dict[int, int] = field(default_factory=dict)

    def block_at(self, address: int) -> AsmBlock | None:
        return self.blocks.get(address)

    def block_containing(self, address: int) -> AsmBlock | None:
        """The block whose instruction run covers ``address``, if any."""
        block = self.blocks.get(self._containing.get(address, -1))
        return block

    def run_from(self, address: int
                 ) -> tuple[list, str, int | None, int | None] | None:
        """The straight-line rest of the block from ``address`` on.

        Returns ``(instructions, terminator, target, fall)`` — the
        suffix of the containing block starting at ``address`` — or
        ``None`` when ``address`` is not an instruction. This is what
        lets the JIT start a superblock mid-block, where a length-capped
        block stopped, not just at leaders.
        """
        leader = self._containing.get(address)
        if leader is None:
            return None
        block = self.blocks[leader]
        if address == block.start:
            instrs = block.instructions
        else:
            index = (address - block.start) // 4
            instrs = block.instructions[index:]
        return instrs, block.terminator, block.target, block.fall

    def reachable_from(self, address: int) -> set[int]:
        """Leader addresses reachable from ``address`` via static edges."""
        start = self._containing.get(address)
        if start is None:
            return set()
        seen = {start}
        work = [start]
        while work:
            for succ in self.blocks[work.pop()].succs:
                if succ in self.blocks and succ not in seen:
                    seen.add(succ)
                    work.append(succ)
        return seen


def _static_target(ins) -> int | None:
    """The resolved address of a jump/call operand, if static."""
    if ins.operands and isinstance(ins.operands[0], LabelRef):
        return ins.operands[0].address
    return None


def build_asm_cfg(program) -> AsmCFG:
    """Build the basic-block CFG of an assembled :class:`Program`.

    Works on addresses, not label names, so it covers compiler output
    and hand-written assembly alike. Blocks end at every control
    transfer (``jmp``/conditional jumps/``call``/``ret``/``halt``) and
    before every leader; edges follow the static successors only
    (indirect jumps contribute none).
    """
    by_address = program.by_address
    addresses = sorted(by_address)
    if not addresses:
        return AsmCFG({})

    enders = JUMPS | CALLS | {"ret", "halt"}
    leaders: set[int] = {addresses[0]}
    leaders.update(a for a in program.labels.values() if a in by_address)
    for addr in addresses:
        ins = by_address[addr]
        if ins.mnemonic in enders:
            target = _static_target(ins)
            if target is not None and target in by_address:
                leaders.add(target)
            nxt = addr + INSTRUCTION_SIZE
            if nxt in by_address:
                leaders.add(nxt)

    blocks: dict[int, AsmBlock] = {}
    containing: dict[int, int] = {}
    current: AsmBlock | None = None
    for addr in addresses:
        if current is None or addr in leaders or \
                addr != current.end:
            current = AsmBlock(addr)
            blocks[addr] = current
        ins = by_address[addr]
        current.instructions.append(ins)
        containing[addr] = current.start
        m = ins.mnemonic
        if m in enders:
            nxt = addr + INSTRUCTION_SIZE
            target = _static_target(ins)
            if m == "jmp":
                current.terminator = "jmp" if target is not None \
                    else "indirect"
                current.target = target
            elif m in JUMPS:               # conditional
                current.terminator = "jcc"
                current.target = target
                current.fall = nxt
            elif m in CALLS:
                current.terminator = "call"
                current.target = target
                current.fall = nxt
            elif m == "ret":
                current.terminator = "ret"
            else:
                current.terminator = "halt"
                current.fall = nxt
            current = None

    # close fall-through blocks split by a leader (or by end of text)
    for block in blocks.values():
        if block.terminator == "fall":
            block.fall = block.end

    # static edges (call edges go to the *return site*: intra-procedural)
    for block in blocks.values():
        succs = []
        if block.terminator in ("jmp", "jcc") and block.target is not None:
            succs.append(block.target)
        if block.terminator in ("fall", "jcc", "call") \
                and block.fall is not None:
            succs.append(block.fall)
        block.succs = [s for s in succs if s in blocks]
    for block in blocks.values():
        for succ in block.succs:
            blocks[succ].preds.append(block.start)

    return AsmCFG(blocks, containing)
