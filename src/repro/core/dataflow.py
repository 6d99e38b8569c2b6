"""Dataflow analysis framework for binary functions (paper section 4:
"BOLT is also equipped with a dataflow-analysis framework to feed
information to passes that need it ... to check register liveness at a
given program point, a technique also used by Ispike").

Provides register use/def tables for BX86, backward liveness over
reconstructed CFGs, dominator computation, and stack-slot access
summaries used by frame-opts and shrink-wrapping.  Liveness and
dominators run on :func:`repro.analysis.absint.solve`, the lint
checkers' solver; it is imported inside them because ``repro.analysis``
imports this module.
"""

from repro.isa import RBP, RSP, RAX
from repro.isa.opcodes import Op
from repro.isa.registers import ARG_REGS, CALLER_SAVED

#: Pseudo-register index representing the flags.
FLAGS = 16


class UnmodeledOpcodeError(Exception):
    """An opcode has no entry in the use/def table.

    Raised instead of silently returning empty sets: a dataflow client
    treating an unmodeled instruction as a no-op would corrupt
    liveness/preservation results without a trace.  Every :class:`Op`
    is audited below; this fires only for opcodes added to the ISA but
    not to this table (or non-``Op`` garbage).
    """

    def __init__(self, op):
        name = getattr(op, "name", None) or repr(op)
        super().__init__(
            f"no use/def model for opcode {name}; add it to the "
            f"insn_uses_defs table before running dataflow analyses over it")
        self.op = op


#: op -> (use operand positions, def operand positions, fixed uses,
#: fixed defs).  Built once at import; ``insn_uses_defs`` and
#: ``defines`` only index it.
_USE_DEF = {}


def _model(ops, uses=(), defs=(), fixed_uses=(), fixed_defs=()):
    for op in ops:
        _USE_DEF[op] = (tuple(uses), tuple(defs),
                        frozenset(fixed_uses), frozenset(fixed_defs))


_CALL_USES = (*ARG_REGS, RSP)
_CALL_DEFS = (*CALLER_SAVED, RSP, FLAGS)

_model([Op.MOV_RR], uses=[1], defs=[0])
_model([Op.MOV_RI32, Op.MOV_RI64, Op.LOAD_ABS], defs=[0])
_model([Op.LOAD, Op.LEA], uses=[1], defs=[0])
_model([Op.STORE], uses=[0, 1])
_model([Op.STORE_ABS, Op.OUT, Op.JMP_REG], uses=[0])
_model([Op.LOADIDX], uses=[1, 2], defs=[0])
_model([Op.STOREIDX], uses=[0, 1, 2])
_model([Op.ADD_RR, Op.SUB_RR, Op.IMUL_RR, Op.AND_RR, Op.OR_RR, Op.XOR_RR,
        Op.IDIV_RR, Op.IMOD_RR, Op.SHL_RR, Op.SHR_RR, Op.SAR_RR],
       uses=[0, 1], defs=[0])
_model([Op.ADD_RI, Op.SUB_RI, Op.IMUL_RI, Op.AND_RI, Op.OR_RI, Op.XOR_RI,
        Op.SHL_RI, Op.SHR_RI, Op.SAR_RI, Op.NEG],
       uses=[0], defs=[0])
_model([Op.CMP_RR, Op.TEST_RR], uses=[0, 1], fixed_defs=[FLAGS])
_model([Op.CMP_RI, Op.TEST_RI], uses=[0], fixed_defs=[FLAGS])
_model([Op.SETCC], defs=[0], fixed_uses=[FLAGS])
_model([Op.PUSH], uses=[0], fixed_uses=[RSP], fixed_defs=[RSP])
_model([Op.POP], defs=[0], fixed_uses=[RSP], fixed_defs=[RSP])
# Conservative: a call may read every argument register and clobbers
# all caller-saved registers; it returns in rax.
_model([Op.CALL, Op.CALL_MEM], fixed_uses=_CALL_USES, fixed_defs=_CALL_DEFS)
_model([Op.CALL_REG], uses=[0], fixed_uses=_CALL_USES,
       fixed_defs=_CALL_DEFS)
_model([Op.JCC_SHORT, Op.JCC_LONG], fixed_uses=[FLAGS])
_model([Op.RET, Op.REPZ_RET], fixed_uses=[RAX, RSP], fixed_defs=[RSP])
# No register effects at the dataflow level: direct jumps and ``jmp``
# through an absolute memory slot transfer control without reading or
# writing general registers; nops/halt/trap do nothing.  (``PREFIX_0F``
# is an encoding artifact, never an opcode a decoded instruction
# carries -- it is deliberately *not* modeled.)
_model([Op.NOP, Op.NOPN, Op.HALT, Op.TRAP,
        Op.JMP_SHORT, Op.JMP_NEAR, Op.JMP_MEM])


def insn_uses_defs(insn):
    """(uses, defs) register sets for one instruction.

    Covers every :class:`Op`; raises :class:`UnmodeledOpcodeError` for
    anything else rather than silently under-approximating.  The sets
    are read-only: ops without register operands return shared
    frozensets.
    """
    entry = _USE_DEF.get(insn.op)
    if entry is None:
        raise UnmodeledOpcodeError(insn.op)
    use_pos, def_pos, uses, defs = entry
    regs = insn.regs
    if use_pos:
        uses = uses.union([regs[i] for i in use_pos])
    if def_pos:
        defs = defs.union([regs[i] for i in def_pos])
    return uses, defs


def defines(insn, reg):
    """``reg in insn_uses_defs(insn)[1]``, without building the set."""
    entry = _USE_DEF.get(insn.op)
    if entry is None:
        raise UnmodeledOpcodeError(insn.op)
    if reg in entry[3]:
        return True
    regs = insn.regs
    for i in entry[1]:
        if regs[i] == reg:
            return True
    return False


def def_operands(op):
    """(def operand positions, fixed defs) of ``op``: what ``defines``
    reads, for callers that classify a whole instruction at once."""
    entry = _USE_DEF.get(op)
    if entry is None:
        raise UnmodeledOpcodeError(op)
    return entry[1], entry[3]


def block_uses_defs(block):
    """Upward-exposed uses and defs for a whole block."""
    uses, defs = set(), set()
    for insn in block.insns:
        u, d = insn_uses_defs(insn)
        uses |= (u - defs)
        defs |= d
    return uses, defs


def liveness(func):
    """Backward liveness; returns (live_in, live_out) per block label.

    Exit blocks (returns, tail calls, blocks without successors) are
    assumed to have rax + the callee-saved registers live out
    (conservative ABI boundary).
    """
    from repro.analysis.absint import SetLattice, solve
    from repro.isa.registers import CALLEE_SAVED

    exit_live = frozenset(CALLEE_SAVED) | {RAX, RSP, RBP}
    gen_kill = {}
    exits = set()
    for label, block in func.blocks.items():
        gen, kill = block_uses_defs(block)
        gen_kill[label] = frozenset(gen), kill
        term = block.terminator()
        if term is not None and (term.is_return or term.tailcall):
            exits.add(label)

    def transfer(block, out):
        if block.label in exits:
            out = out | exit_live
        gen, kill = gen_kill[block.label]
        return gen | (out - kill)

    live_out, live_in = solve(func, SetLattice(), transfer,
                              direction="backward", boundary=exit_live)
    for label in exits:
        live_out[label] = live_out[label] | exit_live
    return live_in, live_out


class _Dominance:
    """Dominator sets as an ``absint.solve`` lattice: ``None`` (bottom)
    is "not reached yet", and reached sets join by intersection."""

    def bottom(self):
        return None

    def join(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return a & b


def dominators(func):
    """Dominator sets: label -> set of dominating labels.

    A block unreachable from the entry maps to every label, so it never
    constrains the blocks it branches to.
    """
    from repro.analysis.absint import solve

    _, dom = solve(func, _Dominance(),
                   lambda block, state: state | {block.label},
                   boundary=frozenset())
    every = frozenset(func.blocks)
    return {label: every if state is None else state
            for label, state in dom.items()}


def reachable_from(func, start):
    """Labels reachable from ``start`` (following CFG + landing pads).

    Labels missing from ``func.blocks`` are skipped: a dangling edge is
    ``validate_function``'s finding, not a reason to crash a walk.
    """
    blocks = func.blocks
    seen = set()
    stack = [start]
    while stack:
        label = stack.pop()
        if label in seen or label not in blocks:
            continue
        seen.add(label)
        block = blocks[label]
        stack.extend(block.successors)
        stack.extend(block.landing_pads)
    return seen


_LEA, _MOV_RR = Op.LEA, Op.MOV_RR
_INDEXED = frozenset({Op.LOADIDX, Op.STOREIDX})


def rbp_escapes(op, regs):
    """Whether an instruction copies rbp where rbp-relative slot
    tracking cannot follow it: into another register (``mov rsp, rbp``
    is the epilogue, not an escape) or into an indexed address."""
    if op == _LEA:
        return regs[1] == RBP
    if op == _MOV_RR:
        return regs[1] == RBP and regs[0] != RSP
    return op in _INDEXED and RBP in regs[1:]


def stack_slot_accesses(func):
    """Summarize rbp-relative slot accesses.

    Returns (loads, stores, rbp_escapes): sets of disp values read and
    written through rbp, and whether rbp's value flows anywhere we
    cannot track (:func:`rbp_escapes`) — in which case slot analysis
    must be abandoned.
    """
    loads, stores = set(), set()
    escapes = False
    for block in func.blocks.values():
        for insn in block.insns:
            op, regs = insn.op, insn.regs
            if op == Op.LOAD and regs[1] == RBP:
                loads.add(insn.disp)
            elif op == Op.STORE and regs[0] == RBP:
                stores.add(insn.disp)
            elif rbp_escapes(op, regs):
                escapes = True
    return loads, stores, escapes
