"""Instruction selection: IR -> BX86 machine code.

Register model:

* *variables* (virtual registers live across blocks, plus all
  parameters) are either promoted to callee-saved registers (the most
  used ones) or given rbp-relative stack slots;
* *temporaries* (single-block values) are allocated from a caller-saved
  scratch pool, spilled to overflow slots under pressure, and
  pushed/popped around calls.

The frame layout (push rbp; mov rbp,rsp; sub rsp,N; callee-saved saves
as *stores to fixed slots*) is what makes BOLT's shrink-wrapping sound
in the presence of exceptions: the unwinder restores callee-saved
registers from those fixed slots (see ``repro.belf.frameinfo``).
"""

from repro.codegen.machine import MachineBlock, MachineFunction
from repro.codegen.options import CodegenOptions
from repro.isa import (
    Instruction,
    Op,
    CondCode,
    SymRef,
    ARG_REGS,
    CALLEE_SAVED,
    RAX,
    RBP,
    RSP,
    RDI,
    R10,
)
from repro.ir.ir import Imm

THROW_FUNC = "__throw"

_SCRATCH_POOL = (10, 11, 1, 6, 7, 8, 9, 2)  # r10, r11, rcx, rsi, rdi, r8, r9, rdx

_CC_MAP = {
    "==": CondCode.EQ,
    "!=": CondCode.NE,
    "<": CondCode.LT,
    "<=": CondCode.LE,
    ">": CondCode.GT,
    ">=": CondCode.GE,
    "u<": CondCode.ULT,
    "u<=": CondCode.ULE,
    "u>": CondCode.UGT,
    "u>=": CondCode.UGE,
}

_RR_OPS = {"+": Op.ADD_RR, "-": Op.SUB_RR, "*": Op.IMUL_RR, "&": Op.AND_RR,
           "|": Op.OR_RR, "^": Op.XOR_RR}
_RI_OPS = {"+": Op.ADD_RI, "-": Op.SUB_RI, "*": Op.IMUL_RI, "&": Op.AND_RI,
           "|": Op.OR_RI, "^": Op.XOR_RI}

_I32_MIN, _I32_MAX = -(1 << 31), (1 << 31) - 1


def _fits_i32(value):
    return _I32_MIN <= value <= _I32_MAX


class CodegenError(Exception):
    pass


def _frameless_candidate(func_ir, options):
    """A leaf may drop its frame entirely: no live-across-call state, no
    unwinding through it (tail calls replace the frame, so they are
    allowed).  This is what produces the bare ``jmp callee`` blocks that
    BOLT's SCTC pass targets."""
    if not options.tail_calls:
        has_calls = any(
            inst.kind in ("call", "icall", "throw")
            for block in func_ir.blocks.values() for inst in block.insts)
        return not has_calls
    for block in func_ir.blocks.values():
        term = block.terminator
        for index, inst in enumerate(block.insts):
            if inst.kind == "throw":
                return False
            if inst.kind in ("call", "icall"):
                is_last = index == len(block.insts) - 1
                tail_ok = (
                    is_last and term.kind == "ret" and inst.lp is None
                    and (term.a == inst.dst
                         or (term.a is None and inst.dst is None)))
                if not tail_ok:
                    return False
    return True


class _FunctionSelector:
    def __init__(self, func_ir, options, force_frame=False):
        self.ir = func_ir
        self.options = options
        self.mf = MachineFunction(func_ir.name, func_ir.link_name(),
                                  static=func_ir.static)
        self.mf.has_frame_info = options.frame_info
        if func_ir.loc:
            self.mf.source_file = func_ir.loc[0]
        self.block = None
        self.loc = func_ir.loc

        self.frameless = (not force_frame
                          and _frameless_candidate(func_ir, options))
        self._classify_vregs()
        if self.frameless and self.vars:
            self.frameless = False
            self._classify_vregs()
        self._promote()
        self._assign_slots()

        # temp state (reset per block)
        self.temp_loc = {}
        self.free_regs = []
        self.use_counts = {}
        self._consumed = []
        self._transient = []
        self.overflow_free = []

    # -- analysis -----------------------------------------------------------

    def _classify_vregs(self):
        """Split vregs into cross-block variables and block-local temps."""
        seen_in = {}
        defs = {}
        uses_total = {}
        for name, block in self.ir.blocks.items():
            items = list(block.insts) + [block.terminator]
            for inst in items:
                for vreg in inst.uses():
                    seen_in.setdefault(vreg, set()).add(name)
                    uses_total[vreg] = uses_total.get(vreg, 0) + 1
                if inst.dst is not None:
                    seen_in.setdefault(inst.dst, set()).add(name)
                    defs[inst.dst] = defs.get(inst.dst, 0) + 1
        self.vars = set()
        entry = self.ir.entry
        for vreg, blocks in seen_in.items():
            if len(blocks) > 1 or defs.get(vreg, 0) > 1:
                self.vars.add(vreg)
        # A parameter stays a temp (pinned to its ABI register in the
        # entry block) only when it is never written and never escapes
        # the entry block; otherwise it is a variable.
        for vreg in self.ir.params:
            blocks = seen_in.get(vreg, set())
            if defs.get(vreg, 0) >= 1 or (blocks - {entry}):
                self.vars.add(vreg)
            elif not self.frameless:
                self.vars.add(vreg)
        self.use_weight = uses_total

    def _promote(self):
        """Give the most-used variables callee-saved registers."""
        if self.frameless:
            self.promoted = {}
            self.saved_order = []
            return
        candidates = sorted(
            self.vars,
            key=lambda v: (-(self.use_weight.get(v, 0)), v),
        )
        self.promoted = {}
        for vreg in candidates:
            if len(self.promoted) >= len(CALLEE_SAVED):
                break
            if self.use_weight.get(vreg, 0) >= 1:
                self.promoted[vreg] = CALLEE_SAVED[len(self.promoted)]
        self.saved_order = [self.promoted[v] for v in self.promoted]

    def _assign_slots(self):
        nsaved = len(self.saved_order)
        self.mf.saved_regs = [(reg, 8 * (i + 1)) for i, reg in
                              enumerate(self.saved_order)]
        self.slots = {}
        index = nsaved
        if self.frameless:
            self.next_slot_index = 0
            return
        # Parameters in variables always get a (homing) slot.
        for vreg in self.ir.params:
            if vreg in self.vars:
                index += 1
                self.slots[vreg] = 8 * index
        for vreg in sorted(self.vars):
            if vreg in self.slots or vreg in self.promoted:
                continue
            index += 1
            self.slots[vreg] = 8 * index
        self.next_slot_index = index

    def _new_overflow_slot(self):
        if self.frameless:
            raise CodegenError("frameless function needs a spill slot")
        if self.overflow_free:
            return self.overflow_free.pop()
        self.next_slot_index += 1
        return 8 * self.next_slot_index

    # -- emission helpers ------------------------------------------------------

    def emit(self, op, regs=(), **kwargs):
        kwargs.setdefault("loc", self.loc)
        insn = Instruction(op, regs, **kwargs)
        self.block.insns.append(insn)
        return insn

    def alloc_reg(self, pinned=()):
        if self.free_regs:
            return self.free_regs.pop()
        # Spill a temp whose register is not pinned.
        for vreg, loc in self.temp_loc.items():
            if loc[0] == "reg" and loc[1] not in pinned:
                slot = self._new_overflow_slot()
                self.emit(Op.STORE, (RBP, loc[1]), disp=-slot)
                self.temp_loc[vreg] = ("stack", slot)
                return loc[1]
        raise CodegenError(f"register pressure too high in {self.ir.name}")

    def free_reg(self, reg):
        if reg not in self.free_regs:
            self.free_regs.append(reg)

    def _end_inst(self):
        for vreg in self._consumed:
            self.use_counts[vreg] -= 1
            if self.use_counts[vreg] == 0:
                loc = self.temp_loc.pop(vreg, None)
                if loc is not None:
                    if loc[0] == "reg":
                        self.free_reg(loc[1])
                    else:
                        self.overflow_free.append(loc[1])
        for reg in self._transient:
            self.free_reg(reg)
        self._consumed = []
        self._transient = []

    # -- operand access ------------------------------------------------------------

    def read(self, operand, pinned=(), loc=None):
        """Value of an operand into a register.

        Promoted variables return their callee-saved register
        (read-only!); everything else lands in a scratch register that
        is released at the end of the current IR instruction.
        """
        if isinstance(operand, Imm):
            reg = self.alloc_reg(pinned)
            self._transient.append(reg)
            self._mov_imm(reg, operand.value, loc)
            return reg
        if operand in self.promoted:
            return self.promoted[operand]
        if operand in self.slots:
            reg = self.alloc_reg(pinned)
            self._transient.append(reg)
            self.emit(Op.LOAD, (reg, RBP), disp=-self.slots[operand], loc=loc)
            return reg
        loc_entry = self.temp_loc.get(operand)
        if loc_entry is None or loc_entry[0] == "pushed":
            raise CodegenError(
                f"use of unavailable temp %{operand} in {self.ir.name}")
        if loc_entry[0] == "stack":
            reg = self.alloc_reg(pinned)
            self.emit(Op.LOAD, (reg, RBP), disp=-loc_entry[1], loc=loc)
            self.overflow_free.append(loc_entry[1])
            self.temp_loc[operand] = ("reg", reg)
            loc_entry = self.temp_loc[operand]
        self._consumed.append(operand)
        return loc_entry[1]

    def read_into_scratch(self, operand, pinned=(), loc=None):
        """Like read(), but guarantees a mutable scratch register.

        If the operand is a dying temp, its register is reused directly.
        """
        if (not isinstance(operand, Imm) and operand in self.temp_loc
                and self.temp_loc[operand][0] == "reg"
                and self.use_counts.get(operand, 0) == 1):
            reg = self.temp_loc.pop(operand)[1]
            self.use_counts[operand] = 0
            return reg
        source = self.read(operand, pinned, loc)
        if isinstance(operand, Imm) and source in self._transient:
            # Freshly materialized immediate: already mutable; claim it.
            self._transient.remove(source)
            return source
        reg = self.alloc_reg(pinned + (source,))
        self.emit(Op.MOV_RR, (reg, source), loc=loc)
        return reg

    def _mov_imm(self, reg, value, loc=None):
        if _fits_i32(value):
            self.emit(Op.MOV_RI32, (reg,), imm=value, loc=loc)
        else:
            self.emit(Op.MOV_RI64, (reg,), imm=value, loc=loc)

    def write_result(self, dst, reg, loc=None):
        """Store a computed scratch value into its destination."""
        if dst in self.promoted:
            self.emit(Op.MOV_RR, (self.promoted[dst], reg), loc=loc)
            self.free_reg(reg)
        elif dst in self.slots:
            self.emit(Op.STORE, (RBP, reg), disp=-self.slots[dst], loc=loc)
            self.free_reg(reg)
        else:
            if self.use_counts.get(dst, 0) == 0:
                self.free_reg(reg)  # result never used
                return
            old = self.temp_loc.pop(dst, None)
            if old is not None:
                if old[0] == "reg":
                    self.free_reg(old[1])
                else:
                    self.overflow_free.append(old[1])
            self.temp_loc[dst] = ("reg", reg)

    # -- function skeleton -------------------------------------------------------------

    def run(self):
        order = list(self.ir.blocks)
        back_targets = set()
        position = {name: i for i, name in enumerate(order)}
        for name, block in self.ir.blocks.items():
            for succ in block.successors():
                if position[succ] <= position[name]:
                    back_targets.add(succ)

        for index, name in enumerate(order):
            ir_block = self.ir.blocks[name]
            self.block = MachineBlock(name)
            self.block.is_landing_pad = ir_block.is_landing_pad
            self.block.count = ir_block.count
            if (self.options.align_loops and name in back_targets
                    and index > 0):
                self.block.is_loop_header = True
                self.block.align = self.options.align_to
            self.mf.blocks.append(self.block)

            self.temp_loc = {}
            self.free_regs = list(_SCRATCH_POOL)
            self._consumed = []
            self._transient = []
            self.use_counts = {}
            items = list(ir_block.insts) + [ir_block.terminator]
            for inst in items:
                for vreg in inst.uses():
                    if vreg not in self.vars:
                        self.use_counts[vreg] = self.use_counts.get(vreg, 0) + 1

            if index == 0:
                self._prologue()

            n_insts = len(ir_block.insts)
            for i, inst in enumerate(ir_block.insts):
                self.loc = inst.loc or self.loc
                is_last = i == n_insts - 1
                self._select(inst, ir_block.terminator if is_last else None)
                self._end_inst()
            if not getattr(self, "_terminator_done", False):
                self._terminator(ir_block.terminator)
                self._end_inst()
            self._terminator_done = False

        self.mf.frame_size = 8 * self.next_slot_index
        self._patch_frame_size()
        return self.mf

    def _prologue(self):
        if len(self.ir.params) > len(ARG_REGS):
            raise CodegenError(f"too many parameters in {self.ir.name}")
        if self.frameless:
            # Parameters live in their ABI registers as entry-block temps.
            for i, vreg in enumerate(self.ir.params):
                if self.use_counts.get(vreg, 0) > 0:
                    self.temp_loc[vreg] = ("reg", ARG_REGS[i])
                    if ARG_REGS[i] in self.free_regs:
                        self.free_regs.remove(ARG_REGS[i])
            return
        self.emit(Op.PUSH, (RBP,))
        self.emit(Op.MOV_RR, (RBP, RSP))
        self._frame_sub = self.emit(Op.SUB_RI, (RSP,), imm=0)
        for reg, offset in self.mf.saved_regs:
            self.emit(Op.STORE, (RBP, reg), disp=-offset)
        for i, vreg in enumerate(self.ir.params):
            arg_reg = ARG_REGS[i]
            if vreg in self.promoted:
                self.emit(Op.MOV_RR, (self.promoted[vreg], arg_reg))
                if self.options.naive_param_homing:
                    self.emit(Op.STORE, (RBP, arg_reg),
                              disp=-self.slots[vreg])
            else:
                self.emit(Op.STORE, (RBP, arg_reg), disp=-self.slots[vreg])

    def _patch_frame_size(self):
        if not self.frameless:
            self._frame_sub.imm = self.mf.frame_size

    def _epilogue_insns(self):
        if self.frameless:
            return []
        out = []
        for reg, offset in self.mf.saved_regs:
            out.append(Instruction(Op.LOAD, (reg, RBP), disp=-offset))
        out.append(Instruction(Op.MOV_RR, (RSP, RBP)))
        out.append(Instruction(Op.POP, (RBP,)))
        return out

    # -- per-instruction selection ------------------------------------------------------

    def _select(self, inst, next_terminator):
        kind = inst.kind
        if kind == "const":
            self._sel_const(inst)
        elif kind == "mov":
            self._sel_mov(inst)
        elif kind == "binop":
            self._sel_binop(inst)
        elif kind == "unop":
            self._sel_unop(inst)
        elif kind == "loadg":
            reg = self.alloc_reg()
            self.emit(Op.LOAD_ABS, (reg,), sym=SymRef(inst.sym),
                      loc=inst.loc)
            self.write_result(inst.dst, reg, inst.loc)
        elif kind == "storeg":
            reg = self.read(inst.a, loc=inst.loc)
            self.emit(Op.STORE_ABS, (reg,), sym=SymRef(inst.sym),
                      loc=inst.loc)
        elif kind == "loadidx":
            idx = self._masked_index(inst)
            base = self.alloc_reg(pinned=(idx,))
            self.emit(Op.MOV_RI32, (base,), imm=0,
                      sym=SymRef(inst.sym), loc=inst.loc)
            self.emit(Op.LOADIDX, (base, base, idx), disp=0, loc=inst.loc)
            self.free_reg(idx)
            self.write_result(inst.dst, base, inst.loc)
        elif kind == "storeidx":
            idx = self._masked_index(inst)
            src = self.read(inst.b, pinned=(idx,), loc=inst.loc)
            base = self.alloc_reg(pinned=(idx, src))
            self._transient.append(base)
            self.emit(Op.MOV_RI32, (base,), imm=0,
                      sym=SymRef(inst.sym), loc=inst.loc)
            self.emit(Op.STOREIDX, (base, idx, src), disp=0, loc=inst.loc)
            self.free_reg(idx)
        elif kind in ("call", "icall"):
            if (next_terminator is not None and self.options.tail_calls
                    and self._try_tail_call(inst, next_terminator)):
                self._terminator_done = True
                return
            self._sel_call(inst)
        elif kind == "funcaddr":
            reg = self.alloc_reg()
            self.emit(Op.MOV_RI64, (reg,), imm=0,
                      sym=SymRef(inst.sym), loc=inst.loc)
            self.write_result(inst.dst, reg, inst.loc)
        elif kind == "out":
            reg = self.read(inst.a, loc=inst.loc)
            self.emit(Op.OUT, (reg,), loc=inst.loc)
        elif kind == "throw":
            reg = self.read(inst.a, loc=inst.loc)
            self.emit(Op.MOV_RR, (RDI, reg), loc=inst.loc)
            self.emit(Op.CALL, sym=SymRef(THROW_FUNC), loc=inst.loc,
                      lp=inst.lp)
        elif kind == "landingpad":
            reg = self.alloc_reg()
            self.emit(Op.MOV_RR, (reg, RAX), loc=inst.loc)
            self.write_result(inst.dst, reg, inst.loc)
        elif kind == "profcount":
            reg = self.alloc_reg()
            self._transient.append(reg)
            sym = SymRef("__profc", addend=8 * inst.value)
            self.emit(Op.LOAD_ABS, (reg,), sym=sym, loc=inst.loc)
            self.emit(Op.ADD_RI, (reg,), imm=1, loc=inst.loc)
            self.emit(Op.STORE_ABS, (reg,), sym=sym, loc=inst.loc)
        else:
            raise CodegenError(f"unhandled IR instruction kind {kind}")

    def _masked_index(self, inst):
        """Array index masked to the array length (BC indexing is
        modulo the power-of-two array size).  Returns a scratch register
        owned by the caller (must be freed)."""
        size = inst.value
        operand = inst.a
        if isinstance(operand, Imm) and size:
            operand = Imm(operand.value & (size - 1))
        idx = self.read_into_scratch(operand, loc=inst.loc)
        if size and not isinstance(operand, Imm):
            self.emit(Op.AND_RI, (idx,), imm=size - 1, loc=inst.loc)
        return idx

    def _sel_const(self, inst):
        if inst.dst in self.promoted:
            self._mov_imm(self.promoted[inst.dst], inst.value, inst.loc)
            return
        reg = self.alloc_reg()
        self._mov_imm(reg, inst.value, inst.loc)
        self.write_result(inst.dst, reg, inst.loc)

    def _sel_mov(self, inst):
        if inst.dst in self.promoted:
            src = self.read(inst.a, loc=inst.loc)
            if src != self.promoted[inst.dst]:
                self.emit(Op.MOV_RR, (self.promoted[inst.dst], src), loc=inst.loc)
            return
        reg = self.read_into_scratch(inst.a, loc=inst.loc)
        self.write_result(inst.dst, reg, inst.loc)

    def _sel_binop(self, inst):
        oper = inst.oper
        if oper in _CC_MAP:
            self._sel_compare(inst)
            return
        rt = self.read_into_scratch(inst.a, loc=inst.loc)
        b = inst.b
        if oper in _RI_OPS and isinstance(b, Imm) and _fits_i32(b.value):
            self.emit(_RI_OPS[oper], (rt,), imm=b.value, loc=inst.loc)
        elif oper in _RR_OPS:
            breg = self.read(b, pinned=(rt,), loc=inst.loc)
            self.emit(_RR_OPS[oper], (rt, breg), loc=inst.loc)
        elif oper in ("<<", ">>"):
            shift_ri = Op.SHL_RI if oper == "<<" else Op.SAR_RI
            shift_rr = Op.SHL_RR if oper == "<<" else Op.SAR_RR
            if isinstance(b, Imm):
                self.emit(shift_ri, (rt,), imm=b.value & 63, loc=inst.loc)
            else:
                breg = self.read(b, pinned=(rt,), loc=inst.loc)
                self.emit(shift_rr, (rt, breg), loc=inst.loc)
        elif oper in ("/", "%"):
            breg = self.read(b, pinned=(rt,), loc=inst.loc)
            op = Op.IDIV_RR if oper == "/" else Op.IMOD_RR
            self.emit(op, (rt, breg), loc=inst.loc)
        else:
            raise CodegenError(f"unhandled binop {oper}")
        self.write_result(inst.dst, rt, inst.loc)

    def _sel_compare(self, inst):
        areg = self.read(inst.a, loc=inst.loc)
        self._emit_cmp(areg, inst.b, inst.loc)
        rt = self.alloc_reg(pinned=(areg,))
        self.emit(Op.SETCC, (rt,), imm=int(_CC_MAP[inst.oper]), loc=inst.loc)
        self.write_result(inst.dst, rt, inst.loc)

    def _emit_cmp(self, areg, b, loc):
        if isinstance(b, Imm) and _fits_i32(b.value):
            self.emit(Op.CMP_RI, (areg,), imm=b.value, loc=loc)
        else:
            breg = self.read(b, pinned=(areg,), loc=loc)
            self.emit(Op.CMP_RR, (areg, breg), loc=loc)

    def _sel_unop(self, inst):
        if inst.oper == "-":
            rt = self.read_into_scratch(inst.a, loc=inst.loc)
            self.emit(Op.NEG, (rt,), loc=inst.loc)
            self.write_result(inst.dst, rt, inst.loc)
        else:  # "!"
            areg = self.read(inst.a, loc=inst.loc)
            self.emit(Op.CMP_RI, (areg,), imm=0, loc=inst.loc)
            rt = self.alloc_reg(pinned=(areg,))
            self.emit(Op.SETCC, (rt,), imm=int(CondCode.EQ), loc=inst.loc)
            self.write_result(inst.dst, rt, inst.loc)

    # -- calls ----------------------------------------------------------------------------

    def _sel_call(self, inst, tail=False):
        args = inst.args or []
        if len(args) > len(ARG_REGS):
            raise CodegenError(f"too many call arguments in {self.ir.name}")

        # 1. Which temps survive the call? (their uses minus this inst's)
        survivors = []
        arg_uses = {}
        for operand in list(args) + ([inst.a] if inst.kind == "icall" else []):
            if not isinstance(operand, Imm) and operand in self.temp_loc:
                arg_uses[operand] = arg_uses.get(operand, 0) + 1
        for vreg, loc in list(self.temp_loc.items()):
            remaining = self.use_counts.get(vreg, 0) - arg_uses.get(vreg, 0)
            if remaining > 0:
                survivors.append(vreg)
        if tail and survivors:
            return False

        # Save survivors' values now, but keep their registers readable:
        # an argument may still refer to a surviving temp.
        for vreg in survivors:
            loc = self.temp_loc[vreg]
            if loc[0] == "stack":
                reg = self.alloc_reg()
                self.emit(Op.LOAD, (reg, RBP), disp=-loc[1], loc=inst.loc)
                self.overflow_free.append(loc[1])
                self.temp_loc[vreg] = ("reg", reg)
                loc = self.temp_loc[vreg]
            self.emit(Op.PUSH, (loc[1],), loc=inst.loc)

        # 2. Push argument values (left to right).
        for arg in args:
            reg = self.read(arg, loc=inst.loc)
            self.emit(Op.PUSH, (reg,), loc=inst.loc)
            self._end_inst_partial()

        # 3. Indirect target into r10.
        if inst.kind == "icall":
            freg = self.read(inst.a, loc=inst.loc)
            if freg != R10:
                self.emit(Op.MOV_RR, (R10, freg), loc=inst.loc)
            self._end_inst_partial()

        # Survivors' values are safely on the stack; release their regs.
        for vreg in survivors:
            loc = self.temp_loc[vreg]
            if loc[0] == "reg":
                self.free_reg(loc[1])
            elif loc[0] == "stack":
                self.overflow_free.append(loc[1])
            self.temp_loc[vreg] = ("pushed", None)

        # 4. Pop arguments into the ABI registers (right to left).
        for i in reversed(range(len(args))):
            self.emit(Op.POP, (ARG_REGS[i],), loc=inst.loc)

        if tail:
            for insn in self._epilogue_insns():
                self.block.insns.append(insn)
            if inst.kind == "icall":
                self.emit(Op.JMP_REG, (R10,), loc=inst.loc)
            else:
                self.emit(Op.JMP_NEAR, sym=SymRef(inst.sym),
                          loc=inst.loc)
            return True

        if inst.kind == "icall":
            self.emit(Op.CALL_REG, (R10,), loc=inst.loc, lp=inst.lp)
        else:
            self.emit(Op.CALL, sym=SymRef(inst.sym), loc=inst.loc,
                      lp=inst.lp)

        # 5. Restore survivors into fresh registers, then place result.
        for vreg in reversed(survivors):
            reg = self.alloc_reg(pinned=(RAX,))
            self.emit(Op.POP, (reg,), loc=inst.loc)
            self.temp_loc[vreg] = ("reg", reg)
        if inst.dst is not None:
            if inst.dst in self.promoted:
                self.emit(Op.MOV_RR, (self.promoted[inst.dst], RAX),
                          loc=inst.loc)
            elif inst.dst in self.slots:
                self.emit(Op.STORE, (RBP, RAX), disp=-self.slots[inst.dst],
                          loc=inst.loc)
            else:
                if self.use_counts.get(inst.dst, 0) > 0:
                    reg = self.alloc_reg(pinned=(RAX,))
                    self.emit(Op.MOV_RR, (reg, RAX), loc=inst.loc)
                    self.write_result(inst.dst, reg, inst.loc)
        return True

    def _end_inst_partial(self):
        """Release operand regs mid-sequence (used by the call protocol)."""
        self._end_inst()

    def _try_tail_call(self, inst, terminator):
        """Emit a tail call when the call result flows straight to ret."""
        if terminator.kind != "ret":
            return False
        if inst.lp is not None:
            return False
        ret_val = terminator.a
        if inst.dst is not None and ret_val != inst.dst:
            return False
        if ret_val is not None and inst.dst is None:
            return False
        if (inst.dst is not None
                and (inst.dst in self.vars or self.use_counts.get(inst.dst, 0) != 1)):
            return False
        if inst.kind == "call" and inst.sym == THROW_FUNC:
            return False
        return self._sel_call(inst, tail=True)

    # -- terminators -------------------------------------------------------------------------

    def _terminator(self, term):
        kind = term.kind
        self.loc = term.loc or self.loc
        if kind == "br":
            self.emit(Op.JMP_NEAR, label=term.targets[0], loc=term.loc)
        elif kind == "cbr":
            areg = self.read(term.a, loc=term.loc)
            self._emit_cmp(areg, term.b, term.loc)
            self.emit(Op.JCC_LONG, cc=_CC_MAP[term.oper],
                      label=term.targets[0], loc=term.loc)
            self.emit(Op.JMP_NEAR, label=term.targets[1], loc=term.loc)
        elif kind == "switch":
            self._sel_switch(term)
        elif kind == "ret":
            if term.a is not None:
                src = self.read(term.a, loc=term.loc)
                if src != RAX:
                    self.emit(Op.MOV_RR, (RAX, src), loc=term.loc)
            for insn in self._epilogue_insns():
                self.block.insns.append(insn)
            self.emit(Op.REPZ_RET if self.options.repz_ret else Op.RET,
                      loc=term.loc)
        elif kind == "unreachable":
            self.emit(Op.TRAP, loc=term.loc)
        else:
            raise CodegenError(f"unhandled terminator {kind}")

    def _sel_switch(self, term):
        cases = term.cases
        default = term.targets[0]
        values = sorted(cases)
        span = values[-1] - values[0] + 1 if values else 0
        dense = (len(values) >= self.options.dense_switch_min_cases
                 and span <= self.options.dense_switch_max_ratio * len(values))
        areg = self.read(term.a, loc=term.loc)
        if dense:
            rt = self.alloc_reg(pinned=(areg,))
            self.emit(Op.MOV_RR, (rt, areg), loc=term.loc)
            if values[0] != 0:
                self.emit(Op.SUB_RI, (rt,), imm=values[0], loc=term.loc)
            self.emit(Op.CMP_RI, (rt,), imm=span - 1, loc=term.loc)
            self.emit(Op.JCC_LONG, cc=CondCode.UGT, label=default, loc=term.loc)
            table_sym = f"{self.ir.link_name()}.jt{len(self.mf.jump_tables)}"
            entries = [cases.get(values[0] + i, default) for i in range(span)]
            self.mf.jump_tables.append((table_sym, entries))
            base = self.alloc_reg(pinned=(rt,))
            self.emit(Op.MOV_RI32, (base,), imm=0,
                      sym=SymRef(table_sym), loc=term.loc)
            self.emit(Op.LOADIDX, (base, base, rt), disp=0, loc=term.loc)
            self.emit(Op.JMP_REG, (base,), loc=term.loc)
            self.free_reg(rt)
            self.free_reg(base)
        else:
            for value in values:
                if not _fits_i32(value):
                    raise CodegenError("switch case value out of i32 range")
                self.emit(Op.CMP_RI, (areg,), imm=value, loc=term.loc)
                self.emit(Op.JCC_LONG, cc=CondCode.EQ, label=cases[value],
                          loc=term.loc)
            self.emit(Op.JMP_NEAR, label=default, loc=term.loc)


def select_function(func_ir, options=None):
    """Lower one IR function to a :class:`MachineFunction`.

    Frameless selection is attempted for eligible leaves; if register
    pressure forces a spill the function is re-selected with a frame.
    """
    options = options or CodegenOptions()
    selector = _FunctionSelector(func_ir, options)
    selector._terminator_done = False
    if selector.frameless:
        try:
            return selector.run()
        except CodegenError:
            selector = _FunctionSelector(func_ir, options, force_frame=True)
            selector._terminator_done = False
    return selector.run()
