"""The :class:`Instruction` object shared by the whole toolchain.

The compiler's code generator builds symbolic instructions (branches
target labels, calls/address materializations carry :class:`SymRef`
references that the object emitter turns into relocations).  The
disassembler produces concrete instructions with resolved absolute
branch targets.  Side data rides on named fields: the line location,
landing pad, jump table, tail-call and PLT marks and the indirect-call
profile.  They are the part of BOLT's generic MCInst annotation
mechanism (section 3.3 of the paper) that this toolchain reads.
"""

from repro.isa.opcodes import (
    Op,
    CondCode,
    OPERAND_FORMATS,
    cc_name,
    FORMAT_SIZES,
    MEM_READ_OPS,
    MEM_WRITE_OPS,
)
from repro.isa.registers import reg_name


class SymRef:
    """A symbolic reference from an instruction operand to a symbol.

    Which operand field holds it once encoded, and with which
    relocation type, follows from the opcode (codegen's ``SYM_SLOT``).
    """

    __slots__ = ("name", "addend")

    def __init__(self, name, addend=0):
        self.name = name
        self.addend = addend

    def __repr__(self):
        add = f"+{self.addend}" if self.addend else ""
        return f"SymRef({self.name}{add})"

    def __eq__(self, other):
        return (
            isinstance(other, SymRef)
            and self.name == other.name
            and self.addend == other.addend
        )

    def __hash__(self):
        return hash((self.name, self.addend))


_UNCOND_BRANCHES = frozenset({Op.JMP_SHORT, Op.JMP_NEAR})
_COND_BRANCHES = frozenset({Op.JCC_SHORT, Op.JCC_LONG})
#: Calls, direct or indirect (``Instruction.is_call``).
CALL_OPS = frozenset({Op.CALL, Op.CALL_REG, Op.CALL_MEM})
#: Returns (``Instruction.is_return``).
RETURN_OPS = frozenset({Op.RET, Op.REPZ_RET})
_INDIRECT = frozenset({Op.CALL_REG, Op.CALL_MEM, Op.JMP_REG, Op.JMP_MEM})
_NOPS = frozenset({Op.NOP, Op.NOPN})
#: Opcodes after which control cannot fall through.
TERMINATOR_OPS = _UNCOND_BRANCHES | RETURN_OPS | frozenset(
    {Op.JMP_REG, Op.JMP_MEM, Op.HALT, Op.TRAP})
#: Direct branches, conditional or not (``Instruction.is_branch``).
BRANCH_OPS = _UNCOND_BRANCHES | _COND_BRANCHES
_NOPN = Op.NOPN
_new = object.__new__


class Instruction:
    """One BX86 instruction.

    Attributes:
        op: the :class:`Op` opcode.
        regs: tuple of register operands (meaning depends on ``op``).
        imm: integer immediate (``MOV_RI*``, ALU ``*_RI``, shifts, NOPN len).
        disp: signed displacement for register-relative memory operands.
        addr: absolute address for ``*_ABS`` / ``CALL_MEM`` / ``JMP_MEM``.
        cc: :class:`CondCode` for conditional branches.
        target: resolved absolute branch/call target (decode & emission).
        label: symbolic intra-function branch target (codegen & BOLT).
        sym: :class:`SymRef` for relocatable operands.
        address: the instruction's own address once placed.
        size: encoded size in bytes.

    Side data (paper section 3.3), None/False/0 when absent:
        loc: ``(file, line)`` source location, for the line table.
        lp: the landing-pad block label of a call that can throw.
        jump_table: the BOLT :class:`JumpTable` an indirect jump
            dispatches through.
        tailcall: True for a branch to another function.
        plt: ``(GOT address, final target)`` of a call or tail call
            through a PLT stub.
        call_targets: callee name -> count of an indirect call (LBR
            profile, the ICP input).
        call_mispreds: that call's mispredicted count.
    """

    __slots__ = (
        "op",
        "regs",
        "imm",
        "disp",
        "addr",
        "cc",
        "target",
        "label",
        "sym",
        "address",
        "size",
        "loc",
        "lp",
        "jump_table",
        "tailcall",
        "plt",
        "call_targets",
        "call_mispreds",
    )

    def __init__(
        self,
        op,
        regs=(),
        imm=None,
        disp=0,
        addr=None,
        cc=None,
        target=None,
        label=None,
        sym=None,
        address=None,
        loc=None,
        lp=None,
    ):
        self.op = op
        self.regs = tuple(regs)
        self.imm = imm
        self.disp = disp
        self.addr = addr
        self.cc = cc
        self.target = target
        self.label = label
        self.sym = sym
        self.address = address
        self.size = imm if op == _NOPN else FORMAT_SIZES[op]
        self.loc = loc
        self.lp = lp
        self.jump_table = None
        self.tailcall = False
        self.plt = None
        self.call_targets = None
        self.call_mispreds = 0

    # -- classification --------------------------------------------------

    @property
    def is_cond_branch(self):
        return self.op in _COND_BRANCHES

    @property
    def is_branch(self):
        return self.op in BRANCH_OPS

    @property
    def is_call(self):
        return self.op in CALL_OPS

    @property
    def is_return(self):
        return self.op in RETURN_OPS

    @property
    def is_indirect(self):
        return self.op in _INDIRECT

    @property
    def is_indirect_branch(self):
        return self.op in (Op.JMP_REG, Op.JMP_MEM)

    @property
    def is_nop(self):
        return self.op in _NOPS

    @property
    def is_terminator(self):
        """True when control cannot fall through to the next instruction."""
        return self.op in TERMINATOR_OPS

    @property
    def reads_memory(self):
        return self.op in MEM_READ_OPS

    @property
    def writes_memory(self):
        return self.op in MEM_WRITE_OPS

    @property
    def is_control_flow(self):
        return self.is_branch or self.is_call or self.is_return or self.is_terminator

    def copy(self):
        """A shallow copy: every field is shared (``SymRef``, jump
        table and call-target dict included).

        Copies the slots directly: no ``__init__``, no size lookup.
        """
        insn = _new(Instruction)
        insn.op = self.op
        insn.regs = self.regs
        insn.imm = self.imm
        insn.disp = self.disp
        insn.addr = self.addr
        insn.cc = self.cc
        insn.target = self.target
        insn.label = self.label
        insn.sym = self.sym
        insn.address = self.address
        insn.size = self.size
        insn.loc = self.loc
        insn.lp = self.lp
        insn.jump_table = self.jump_table
        insn.tailcall = self.tailcall
        insn.plt = self.plt
        insn.call_targets = self.call_targets
        insn.call_mispreds = self.call_mispreds
        return insn

    def replace(self, **fields):
        """A copy with ``fields`` changed; a new ``op`` brings its size.

        Passes rewrite instructions through this rather than mutating
        them, so a pass-containment snapshot can share instruction
        objects.
        """
        insn = self.copy()
        for name, value in fields.items():
            setattr(insn, name, value)
        if "op" in fields and "size" not in fields:
            insn.size = insn.imm if insn.op == _NOPN else FORMAT_SIZES[insn.op]
        return insn

    # -- rendering --------------------------------------------------------

    def mnemonic(self):
        """x86-flavoured mnemonic string (``jne``, ``repz retq``...)."""
        if self.op in _COND_BRANCHES:
            return "j" + cc_name(self.cc)
        return {
            Op.HALT: "hlt",
            Op.NOP: "nop",
            Op.NOPN: "nopw",
            Op.OUT: "out",
            Op.RET: "retq",
            Op.REPZ_RET: "repz retq",
            Op.TRAP: "ud2",
            Op.MOV_RR: "movq",
            Op.MOV_RI32: "movl",
            Op.MOV_RI64: "movabsq",
            Op.LEA: "leaq",
            Op.LOAD: "movq",
            Op.STORE: "movq",
            Op.LOAD_ABS: "movq",
            Op.STORE_ABS: "movq",
            Op.LOADIDX: "movq",
            Op.STOREIDX: "movq",
            Op.ADD_RR: "addq",
            Op.ADD_RI: "addq",
            Op.SUB_RR: "subq",
            Op.SUB_RI: "subq",
            Op.IMUL_RR: "imulq",
            Op.IMUL_RI: "imulq",
            Op.AND_RR: "andq",
            Op.AND_RI: "andq",
            Op.OR_RR: "orq",
            Op.OR_RI: "orq",
            Op.XOR_RR: "xorq",
            Op.XOR_RI: "xorq",
            Op.SHL_RI: "shlq",
            Op.SHR_RI: "shrq",
            Op.SAR_RI: "sarq",
            Op.NEG: "negq",
            Op.CMP_RR: "cmpq",
            Op.CMP_RI: "cmpq",
            Op.TEST_RR: "testq",
            Op.TEST_RI: "testq",
            Op.IDIV_RR: "idivq",
            Op.IMOD_RR: "imodq",
            Op.SHL_RR: "shlq",
            Op.SHR_RR: "shrq",
            Op.SAR_RR: "sarq",
            Op.SETCC: "setcc",
            Op.PUSH: "pushq",
            Op.POP: "popq",
            Op.JMP_SHORT: "jmp",
            Op.JMP_NEAR: "jmp",
            Op.CALL: "callq",
            Op.CALL_REG: "callq",
            Op.CALL_MEM: "callq",
            Op.JMP_REG: "jmp",
            Op.JMP_MEM: "jmp",
        }[self.op]

    def _target_str(self):
        if self.label is not None:
            return self.label
        if self.sym is not None:
            return self.sym.name
        if self.target is not None:
            return f"0x{self.target:x}"
        return "?"

    def __str__(self):
        op = self.op
        m = self.mnemonic()
        r = [f"%{reg_name(x)}" for x in self.regs]
        fmt = OPERAND_FORMATS[op]
        if self.is_branch or op == Op.CALL:
            return f"{m} {self._target_str()}"
        if op in (Op.CALL_REG, Op.JMP_REG):
            return f"{m} *{r[0]}"
        if op in (Op.CALL_MEM, Op.JMP_MEM):
            return f"{m} *{self._target_str() if self.sym else f'0x{self.addr:x}'}"
        if op in (Op.MOV_RI32, Op.MOV_RI64):
            if self.sym is not None:
                return f"{m} ${self.sym.name}, {r[0]}"
            return f"{m} ${self.imm}, {r[0]}"
        if op in (Op.LOAD, Op.LEA):
            return f"{m} {self.disp:#x}({r[1]}), {r[0]}"
        if op == Op.STORE:
            return f"{m} {r[1]}, {self.disp:#x}({r[0]})"
        if op == Op.LOAD_ABS:
            loc = self.sym.name if self.sym else f"0x{self.addr:x}"
            return f"{m} {loc}(%rip), {r[0]}"
        if op == Op.STORE_ABS:
            loc = self.sym.name if self.sym else f"0x{self.addr:x}"
            return f"{m} {r[0]}, {loc}(%rip)"
        if op == Op.LOADIDX:
            return f"{m} {self.disp:#x}({r[1]},{r[2]},8), {r[0]}"
        if op == Op.STOREIDX:
            return f"{m} {r[2]}, {self.disp:#x}({r[0]},{r[1]},8)"
        if fmt == ("reg", "imm32"):
            return f"{m} ${self.imm}, {r[0]}"
        if fmt == ("reg", "imm8"):
            return f"{m} ${self.imm}, {r[0]}"
        if fmt == ("reg", "reg"):
            return f"{m} {r[1]}, {r[0]}"
        if fmt == ("reg",):
            return f"{m} {r[0]}"
        return m

    def __repr__(self):
        where = f" @0x{self.address:x}" if self.address is not None else ""
        return f"<{self} {where}>"
