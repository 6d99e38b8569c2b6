"""Table-driven disassembler for BX86 machine code.

Every opcode byte indexes one *decode plan*, built once at import from
``OPERAND_FORMATS``: the opcode, its encoded size, a precompiled
``struct`` unpacker for its operand bytes, how many of the unpacked
values are registers (register operands always lead a format), and
where the one remaining value goes (``imm``, ``disp``, ``addr`` or a
pc-relative ``target``).  Decoding an instruction is then one table
lookup and one ``unpack_from``; no enum is constructed per instruction.
"""

import struct

from repro.isa.opcodes import Op, CondCode, OPERAND_FORMATS, FORMAT_SIZES
from repro.isa.instruction import Instruction


class DecodeError(Exception):
    """Raised on bytes that do not form a valid BX86 instruction."""


_NUM_CCS = len(CondCode)
_NUM_REGS = 16
_PREFIX_0F = int(Op.PREFIX_0F)
_NOPN_BYTE = int(Op.NOPN)
_NOPN = Op.NOPN
_new = object.__new__

# What the unpacked operand after the registers becomes.
_NONE, _IMM, _SETCC_IMM, _DISP, _ADDR, _REL = range(6)

_ATOM_CODES = {"reg": "B", "imm8": "B", "imm32": "i", "imm64": "q",
               "disp32": "i", "abs32": "I", "rel8": "b", "rel32": "i",
               "pad": "x"}
_ATOM_FIELDS = {"imm8": _IMM, "imm32": _IMM, "imm64": _IMM,
                "disp32": _DISP, "abs32": _ADDR, "rel8": _REL,
                "rel32": _REL}


def _plan(op, cc=None):
    """(op, size, unpack_from, operand start, register count, field, cc)."""
    atoms = OPERAND_FORMATS[op]
    nregs = atoms.count("reg")
    assert atoms[:nregs] == ("reg",) * nregs, op
    fields = [_ATOM_FIELDS[a] for a in atoms if a in _ATOM_FIELDS]
    assert len(fields) <= 1, op
    field = fields[0] if fields else _NONE
    if op == Op.SETCC:
        field = _SETCC_IMM
    unpack = struct.Struct(
        "<" + "".join(_ATOM_CODES[a] for a in atoms)).unpack_from
    start = 2 if op == Op.JCC_LONG else 1
    return (op, FORMAT_SIZES[op], unpack, start, nregs, field, cc)


#: Opcode byte -> decode plan; None for NOPN, the 0x0F prefix and
#: invalid bytes, which ``decode`` handles off the fast path.
_PLANS = [None] * 256
for _op in Op:
    if _op not in (Op.JCC_SHORT, Op.JCC_LONG, Op.PREFIX_0F, Op.NOPN):
        _PLANS[_op] = _plan(_op)
#: Second byte after 0x0F -> decode plan (JCC_LONG per condition).
_LONG_PLANS = [None] * 256
for _cc in CondCode:
    _PLANS[0x60 + _cc] = _plan(Op.JCC_SHORT, _cc)
    _LONG_PLANS[0x70 + _cc] = _plan(Op.JCC_LONG, _cc)
del _op, _cc


def decode(data, offset=0, address=0):
    """Decode one instruction from ``data`` at ``offset``.

    ``address`` is the virtual address of the instruction; branch targets
    are resolved to absolute addresses.  Returns the decoded
    :class:`Instruction` (with ``.address`` and ``.size`` set).
    Raises :class:`DecodeError` on invalid encodings or truncation.
    """
    try:
        byte = data[offset]
    except IndexError:
        raise DecodeError(f"truncated instruction at 0x{address:x}") from None
    plan = _PLANS[byte]
    if plan is None:
        if byte == _NOPN_BYTE:
            return _decode_nopn(data, offset, address)
        if byte != _PREFIX_0F:
            raise DecodeError(
                f"invalid opcode byte 0x{byte:02x} at 0x{address:x}")
        try:
            second = data[offset + 1]
        except IndexError:
            raise DecodeError(
                f"truncated 0x0F prefix at 0x{address:x}") from None
        plan = _LONG_PLANS[second]
        if plan is None:
            raise DecodeError(
                f"invalid 0x0F opcode 0x{second:02x} at 0x{address:x}")

    op, size, unpack, start, nregs, field, cc = plan
    if offset + size > len(data):
        raise DecodeError(f"truncated {op.name} at 0x{address:x}")
    values = unpack(data, offset + start)

    insn = _new(Instruction)
    insn.op = op
    insn.imm = None
    insn.disp = 0
    insn.addr = None
    insn.cc = cc
    insn.target = None
    insn.label = None
    insn.sym = None
    insn.address = address
    insn.size = size
    insn.loc = None
    insn.lp = None
    insn.jump_table = None
    insn.tailcall = False
    insn.plt = None
    insn.call_targets = None
    insn.call_mispreds = 0
    if nregs:
        regs = values[:nregs]
        if max(regs) >= _NUM_REGS:
            bad = next(r for r in regs if r >= _NUM_REGS)
            raise DecodeError(f"invalid register {bad} at 0x{address:x}")
        insn.regs = regs
    else:
        insn.regs = ()
    if field:
        value = values[nregs]
        if field == _IMM:
            insn.imm = value
        elif field == _DISP:
            insn.disp = value
        elif field == _REL:
            insn.target = address + size + value
        elif field == _ADDR:
            insn.addr = value
        else:
            if value >= _NUM_CCS:
                raise DecodeError(
                    f"invalid SETCC condition code {value} at 0x{address:x}")
            insn.imm = value
    return insn


def _decode_nopn(data, offset, address):
    pos = offset + 1
    if pos >= len(data):
        raise DecodeError(f"truncated NOPN at 0x{address:x}")
    length = data[pos]
    if length < 2 or offset + length > len(data):
        raise DecodeError(f"bad NOPN length {length} at 0x{address:x}")
    return Instruction(_NOPN, imm=length, address=address)


def decode_stream(data, start=0, end=None, base_address=0):
    """Decode a byte range into a list of instructions.

    ``base_address`` is the virtual address of ``data[start]``.  Stops at
    ``end`` (exclusive, defaults to ``len(data)``).  Raises
    :class:`DecodeError` if any byte range fails to decode or an
    instruction straddles ``end``.
    """
    if end is None:
        end = len(data)
    insns = []
    offset = start
    delta = base_address - start
    while offset < end:
        insn = decode(data, offset, offset + delta)
        offset += insn.size
        if offset > end:
            raise DecodeError(
                f"instruction at 0x{insn.address:x} straddles region end"
            )
        insns.append(insn)
    return insns
