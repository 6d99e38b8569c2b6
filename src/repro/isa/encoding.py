"""Table-driven binary encoder for BX86 instructions."""

import struct

from repro.isa.opcodes import Op, CondCode, OPERAND_FORMATS, format_size


class EncodeError(Exception):
    """Raised when an instruction cannot be encoded."""


def instruction_size(insn):
    """Encoded size in bytes of an instruction (no placement needed)."""
    if insn.op == Op.NOPN:
        return insn.imm
    return format_size(insn.op)


def _check_fits(value, bits, signed, insn):
    lo = -(1 << (bits - 1)) if signed else 0
    hi = (1 << (bits - 1)) - 1 if signed else (1 << bits) - 1
    if not lo <= value <= hi:
        raise EncodeError(f"operand {value} does not fit in {bits} bits for {insn}")


def encode(insn, address=None):
    """Encode ``insn`` to bytes.

    ``address`` is the address at which the instruction will be placed;
    it is required for branches and calls with resolved absolute
    ``target`` values (the pc-relative offset is computed from the end of
    the instruction, like x86).  Symbolic operands (``label``/``sym``)
    must already be resolved to numeric ``target``/``addr``/``imm``
    values — the object emitter and BOLT's code emitter are responsible
    for that, leaving relocation slots zeroed when a relocation is
    emitted instead.
    """
    op = insn.op
    size = instruction_size(insn)
    if op == Op.NOPN:
        if insn.imm is None or insn.imm < 2 or insn.imm > 255:
            raise EncodeError(f"NOPN length must be in [2, 255]: {insn}")
        return bytes([int(Op.NOPN), insn.imm]) + b"\x00" * (insn.imm - 2)
    if op == Op.SETCC and not 0 <= insn.imm < len(CondCode):
        raise EncodeError(f"SETCC condition code {insn.imm} out of range: {insn}")

    out = bytearray()
    if op == Op.JCC_LONG:
        out.append(Op.PREFIX_0F)
        out.append(0x70 + int(insn.cc))
    elif op == Op.JCC_SHORT:
        out.append(0x60 + int(insn.cc))
    else:
        out.append(int(op))

    regs = iter(insn.regs)
    for atom in OPERAND_FORMATS[op]:
        if atom == "reg":
            out.append(next(regs))
        elif atom == "imm8":
            _check_fits(insn.imm, 8, signed=False, insn=insn)
            out.append(insn.imm)
        elif atom == "imm32":
            value = insn.imm if insn.imm is not None else 0
            _check_fits(value, 32, signed=True, insn=insn)
            out += struct.pack("<i", value)
        elif atom == "imm64":
            value = insn.imm if insn.imm is not None else 0
            out += struct.pack("<q", _wrap64(value))
        elif atom == "disp32":
            _check_fits(insn.disp, 32, signed=True, insn=insn)
            out += struct.pack("<i", insn.disp)
        elif atom == "abs32":
            value = insn.addr if insn.addr is not None else 0
            _check_fits(value, 32, signed=False, insn=insn)
            out += struct.pack("<I", value)
        elif atom in ("rel8", "rel32"):
            if insn.target is None:
                rel = 0
            else:
                if address is None:
                    raise EncodeError(f"cannot encode branch without address: {insn}")
                rel = insn.target - (address + size)
            bits = 8 if atom == "rel8" else 32
            _check_fits(rel, bits, signed=True, insn=insn)
            out += struct.pack("<b" if atom == "rel8" else "<i", rel)
        elif atom == "pad":
            out.append(0)
        else:  # pragma: no cover - table is exhaustive
            raise EncodeError(f"unknown operand atom {atom}")
    assert len(out) == size, (insn, len(out), size)
    return bytes(out)


def _wrap64(value):
    """Wrap an arbitrary int into signed 64-bit two's complement."""
    value &= (1 << 64) - 1
    if value >= 1 << 63:
        value -= 1 << 64
    return value


def branch_offset_fits_short(insn, address):
    """Whether a branch at ``address`` reaches ``insn.target`` via rel8.

    The short form is 2 bytes; the offset is measured from the end of the
    short encoding.
    """
    short_size = 2
    rel = insn.target - (address + short_size)
    return -128 <= rel <= 127
