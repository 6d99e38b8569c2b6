"""The table-driven decoder: an encode/decode round trip over every
opcode, the exact message of each ``DecodeError`` class, and the SETCC
condition-code range that the encoder, decoder and lint enforce."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.binlint import lint_binary
from repro.belf import Binary, Section, SectionFlag, Symbol, SymbolType
from repro.isa import CondCode, DecodeError, Instruction, Op, decode, encode
from repro.isa.encoding import EncodeError
from repro.isa.opcodes import FORMAT_SIZES, OPERAND_FORMATS

_INT32 = st.integers(-2**31, 2**31 - 1)
_OPERANDS = {
    "reg": st.integers(0, 15),
    "imm8": st.integers(0, 255),
    "imm32": _INT32,
    "imm64": st.integers(-2**63, 2**63 - 1),
    "disp32": _INT32,
    "abs32": st.integers(0, 2**32 - 1),
    "rel8": st.integers(-128, 127),
    "rel32": _INT32,
}
_FIELDS = ("op", "regs", "imm", "disp", "addr", "cc", "target", "label",
           "sym", "address", "size", "loc", "lp", "jump_table", "tailcall",
           "plt", "call_targets", "call_mispreds")


def _draw_instruction(data, op, address):
    """An instruction of ``op`` with hypothesis-drawn operands, and the
    fields its decode must carry."""
    regs = []
    fields = {"imm": None, "disp": 0, "addr": None, "cc": None,
              "target": None}
    for atom in OPERAND_FORMATS[op]:
        if atom == "pad":
            continue
        value = data.draw(_OPERANDS[atom])
        if atom == "reg":
            regs.append(value)
        elif atom == "disp32":
            fields["disp"] = value
        elif atom == "abs32":
            fields["addr"] = value
        elif atom in ("rel8", "rel32"):
            fields["target"] = address + FORMAT_SIZES[op] + value
        else:
            fields["imm"] = value
    if op == Op.SETCC:
        fields["imm"] = data.draw(st.integers(0, len(CondCode) - 1))
    elif op == Op.NOPN:
        fields["imm"] = data.draw(st.integers(2, 40))
    elif op in (Op.JCC_SHORT, Op.JCC_LONG):
        fields["cc"] = data.draw(st.sampled_from(list(CondCode)))
    insn = Instruction(op, regs, **fields)
    return insn, dict(fields, op=op, regs=tuple(regs), label=None, sym=None,
                      address=address, size=insn.size, loc=None, lp=None,
                      jump_table=None, tailcall=False, plt=None,
                      call_targets=None, call_mispreds=0)


@pytest.mark.parametrize("op", [op for op in Op if op != Op.PREFIX_0F],
                         ids=lambda op: op.name)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_roundtrip_every_opcode(op, data):
    address = data.draw(st.integers(0x1000, 0x7FFF0000))
    insn, expected = _draw_instruction(data, op, address)
    blob = encode(insn, address)
    # Trailing bytes must not leak into the decode.
    decoded = decode(blob + b"\xff" * 8, 0, address)
    assert {name: getattr(decoded, name) for name in _FIELDS} == expected
    assert type(decoded.op) is Op
    if decoded.cc is not None:
        assert type(decoded.cc) is CondCode
    assert encode(decoded, address) == blob


@pytest.mark.parametrize("blob, message", [
    (b"", "truncated instruction at 0x40"),
    (b"\x0f", "truncated 0x0F prefix at 0x40"),
    (b"\x0f\x6a\x00\x00\x00\x00", "invalid 0x0F opcode 0x6a at 0x40"),
    (b"\x0f\x7a\x00\x00\x00\x00", "invalid 0x0F opcode 0x7a at 0x40"),
    (b"\x0f\x71\x00\x00", "truncated JCC_LONG at 0x40"),
    (b"\xff", "invalid opcode byte 0xff at 0x40"),
    (b"\x70\x00", "invalid opcode byte 0x70 at 0x40"),
    (b"\x6a\x00", "invalid opcode byte 0x6a at 0x40"),
    (b"\x11\x00\x01\x00", "truncated MOV_RI32 at 0x40"),
    (b"\x10\x03\x10", "invalid register 16 at 0x40"),
    (b"\x18\x01\x02\xc8\x00\x00\x00\x00", "invalid register 200 at 0x40"),
    (b"\x02", "truncated NOPN at 0x40"),
    (b"\x02\x01", "bad NOPN length 1 at 0x40"),
    (b"\x02\x05\x00", "bad NOPN length 5 at 0x40"),
    (b"\x39\x00\x0a", "invalid SETCC condition code 10 at 0x40"),
    (b"\x39\x00\xff", "invalid SETCC condition code 255 at 0x40"),
    (b"\x39\x11\xff", "invalid register 17 at 0x40"),
])
def test_decode_error_messages(blob, message):
    with pytest.raises(DecodeError) as info:
        decode(blob, 0, 0x40)
    assert str(info.value) == message


@pytest.mark.parametrize("cc", [10, 11, 255])
def test_encode_rejects_setcc_condition_out_of_range(cc):
    with pytest.raises(EncodeError, match="condition code"):
        encode(Instruction(Op.SETCC, (0,), imm=cc))


def test_lint_flags_setcc_condition_out_of_range():
    code = (encode(Instruction(Op.CMP_RI, (0,), imm=1))
            + bytes([int(Op.SETCC), 0, 12])
            + encode(Instruction(Op.RET)))
    binary = Binary(kind="exec", name="asm")
    binary.add_section(Section(
        ".text", flags=SectionFlag.ALLOC | SectionFlag.EXEC, addr=0x1000,
        data=code))
    binary.add_symbol(Symbol("main", value=0x1000, size=len(code),
                             type=SymbolType.FUNC, section=".text"))
    binary.entry = 0x1000
    findings = [f for f in lint_binary(binary) if f.rule == "BL102"]
    assert [f.message for f in findings] == [
        "body does not decode: invalid SETCC condition code 12 at 0x1006"]
