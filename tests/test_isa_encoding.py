"""Unit + property tests for the BX86 encoder/decoder round trip."""

import pytest
from hypothesis import given, strategies as st

from repro.isa import (
    Instruction,
    Op,
    CondCode,
    encode,
    decode,
    decode_stream,
    DecodeError,
    instruction_size,
    negate_cc,
    RAX,
    RBX,
    RCX,
    RSP,
)
from repro.isa.encoding import EncodeError, branch_offset_fits_short
from repro.isa.opcodes import OPERAND_FORMATS, format_size


def roundtrip(insn, address=0x1000):
    data = encode(insn, address)
    assert len(data) == instruction_size(insn)
    decoded = decode(data, 0, address)
    assert decoded.op == insn.op
    assert decoded.size == len(data)
    return decoded


def test_nop_sizes():
    assert instruction_size(Instruction(Op.NOP)) == 1
    assert instruction_size(Instruction(Op.NOPN, imm=7)) == 7
    assert instruction_size(Instruction(Op.RET)) == 1
    assert instruction_size(Instruction(Op.REPZ_RET)) == 2


def test_branch_sizes_match_paper():
    """Paper section 3.1: 2-byte short jcc vs 6-byte long jcc."""
    short = Instruction(Op.JCC_SHORT, cc=CondCode.NE, target=0x1010)
    long_ = Instruction(Op.JCC_LONG, cc=CondCode.NE, target=0x1010)
    assert instruction_size(short) == 2
    assert instruction_size(long_) == 6
    assert instruction_size(Instruction(Op.JMP_SHORT, target=0)) == 2
    assert instruction_size(Instruction(Op.JMP_NEAR, target=0)) == 5
    assert instruction_size(Instruction(Op.CALL, target=0)) == 5


def test_mov_rr_roundtrip():
    decoded = roundtrip(Instruction(Op.MOV_RR, (RAX, RBX)))
    assert decoded.regs == (RAX, RBX)


def test_mov_ri32_negative():
    decoded = roundtrip(Instruction(Op.MOV_RI32, (RCX,), imm=-12345))
    assert decoded.imm == -12345


def test_mov_ri64_roundtrip():
    decoded = roundtrip(Instruction(Op.MOV_RI64, (RAX,), imm=0x123456789ABCDEF))
    assert decoded.imm == 0x123456789ABCDEF


def test_load_store_disp():
    decoded = roundtrip(Instruction(Op.LOAD, (RAX, RSP), disp=-64))
    assert decoded.regs == (RAX, RSP)
    assert decoded.disp == -64
    decoded = roundtrip(Instruction(Op.STORE, (RSP, RBX), disp=1024))
    assert decoded.disp == 1024


def test_loadidx_roundtrip():
    decoded = roundtrip(Instruction(Op.LOADIDX, (RAX, RBX, RCX), disp=16))
    assert decoded.regs == (RAX, RBX, RCX)
    assert decoded.disp == 16


def test_abs_ops():
    decoded = roundtrip(Instruction(Op.LOAD_ABS, (RAX,), addr=0x20000))
    assert decoded.addr == 0x20000
    decoded = roundtrip(Instruction(Op.CALL_MEM, addr=0x30000))
    assert decoded.addr == 0x30000
    assert decoded.size == 6
    decoded = roundtrip(Instruction(Op.JMP_MEM, addr=0x30008))
    assert decoded.size == 6


def test_branch_target_resolution():
    insn = Instruction(Op.JMP_NEAR, target=0x2000)
    decoded = roundtrip(insn, address=0x1000)
    assert decoded.target == 0x2000


def test_short_branch_backward():
    insn = Instruction(Op.JMP_SHORT, target=0x0FF0)
    decoded = roundtrip(insn, address=0x1000)
    assert decoded.target == 0x0FF0


def test_jcc_roundtrip_all_ccs():
    for cc in CondCode:
        decoded = roundtrip(Instruction(Op.JCC_SHORT, cc=cc, target=0x1010))
        assert decoded.cc == cc
        decoded = roundtrip(Instruction(Op.JCC_LONG, cc=cc, target=0x4000))
        assert decoded.cc == cc


def test_call_roundtrip():
    decoded = roundtrip(Instruction(Op.CALL, target=0x5000), address=0x1000)
    assert decoded.target == 0x5000
    assert decoded.is_call


def test_short_branch_out_of_range_raises():
    insn = Instruction(Op.JMP_SHORT, target=0x9000)
    with pytest.raises(EncodeError):
        encode(insn, 0x1000)


def test_branch_without_address_raises():
    with pytest.raises(EncodeError):
        encode(Instruction(Op.JMP_NEAR, target=0x2000))


def test_nopn_roundtrip():
    data = encode(Instruction(Op.NOPN, imm=9))
    assert len(data) == 9
    decoded = decode(data, 0, 0)
    assert decoded.op == Op.NOPN
    assert decoded.size == 9


def test_nopn_bad_length():
    with pytest.raises(EncodeError):
        encode(Instruction(Op.NOPN, imm=1))


def test_decode_invalid_opcode():
    with pytest.raises(DecodeError):
        decode(b"\xff", 0, 0)


def test_decode_truncated():
    data = encode(Instruction(Op.MOV_RI64, (RAX,), imm=1))
    with pytest.raises(DecodeError):
        decode(data[:5], 0, 0)


def test_decode_invalid_register():
    data = bytes([int(Op.PUSH), 200])
    with pytest.raises(DecodeError):
        decode(data, 0, 0)


def test_decode_stream():
    insns = [
        Instruction(Op.PUSH, (RBX,)),
        Instruction(Op.MOV_RI32, (RAX,), imm=5),
        Instruction(Op.RET),
    ]
    blob = b""
    addr = 0x100
    for insn in insns:
        blob += encode(insn, addr)
        addr += instruction_size(insn)
    decoded = decode_stream(blob, base_address=0x100)
    assert [d.op for d in decoded] == [Op.PUSH, Op.MOV_RI32, Op.RET]
    assert decoded[1].address == 0x102


def test_decode_stream_straddle():
    blob = encode(Instruction(Op.MOV_RI32, (RAX,), imm=5))
    with pytest.raises(DecodeError):
        decode_stream(blob, end=3)


def test_negate_cc_involution():
    for cc in CondCode:
        assert negate_cc(negate_cc(cc)) == cc
        assert negate_cc(cc) != cc


def test_branch_offset_fits_short():
    insn = Instruction(Op.JMP_SHORT, target=0x1050)
    assert branch_offset_fits_short(insn, 0x1000)
    insn.target = 0x2000
    assert not branch_offset_fits_short(insn, 0x1000)


def test_classification():
    assert Instruction(Op.RET).is_return
    assert Instruction(Op.RET).is_terminator
    assert Instruction(Op.REPZ_RET).is_return
    assert Instruction(Op.JMP_REG, (RAX,)).is_indirect_branch
    assert Instruction(Op.JMP_REG, (RAX,)).is_terminator
    assert Instruction(Op.CALL_REG, (RAX,)).is_indirect
    assert not Instruction(Op.CALL, target=0).is_terminator
    assert Instruction(Op.JCC_SHORT, cc=CondCode.EQ).is_cond_branch
    assert not Instruction(Op.JCC_SHORT, cc=CondCode.EQ).is_terminator
    assert Instruction(Op.NOPN, imm=4).is_nop
    assert Instruction(Op.LOAD, (RAX, RBX)).reads_memory
    assert Instruction(Op.PUSH, (RAX,)).writes_memory


def test_copy_and_replace_carry_every_field():
    insn = Instruction(Op.CALL)
    for k, name in enumerate(Instruction.__slots__):
        if name not in ("op", "size"):
            setattr(insn, name, ("field", k))
    fields = {name: getattr(insn, name) for name in Instruction.__slots__}

    def fields_of(other):
        return {name: getattr(other, name) for name in Instruction.__slots__}

    for clone in (insn.copy(), insn.replace()):
        assert clone is not insn
        assert fields_of(clone) == fields
        assert all(getattr(clone, n) is v for n, v in fields.items())
    changed = insn.replace(lp=".LLP1", tailcall=True, op=Op.JMP_NEAR)
    assert fields_of(changed) == dict(fields, lp=".LLP1", tailcall=True,
                                      op=Op.JMP_NEAR, size=5)
    changed.loc = ("m.bc", 1)
    assert fields_of(insn) == fields


def test_str_rendering():
    assert "jne" in str(Instruction(Op.JCC_SHORT, cc=CondCode.NE, target=0x10))
    assert "repz retq" == str(Instruction(Op.REPZ_RET))
    assert "callq" in str(Instruction(Op.CALL, target=0x10))
    text = str(Instruction(Op.LOAD, (RAX, RSP), disp=8))
    assert "%rsp" in text and "%rax" in text


# -- property-based -------------------------------------------------------

_REG = st.integers(min_value=0, max_value=15)


@given(dst=_REG, src=_REG)
def test_prop_rr_roundtrip(dst, src):
    for op in (Op.MOV_RR, Op.ADD_RR, Op.SUB_RR, Op.CMP_RR, Op.IMUL_RR, Op.XOR_RR):
        decoded = roundtrip(Instruction(op, (dst, src)))
        assert decoded.regs == (dst, src)


@given(reg=_REG, imm=st.integers(min_value=-(2**31), max_value=2**31 - 1))
def test_prop_ri_roundtrip(reg, imm):
    decoded = roundtrip(Instruction(Op.ADD_RI, (reg,), imm=imm))
    assert decoded.regs == (reg,) and decoded.imm == imm


@given(imm=st.integers(min_value=-(2**63), max_value=2**63 - 1))
def test_prop_imm64_roundtrip(imm):
    decoded = roundtrip(Instruction(Op.MOV_RI64, (RAX,), imm=imm))
    assert decoded.imm == imm


@given(
    addr=st.integers(min_value=0x1000, max_value=0x7FFFFFFF),
    rel=st.integers(min_value=-(2**31) // 2, max_value=2**31 // 2 - 1),
)
def test_prop_branch_roundtrip(addr, rel):
    target = addr + 5 + rel
    if not 0 <= target < 2**63:
        return
    decoded = roundtrip(Instruction(Op.JMP_NEAR, target=target), address=addr)
    assert decoded.target == target


@given(data=st.binary(min_size=0, max_size=16))
def test_prop_decode_never_crashes(data):
    """Arbitrary bytes either decode or raise DecodeError, never crash."""
    try:
        insn = decode(data, 0, 0x1000)
        assert insn.size >= 1
    except DecodeError:
        pass
