"""Code generation and object emission tests."""

import pytest

from repro.belf import RelocType, SymbolType
from repro.codegen import (
    CodegenOptions,
    assemble_function,
    emit_object,
    select_function,
)
from repro.codegen.machine import MachineBlock, MachineFunction
from repro.ir import build_module
from repro.isa import (
    ARG_REGS,
    CondCode,
    Instruction,
    Op,
    RBP,
    RAX,
    RDI,
    decode_stream,
)
from repro.lang import parse_module


def select(text, fname, **opts):
    module = build_module(parse_module(text, "t"))
    return select_function(module.functions[fname], CodegenOptions(**opts))


def all_insns(mf):
    return [i for b in mf.blocks for i in b.insns]


def ops_of(mf):
    return [i.op for i in all_insns(mf)]


# -- isel patterns -----------------------------------------------------------


def test_frame_layout():
    mf = select("""
func f(a) {
  var x = a;
  var i = 0;
  while (i < 10) { x = x + i; i = i + 1; }
  return x;
}
""", "f")
    entry = mf.blocks[0].insns
    assert entry[0].op == Op.PUSH and entry[0].regs == (RBP,)
    assert entry[1].op == Op.MOV_RR and entry[1].regs == (RBP, 4)
    assert entry[2].op == Op.SUB_RI
    assert entry[2].imm == mf.frame_size
    assert mf.saved_regs  # loop vars promoted to callee-saved regs


def test_frameless_leaf():
    mf = select("func f(a, b) { return a * 3 + b; }", "f")
    assert mf.frame_size == 0 and not mf.saved_regs
    assert Op.PUSH not in ops_of(mf)


def test_repz_ret_option():
    mf = select("func f() { return 1; }", "f", repz_ret=True)
    assert ops_of(mf)[-1] == Op.REPZ_RET
    mf = select("func f() { return 1; }", "f", repz_ret=False)
    assert ops_of(mf)[-1] == Op.RET


def _promoted_and_homed(mf):
    """Argument registers the prologue moves into a promoted register,
    and those it stores to a frame slot."""
    entry = mf.blocks[0].insns
    promoted = [i.regs[1] for i in entry
                if i.op == Op.MOV_RR and i.regs[1] in ARG_REGS]
    homed = {i.regs[1] for i in entry
             if i.op == Op.STORE and i.regs[0] == RBP}
    return promoted, homed


def test_param_homing():
    text = """
func f(a) {
  var s = 0;
  var i = 0;
  while (i < a) { s = s + a; i = i + 1; }
  return s;
}
"""
    promoted, homed = _promoted_and_homed(
        select(text, "f", naive_param_homing=True))
    assert promoted and all(reg in homed for reg in promoted)
    promoted, homed = _promoted_and_homed(
        select(text, "f", naive_param_homing=False))
    assert promoted and not any(reg in homed for reg in promoted)


def test_tail_call_direct():
    mf = select("""
func g() { return 2; }
func f(x) {
  if (x > 0) { return g(); }
  return 0;
}
""", "f", tail_calls=True)
    jumps = [i for i in all_insns(mf)
             if i.op == Op.JMP_NEAR and i.sym is not None]
    assert jumps and jumps[0].sym.name == "g"


def test_tail_call_disabled():
    mf = select("""
func g() { return 2; }
func f(x) {
  if (x > 0) { return g(); }
  return 0;
}
""", "f", tail_calls=False)
    assert not [i for i in all_insns(mf)
                if i.op == Op.JMP_NEAR and i.sym is not None]
    assert [i for i in all_insns(mf) if i.op == Op.CALL]


def test_dense_switch_emits_jump_table():
    mf = select("""
func f(x) {
  switch (x) {
    case 0: { return 1; } case 1: { return 2; } case 2: { return 3; }
    case 3: { return 4; } case 4: { return 5; }
  }
  return 0;
}
""", "f")
    assert mf.jump_tables
    assert Op.JMP_REG in ops_of(mf)
    table_sym, entries = mf.jump_tables[0]
    assert len(entries) == 5


def test_sparse_switch_compare_chain():
    mf = select("""
func f(x) {
  switch (x) { case 0: { return 1; } case 1000: { return 2; } }
  return 0;
}
""", "f")
    assert not mf.jump_tables
    assert Op.JMP_REG not in ops_of(mf)


def test_indirect_call_via_r10():
    mf = select("""
var h = 0;
func f(x) {
  var g = h;
  return g(x) + 1;
}
""", "f")
    icalls = [i for i in all_insns(mf) if i.op == Op.CALL_REG]
    assert icalls and icalls[0].regs == (10,)


def test_arg_masking_for_arrays():
    mf = select("""
array a[8];
func f(i) { return a[i]; }
""", "f")
    ands = [i for i in all_insns(mf) if i.op == Op.AND_RI and i.imm == 7]
    assert ands


def test_lp_annotation_on_calls():
    mf = select("""
func g(x) { return x; }
func f(x) {
  var r = 0;
  try { r = g(x); } catch (e) { r = e; }
  return r;
}
""", "f")
    calls = [i for i in all_insns(mf) if i.op == Op.CALL]
    assert any(i.lp for i in calls)


def test_loop_alignment_annotation():
    mf = select("""
func f(n) {
  var i = 0;
  while (i < n) { i = i + 1; }
  return i;
}
""", "f", align_loops=True)
    assert any(b.align > 1 for b in mf.blocks)
    mf2 = select("""
func f(n) {
  var i = 0;
  while (i < n) { i = i + 1; }
  return i;
}
""", "f", align_loops=False)
    assert all(b.align == 1 for b in mf2.blocks)


def test_too_many_params():
    from repro.codegen.isel import CodegenError

    with pytest.raises(CodegenError):
        select("func f(a, b, c, d, e, g, h) { return a; }", "f")


# -- assembler ------------------------------------------------------------------


def _mf_with_branch(distance):
    """jcc over `distance` bytes of NOPs."""
    mf = MachineFunction("f", "f")
    b0 = MachineBlock("start")
    b0.insns = [Instruction(Op.JCC_SHORT, cc=CondCode.EQ, label="far")]
    mid = MachineBlock("mid")
    mid.insns = [Instruction(Op.NOPN, imm=distance)]
    far = MachineBlock("far")
    far.insns = [Instruction(Op.RET)]
    mf.blocks = [b0, mid, far]
    return mf


def test_relaxation_short():
    image = assemble_function(_mf_with_branch(10), normalize=False)
    insns = decode_stream(image.code)
    assert insns[0].op == Op.JCC_SHORT and insns[0].size == 2


def test_relaxation_long():
    image = assemble_function(_mf_with_branch(200), normalize=False)
    insns = decode_stream(image.code)
    assert insns[0].op == Op.JCC_LONG and insns[0].size == 6
    assert insns[0].target == image.labels["far"]


def test_normalize_drops_fallthrough_jump():
    mf = MachineFunction("f", "f")
    b0 = MachineBlock("a")
    b0.insns = [Instruction(Op.JMP_NEAR, label="b")]
    b1 = MachineBlock("b")
    b1.insns = [Instruction(Op.RET)]
    mf.blocks = [b0, b1]
    image = assemble_function(mf, normalize=True)
    assert decode_stream(image.code)[0].op == Op.RET


def test_normalize_inverts_condition():
    mf = MachineFunction("f", "f")
    b0 = MachineBlock("a")
    b0.insns = [Instruction(Op.JCC_LONG, cc=CondCode.EQ, label="b"),
                Instruction(Op.JMP_NEAR, label="c")]
    b1 = MachineBlock("b")
    b1.insns = [Instruction(Op.NOP)]
    b2 = MachineBlock("c")
    b2.insns = [Instruction(Op.RET)]
    mf.blocks = [b0, b1, b2]
    image = assemble_function(mf, normalize=True)
    first = decode_stream(image.code)[0]
    assert first.cc == CondCode.NE
    assert first.target == image.labels["c"]


def test_alignment_padding():
    mf = MachineFunction("f", "f")
    b0 = MachineBlock("a")
    b0.insns = [Instruction(Op.NOP)]
    b1 = MachineBlock("b")
    b1.align = 16
    b1.insns = [Instruction(Op.RET)]
    mf.blocks = [b0, b1]
    image = assemble_function(mf)
    assert image.labels["b"] == 16
    assert len(image.code) == 17


def test_callsite_merging():
    mf = MachineFunction("f", "f")
    b0 = MachineBlock("a")
    call1 = Instruction(Op.CALL, target=None)
    call1.sym = None
    from repro.isa import SymRef

    call1 = Instruction(Op.CALL, sym=SymRef("g"), lp="lp")
    call2 = Instruction(Op.CALL, sym=SymRef("g"), lp="lp")
    b0.insns = [call1, call2, Instruction(Op.RET)]
    lp = MachineBlock("lp")
    lp.insns = [Instruction(Op.RET)]
    mf.blocks = [b0, lp]
    image = assemble_function(mf)
    assert len(image.callsites) == 1  # adjacent sites merged
    assert image.callsites[0].start == 0
    assert image.callsites[0].end == 10


# -- object emission -------------------------------------------------------------


def emit(text, **opts):
    module = build_module(parse_module(text, "t"))
    mfs = [select_function(f, CodegenOptions(**opts))
           for f in module.functions.values()]
    return emit_object(module, mfs)


def test_emit_object_sections_and_symbols():
    obj = emit("""
var g = 5;
const K = 7;
array zeros[8];
array init[4] = {1, 2};
func f() { return g; }
""")
    assert ".text.f" in obj.sections
    assert obj.get_symbol("f").type == SymbolType.FUNC
    assert obj.get_symbol("t::g").section == ".data"
    assert obj.get_symbol("t::K").section == ".rodata"
    assert obj.get_symbol("t::zeros").section == ".bss"
    assert obj.get_symbol("t::init").section == ".data"
    assert obj.get_section(".bss").size == 64


def test_emit_object_relocations():
    obj = emit("""
var g = 1;
func callee() { return 0; }
func f() { return callee() + g; }
""")
    relocs = {(r.symbol, r.type) for r in obj.relocations
              if r.section == ".text.f"}
    assert ("callee", RelocType.PC32) in relocs
    assert ("t::g", RelocType.ABS32) in relocs


def test_emit_object_funcref_reloc():
    obj = emit("func g() { return 0; } func f() { return &g; }")
    relocs = [r for r in obj.relocations if r.section == ".text.f"]
    assert any(r.type == RelocType.ABS64 and r.symbol == "g" for r in relocs)


def test_emit_object_jump_table():
    obj = emit("""
func f(x) {
  switch (x) {
    case 0: { return 1; } case 1: { return 2; }
    case 2: { return 3; } case 3: { return 4; }
  }
  return 0;
}
""")
    ro = obj.get_section(".rodata.f")
    assert ro is not None and len(ro.data) == 32
    table_relocs = [r for r in obj.relocations if r.section == ".rodata.f"]
    assert len(table_relocs) == 4
    assert all(r.symbol == "f" and r.type == RelocType.ABS64
               for r in table_relocs)


def test_emit_object_frame_records_and_lines():
    obj = emit("""
func g(x) { return x; }
func f(x) {
  var r = 0;
  try { r = g(x); } catch (e) { r = e; }
  return r;
}
""")
    record = obj.frame_records["f"]
    assert record.callsites
    assert obj.func_line_tables["f"]


def test_emit_object_no_frame_info_option():
    obj = emit("func f(x) { var y = x + 1; return y; }", frame_info=False)
    assert "f" not in obj.frame_records


def test_static_function_symbol_binding():
    obj = emit("static func s() { return 0; } func f() { return s(); }")
    sym = obj.get_symbol("t::s")
    assert sym is not None and sym.is_local
