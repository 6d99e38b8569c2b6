"""BOLT front-half tests: discovery, disassembly, CFG reconstruction,
jump tables, non-simple detection, profile attachment."""

import pytest

from repro.compiler import BuildOptions, build_executable
from repro.core import BinaryContext, BoltOptions
from repro.core.cfg_builder import build_all_functions
from repro.core.discovery import discover_functions
from repro.core.profile_attach import attach_profile
from repro.codegen import CodegenOptions
from repro.ir import InlinePolicy
from repro.isa import Op
from repro.profiling import profile_binary, SamplingConfig


def analyzed(sources, bolt_options=None, build_options=None, **link_kwargs):
    exe, _ = build_executable(
        sources, build_options or BuildOptions(),
        emit_relocs=link_kwargs.pop("emit_relocs", True), **link_kwargs)
    context = BinaryContext(exe, bolt_options or BoltOptions())
    discover_functions(context)
    build_all_functions(context)
    return exe, context


def test_discovery_finds_all_functions():
    exe, context = analyzed([("m", """
func a() { return 1; }
static func b() { return 2; }
func main() { return a() + b(); }
""")])
    assert set(context.functions) == {"a", "m::b", "main"}
    for func in context.functions.values():
        assert func.size > 0
        assert func.raw_bytes


def test_cfg_blocks_and_edges():
    exe, context = analyzed([("m", """
func f(x) {
  if (x > 0) { return 1; }
  return 2;
}
func main() { return f(3); }
""")])
    func = context.functions["f"]
    assert func.is_simple
    assert len(func.blocks) >= 3
    entry = func.blocks[func.entry_label]
    assert len(entry.successors) == 2
    assert entry.fallthrough_label in entry.successors


def test_calls_symbolized():
    exe, context = analyzed([("m", """
func callee(x) { return x; }
func main() {
  var a = callee(1);
  return a + callee(2);
}
""")], build_options=BuildOptions(inline=InlinePolicy(max_size=0)))
    main = context.functions["main"]
    calls = [i for b in main.blocks.values() for i in b.insns if i.is_call]
    named = [i for i in calls if i.sym is not None and i.sym.name == "callee"]
    assert len(named) == 2


def test_tail_call_annotation():
    exe, context = analyzed([("m", """
var gate = 1;
func target() { return 5; }
func f() {
  if (gate > 0) { return target(); }
  return 0;
}
func main() { return f(); }
""")], build_options=BuildOptions(inline=InlinePolicy(max_size=0)))
    f = context.functions["f"]
    tails = [i for b in f.blocks.values() for i in b.insns
             if i.tailcall]
    assert tails and tails[0].sym.name == "target"


def test_jump_table_recovery():
    exe, context = analyzed([("m", """
func f(x) {
  switch (x) {
    case 0: { return 10; } case 1: { return 11; }
    case 2: { return 12; } case 3: { return 13; }
    case 4: { return 14; }
  }
  return -1;
}
func main() { return f(2); }
""")])
    f = context.functions["f"]
    assert f.is_simple
    assert len(f.jump_tables) == 1
    table = f.jump_tables[0]
    assert len(table.entries) == 5
    dispatch = [b for b in f.blocks.values()
                if b.insns and b.insns[-1].op == Op.JMP_REG]
    assert dispatch
    assert set(table.entries) <= set(dispatch[0].successors)


def test_indirect_tail_call_is_non_simple():
    exe, context = analyzed([("m", """
var h = 0;
func t(x) { return x; }
func init() { h = &t; return 0; }
func itail(x) {
  var f = h;
  return f(x);
}
func main() { init(); return itail(4); }
""")])
    itail = context.functions["itail"]
    assert not itail.is_simple
    assert "indirect" in itail.simple_violation


def test_landing_pads_connected():
    exe, context = analyzed([("m", """
func risky(x) {
  if (x > 2) { throw x; }
  return x;
}
func f(x) {
  var r = 0;
  try { r = risky(x); } catch (e) { r = e; }
  return r;
}
func main() { return f(1); }
""")], build_options=BuildOptions(inline=InlinePolicy(max_size=0)))
    f = context.functions["f"]
    lps = [b for b in f.blocks.values() if b.is_landing_pad]
    assert len(lps) == 1
    callers = [b for b in f.blocks.values() if lps[0].label in b.landing_pads]
    assert callers
    call = [i for b in callers for i in b.insns
            if i.lp == lps[0].label]
    assert call


def test_nop_stripping():
    exe, context = analyzed(
        [("m", """
func main() {
  var i = 0;
  while (i < 3) { i = i + 1; }
  return i;
}
""")],
        bolt_options=BoltOptions(strip_nops=True))
    main = context.functions["main"]
    for block in main.blocks.values():
        assert not any(i.is_nop for i in block.insns)
    # With stripping off the alignment NOPs survive.
    exe2, context2 = analyzed(
        [("m", """
func main() {
  var i = 0;
  while (i < 3) { i = i + 1; }
  return i;
}
""")],
        bolt_options=BoltOptions(strip_nops=False))
    main2 = context2.functions["main"]
    assert any(i.is_nop for b in main2.blocks.values() for i in b.insns)


def test_plt_annotation():
    exe, context = analyzed([
        ("m", "func main() { out util(3); return 0; }")],
        libs=[("lib", "func util(x) { return x * 2; }")],
        build_options=BuildOptions(inline=InlinePolicy(max_size=0)))
    main = context.functions["main"]
    plt_calls = [i for b in main.blocks.values() for i in b.insns
                 if i.plt is not None]
    assert plt_calls
    got_addr, target = plt_calls[0].plt
    assert exe.get_symbol("util").value == target


def test_funcaddr_symbolized_with_relocs():
    exe, context = analyzed([("m", """
func t(x) { return x; }
func main() {
  var f = &t;
  return f(1);
}
""")])
    main = context.functions["main"]
    movs = [i for b in main.blocks.values() for i in b.insns
            if i.op == Op.MOV_RI64 and i.sym is not None]
    assert movs and movs[0].sym.name == "t"


def test_funcaddr_not_symbolized_without_relocs():
    exe, context = analyzed([("m", """
func t(x) { return x; }
func main() {
  var f = &t;
  return f(1);
}
""")], emit_relocs=False)
    assert not context.use_relocations
    main = context.functions["main"]
    movs = [i for b in main.blocks.values() for i in b.insns
            if i.op == Op.MOV_RI64 and i.sym is not None]
    assert not movs


def test_line_annotations_present():
    exe, context = analyzed([("m", "func main() { out 1; return 0; }")])
    main = context.functions["main"]
    locs = [i.loc for b in main.blocks.values()
            for i in b.insns]
    assert any(loc is not None for loc in locs)
    assert any(loc and loc[0] == "m.bc" for loc in locs)


def test_asm_function_without_frame_info_discovered():
    # Build leaf separately without frame info and link manually.
    from repro.compiler import compile_program
    from repro.linker import link

    app = compile_program([("m", "func main() { return leaf(1, 2); }")],
                          BuildOptions(inline=InlinePolicy(max_size=0)))
    asm = compile_program(
        [("asmmod", "func leaf(a, b) { return a + b * 3; }")],
        BuildOptions(codegen=CodegenOptions(frame_info=False)))
    exe = link(app.objects + asm.objects, emit_relocs=True)
    assert "leaf" not in exe.frame_records
    context = BinaryContext(exe, BoltOptions())
    discover_functions(context)
    build_all_functions(context)
    leaf = context.functions["leaf"]
    assert leaf.is_simple and leaf.frame_record is None


# -- profile attachment ----------------------------------------------------------


BRANCHY = ("m", """
func skewed(x) {
  if (x % 10 == 0) { return x * 3; }
  return x + 1;
}
func main() {
  var i = 0;
  var acc = 0;
  while (i < 500) {
    acc = acc + skewed(i);
    i = i + 1;
  }
  out acc;
  return 0;
}
""")


def _attach(lbr=True, trust=True):
    options = BoltOptions(trust_fall_through=trust)
    exe, _ = build_executable(
        [BRANCHY], BuildOptions(inline=InlinePolicy(max_size=0)),
        emit_relocs=True)
    context = BinaryContext(exe, options)
    discover_functions(context)
    build_all_functions(context)
    profile, cpu = profile_binary(
        exe, sampling=SamplingConfig(period=41, use_lbr=lbr))
    attach_profile(context, profile)
    return context, profile, cpu


def test_attach_lbr_counts():
    context, profile, cpu = _attach()
    skewed = context.functions["skewed"]
    assert skewed.has_profile
    assert skewed.exec_count > 0
    entry = skewed.blocks[skewed.entry_label]
    assert entry.exec_count > 0
    # The rare then-branch must be much colder than the common path.
    counts = sorted(b.exec_count for b in skewed.blocks.values())
    assert counts[0] * 3 < counts[-1]


def test_attach_match_rate():
    context, _, _ = _attach()
    main = context.functions["main"]
    assert main.profile_match is not None
    assert main.profile_match > 0.95


def test_attach_fall_through_repair():
    context, _, _ = _attach(trust=True)
    main = context.functions["main"]
    # Flow sanity: entry count equals function exec count.
    entry = main.blocks[main.entry_label]
    assert entry.exec_count == main.exec_count
    # Every fall-through edge got a count despite LBR only recording
    # taken branches.
    ft_edges = [
        (b, b.fallthrough_label) for b in main.blocks.values()
        if b.fallthrough_label and b.exec_count > 0
    ]
    assert ft_edges
    assert any(b.edge_counts.get(ft, 0) > 0 for b, ft in ft_edges)


def test_attach_no_trust_leaves_fallthrough_cold():
    context, _, _ = _attach(trust=False)
    main = context.functions["main"]
    for block in main.blocks.values():
        if block.fallthrough_label:
            taken_elsewhere = [
                s for s in block.successors if s != block.fallthrough_label]
            if not taken_elsewhere:
                assert block.edge_counts.get(block.fallthrough_label, 0) == 0


def test_attach_nolbr_mcf():
    context, profile, cpu = _attach(lbr=False)
    skewed = context.functions["skewed"]
    assert skewed.has_profile
    total_edges = sum(
        sum(b.edge_counts.values()) for b in skewed.blocks.values())
    assert total_edges > 0
    main = context.functions["main"]
    assert any(
        count > 0 for b in main.blocks.values()
        for count in b.edge_counts.values())


def test_icp_targets_annotated():
    exe, _ = build_executable([("m", """
var h = 0;
func t1(x) { return x + 1; }
func t2(x) { return x + 2; }
func init() { h = &t1; return 0; }
func caller(x) {
  var f = h;
  return f(x) + 1;
}
func main() {
  init();
  var i = 0;
  var acc = 0;
  while (i < 300) {
    acc = acc + caller(i);
    i = i + 1;
  }
  out acc;
  return 0;
}
""")], BuildOptions(inline=InlinePolicy(max_size=0)), emit_relocs=True)
    context = BinaryContext(exe, BoltOptions())
    discover_functions(context)
    build_all_functions(context)
    profile, _ = profile_binary(exe, sampling=SamplingConfig(period=31))
    attach_profile(context, profile)
    caller = context.functions["caller"]
    targets = [i.call_targets
               for b in caller.blocks.values() for i in b.insns
               if i.op == Op.CALL_REG]
    assert targets and targets[0]
    assert "t1" in targets[0]
