"""Linker tests: resolution, layout, PLT/GOT, ICF, emit-relocs."""

import pytest

from repro.belf import RelocType, SectionType, SymbolType
from repro.codegen import CodegenOptions, emit_object, select_function
from repro.compiler import BuildOptions, compile_program
from repro.ir import build_module
from repro.lang import parse_module
from repro.linker import link, LinkError, BUILTINS
from repro.uarch import run_binary


def objects_for(*sources, options=None):
    result = compile_program(list(sources), options or BuildOptions())
    return result.objects


def test_basic_link_and_run():
    objs = objects_for(("m", "func main() { out 7; return 0; }"))
    exe = link(objs)
    assert exe.is_executable
    assert exe.entry == exe.get_symbol("main").value
    cpu = run_binary(exe)
    assert cpu.output == [7]


def test_cross_object_call_resolution():
    objs = objects_for(
        ("a", "func main() { out helper(40); return 0; }"),
        ("b", "func helper(x) { return x + 2; }"),
    )
    cpu = run_binary(link(objs))
    assert cpu.output == [42]


def test_undefined_symbol():
    objs = objects_for(("a", "func main() { return nope(); }"))
    with pytest.raises(LinkError):
        link(objs)


def test_duplicate_global_function():
    objs = objects_for(
        ("a", "func f() { return 1; } func main() { return f(); }"),
        ("b", "func f() { return 2; }"),
    )
    with pytest.raises(LinkError):
        link(objs)


def test_static_functions_do_not_collide():
    objs = objects_for(
        ("a", "static func f() { return 1; } func main() { return f(); }"),
        ("b", "static func f() { return 2; } func g() { return f(); }"),
    )
    cpu = run_binary(link(objs))
    assert cpu.exit_code == 1


def test_undefined_entry():
    objs = objects_for(("a", "func f() { return 1; }"))
    with pytest.raises(LinkError):
        link(objs, entry="main")


def test_section_layout():
    objs = objects_for(("m", """
var g = 1;
const K = 2;
array z[8];
func main() { return g + K + z[0]; }
"""))
    exe = link(objs)
    text = exe.get_section(".text")
    rodata = exe.get_section(".rodata")
    data = exe.get_section(".data")
    bss = exe.get_section(".bss")
    assert text.addr < rodata.addr < data.addr < bss.addr
    assert bss.type == SectionType.NOBITS
    # Page-aligned data sections; no overlaps.
    sections = sorted((s for s in exe.sections.values() if s.is_alloc),
                      key=lambda s: s.addr)
    for first, second in zip(sections, sections[1:]):
        assert first.end <= second.addr


def test_plt_for_builtins():
    objs = objects_for(("m", """
func main() {
  try { throw 3; } catch (e) { out e; }
  return 0;
}
"""))
    exe = link(objs)
    plt = exe.get_section(".plt")
    got = exe.get_section(".got")
    assert plt.size == 6  # one stub (for __throw)
    assert exe.read_word(got.addr) == BUILTINS["__throw"]
    cpu = run_binary(exe)
    assert cpu.output == [3]


def test_pic_library_goes_through_plt():
    app = objects_for(("m", "func main() { out util(5); return 0; }"))
    libs = objects_for(("lib", "func util(x) { return x * 9; }"))
    exe = link(app, libs=libs)
    # Two PLT entries: __throw (always) + util.
    plt = exe.get_section(".plt")
    assert plt.size == 12
    cpu = run_binary(exe)
    assert cpu.output == [45]


def test_emit_relocs_retained_and_rebased():
    objs = objects_for(
        ("a", "func main() { out helper(1); return 0; }"),
        ("b", "func helper(x) { return x; }"),
    )
    exe = link(objs, emit_relocs=True)
    assert exe.emit_relocs
    text_relocs = [r for r in exe.relocations if r.section == ".text"]
    assert any(r.symbol == "helper" and r.type == RelocType.PC32
               for r in text_relocs)
    got_relocs = [r for r in exe.relocations if r.section == ".got"]
    assert any(r.symbol == "__throw" for r in got_relocs)
    # No relocations without the flag.
    exe2 = link(objs, emit_relocs=False)
    assert not exe2.relocations


def _abs_reloc(objs, rtype):
    return next(r for obj in objs for r in obj.relocations
                if r.type == rtype)


def test_abs32_overflow_raises_link_error():
    objs = objects_for(("m", "var g = 5; func main() { out g; return 0; }"))
    reloc = _abs_reloc(objs, RelocType.ABS32)
    reloc.addend += 1 << 32
    with pytest.raises(LinkError, match=f"ABS32 overflow for {reloc.symbol}"):
        link(objs)


def test_negative_abs64_wraps():
    """ABS64 writes S + A modulo 2**64, as the rewriter always did; a
    negative value used to escape as ``OverflowError``."""
    objs = objects_for(("m", """
func f() { return 1; }
func main() { var p = &f; out p(); return 0; }
"""))
    reloc = _abs_reloc(objs, RelocType.ABS64)
    target = link(objs).get_symbol(reloc.symbol).value
    reloc.addend = -(target + 8)
    exe = link(objs, emit_relocs=True)
    kept = next(r for r in exe.relocations if r.type == RelocType.ABS64
                and r.addend == reloc.addend)
    assert exe.read_word(exe.get_section(kept.section).addr
                         + kept.offset) == (1 << 64) - 8


def test_jump_table_relocs_in_rodata():
    objs = objects_for(("m", """
func main() {
  var i = 0;
  var acc = 0;
  while (i < 6) {
    switch (i) {
      case 0: { acc = acc + 1; } case 1: { acc = acc + 2; }
      case 2: { acc = acc + 3; } case 3: { acc = acc + 4; }
    }
    i = i + 1;
  }
  out acc;
  return 0;
}
"""))
    exe = link(objs, emit_relocs=True)
    ro_relocs = [r for r in exe.relocations if r.section == ".rodata"]
    assert len(ro_relocs) >= 4
    cpu = run_binary(exe)
    assert cpu.output == [10]


def test_function_order_applied():
    objs = objects_for(
        ("a", "func main() { return f1() + f2(); }\n"
              "func f1() { return 1; }\nfunc f2() { return 2; }"),
    )
    default = link(objs)
    reordered = link(objs, function_order=["f2", "f1", "main"])
    def addr(exe, name):
        return exe.get_symbol(name).value
    assert addr(default, "main") < addr(default, "f1") < addr(default, "f2")
    assert addr(reordered, "f2") < addr(reordered, "f1") < addr(reordered, "main")
    assert run_binary(reordered).exit_code == 3


def test_linker_icf_folds_identical():
    objs = objects_for(
        ("a", "func dup1(x) { return x * 77 + 1; }\n"
              "func main() { out dup1(1); out dup2(1); return 0; }"),
        ("b", "func dup2(x) { return x * 77 + 1; }"),
    )
    exe_plain = link(objs)
    objs = objects_for(
        ("a", "func dup1(x) { return x * 77 + 1; }\n"
              "func main() { out dup1(1); out dup2(1); return 0; }"),
        ("b", "func dup2(x) { return x * 77 + 1; }"),
    )
    exe_icf = link(objs, icf=True)
    assert exe_icf.text_size() < exe_plain.text_size()
    assert (exe_icf.get_symbol("dup1").value
            == exe_icf.get_symbol("dup2").value)
    cpu = run_binary(exe_icf)
    assert cpu.output == [78, 78]


def test_linker_icf_does_not_fold_different_callees():
    objs = objects_for(
        ("a", "func t1() { return 1; }\nfunc t2() { return 2; }\n"
              "func c1() { return t1(); }\nfunc c2() { return t2(); }\n"
              "func main() { out c1(); out c2(); return 0; }"),
    )
    exe = link(objs, icf=True)
    assert exe.get_symbol("c1").value != exe.get_symbol("c2").value
    assert run_binary(exe).output == [1, 2]


def test_line_table_merged():
    objs = objects_for(("m", "func main() { out 1; return 0; }"))
    exe = link(objs)
    assert exe.line_table is not None and len(exe.line_table) > 0
    main = exe.get_symbol("main")
    assert exe.line_table.lookup(main.value) is not None


def test_frame_records_merged():
    objs = objects_for(("m", """
func f(x) {
  try { throw x; } catch (e) { return e; }
  return 0;
}
func main() { return f(1); }
"""))
    exe = link(objs)
    assert "f" in exe.frame_records
    assert exe.frame_records["f"].callsites
