"""Whole-pipeline rewriting tests: correctness preservation in both
operating modes, metadata updates, dyno-stats."""

import pytest

from repro.belf import read_binary, write_binary
from repro.compiler import BuildOptions, build_executable
from repro.core import BoltOptions, optimize_binary
from repro.core.diagnostics import Severity
from repro.core.rewriter import InputConflict
from repro.core.reports import dump_function, report_bad_layout
from repro.ir import InlinePolicy
from repro.profiling import SamplingConfig, profile_binary
from repro.uarch import run_binary

RICH_SRC = ("app", """
const array lut[8] = {3, 1, 4, 1, 5, 9, 2, 6};
array state[16];
var handler = 0;

func t1(x) { return x + lut[x]; }
func t2(x) { return x * 2; }
func init() { handler = &t1; return 0; }

func spin(x) {
  switch (x % 8) {
    case 0: { return 10; } case 1: { return 11; }
    case 2: { return 12; } case 3: { return 13; }
    case 4: { return 14; } case 5: { return 15; }
    default: { return 0; }
  }
}

func risky(x) {
  if (x % 173 == 172) { throw x; }
  return x + 1;
}

func work(i) {
  var f = handler;
  var acc = f(i % 8) + spin(i);
  try { acc = acc + risky(i); } catch (e) { acc = acc - e % 7; }
  if (i % 256 == 255) {
    acc = acc * 3;
    state[acc % 16] = acc;
    acc = acc + state[(acc + 1) % 16];
  }
  return acc;
}

func main() {
  init();
  var i = 0;
  var total = 0;
  while (i < 700) {
    total = total + work(i);
    i = i + 1;
  }
  out total;
  return 0;
}
""")


def _built(emit_relocs=True):
    return build_executable(
        [RICH_SRC], BuildOptions(inline=InlinePolicy(max_size=6)),
        emit_relocs=emit_relocs)[0]


@pytest.fixture(scope="module")
def baseline():
    exe = _built()
    cpu = run_binary(exe)
    profile, _ = profile_binary(exe, sampling=SamplingConfig(period=43))
    return exe, cpu, profile


def test_relocations_mode_preserves_semantics(baseline):
    exe, cpu, profile = baseline
    result = optimize_binary(exe, profile, BoltOptions())
    opt = run_binary(result.binary)
    assert opt.output == cpu.output
    assert opt.exit_code == cpu.exit_code


def test_profile_tuple_is_refused_up_front(baseline, monkeypatch):
    """``profile_binary``/``sample_profile`` return ``(profile, cpu)``;
    handing that pair to BOLT is a caller bug, not a rewrite failure to
    degrade through the whole ladder."""
    import repro.analysis.binlint as binlint

    exe, cpu, profile = baseline

    def gate(*args):
        raise AssertionError("the gate ran before the profile was checked")

    monkeypatch.setattr(binlint, "gate_problems", gate)
    for bad in [(profile, cpu), {"branches": {}}]:
        with pytest.raises(TypeError, match="BinaryProfile"):
            optimize_binary(exe, bad, BoltOptions())


def test_relocations_mode_improves_or_holds(baseline):
    exe, cpu, profile = baseline
    result = optimize_binary(exe, profile, BoltOptions())
    opt = run_binary(result.binary)
    assert opt.counters.cycles < cpu.counters.cycles


def test_in_place_mode(baseline):
    _, cpu, _ = baseline
    exe = _built(emit_relocs=False)
    profile, _ = profile_binary(exe, sampling=SamplingConfig(period=43))
    result = optimize_binary(exe, profile, BoltOptions())
    assert not result.context.use_relocations
    opt = run_binary(result.binary)
    assert opt.output == cpu.output
    # Functions stayed put.
    for sym in exe.functions():
        new = result.binary.get_symbol(sym.link_name())
        assert new.value == sym.value


def test_in_place_respects_use_relocations_override(baseline):
    exe, cpu, profile = baseline  # has relocations
    result = optimize_binary(exe, profile,
                             BoltOptions(use_relocations=False))
    assert not result.context.use_relocations
    assert run_binary(result.binary).output == cpu.output


def test_function_reordering_applied(baseline):
    exe, cpu, profile = baseline
    result = optimize_binary(exe, profile, BoltOptions())
    order = result.context.function_order
    assert order is not None
    # Hot functions (work, main...) must come before never-called ones.
    addresses = {
        s.name: result.binary.get_symbol(s.name).value
        for s in exe.functions() if s.name in ("work", "t2")
    }
    assert addresses["work"] < addresses["t2"]


def test_cold_section_created(baseline):
    exe, cpu, profile = baseline
    result = optimize_binary(exe, profile, BoltOptions())
    cold = result.binary.get_section(".text.cold")
    assert cold is not None and cold.size > 0
    cold_syms = [s for s in result.binary.symbols
                 if s.section == ".text.cold"]
    assert any(s.name.endswith(".cold.0") for s in cold_syms)


def test_no_split_option(baseline):
    exe, cpu, profile = baseline
    result = optimize_binary(exe, profile, BoltOptions(split_functions=0))
    assert result.binary.get_section(".text.cold") is None
    assert run_binary(result.binary).output == cpu.output


def test_text_shrinks(baseline):
    exe, cpu, profile = baseline
    result = optimize_binary(exe, profile, BoltOptions())
    assert result.hot_text_size < exe.text_size()


def test_serialization_roundtrip(baseline):
    exe, cpu, profile = baseline
    result = optimize_binary(exe, profile, BoltOptions())
    loaded = read_binary(write_binary(result.binary))
    assert run_binary(loaded).output == cpu.output


def test_line_table_updated(baseline):
    exe, cpu, profile = baseline
    result = optimize_binary(exe, profile, BoltOptions())
    table = result.binary.line_table
    assert table is not None and len(table) > 0
    main = result.binary.get_symbol("main")
    loc = table.lookup(main.value)
    assert loc is not None and loc[0] == "app.bc"


def test_line_table_dropped_when_disabled(baseline):
    exe, cpu, profile = baseline
    result = optimize_binary(
        exe, profile, BoltOptions(update_debug_sections=False))
    assert result.binary.line_table is None


def test_rebolt_output_runs(baseline):
    """BOLT output (no relocations) can be re-BOLTed in-place."""
    exe, cpu, profile = baseline
    once = optimize_binary(exe, profile, BoltOptions()).binary
    profile2, _ = profile_binary(once, sampling=SamplingConfig(period=43))
    twice = optimize_binary(once, profile2, BoltOptions())
    # The second profile splits no new cold code, so the job succeeds.
    assert twice.degraded is None
    assert run_binary(twice.binary).output == cpu.output


MODE_SRC = ("app", """
array mode[1];
func pick(x) {
  if (x % mode[0] == 0) { return x * 3 + 1; }
  return x * 5 + 2;
}
func guard(x) {
  if (x == 100000) { out x * 7; out x / 3; return x % 11; }
  return x + 1;
}
func main() {
  var s = 0;
  for (var i = 0; i < 400; i += 1) { s += pick(i) + guard(i); }
  out s;
  return 0;
}
""")


def test_rebolt_with_new_cold_code_is_one_error():
    """Re-BOLTing a BOLTed binary whose new profile makes once-hot blocks
    cold needs a second cold section: one BOLT-ERROR names the input's
    ``.text.cold`` and the ladder returns the input unchanged."""
    exe = build_executable(
        [MODE_SRC], BuildOptions(inline=InlinePolicy(max_size=0)))[0]
    sampling = SamplingConfig(period=43)
    # mode 2 runs both arms of pick; mode 1 only the first.
    profile, _ = profile_binary(exe, inputs={"app::mode": [2]},
                                sampling=sampling)
    once = optimize_binary(exe, profile, BoltOptions())
    assert once.degraded is None
    assert ".text.cold" in once.binary.sections
    inputs = {"app::mode": [1]}
    profile2, cpu = profile_binary(once.binary, inputs=inputs,
                                   sampling=sampling)
    twice = optimize_binary(once.binary, profile2, BoltOptions())
    assert twice.degraded == "passthrough"
    assert twice.binary is once.binary
    errors = twice.diagnostics.render(min_severity=Severity.ERROR)
    assert errors == [
        "BOLT-ERROR: rewrite: input already has a .text.cold section (an "
        "earlier BOLT run's cold code); cannot emit new cold fragments for "
        "2 function(s): guard, pick"]
    assert run_binary(twice.binary, inputs=inputs).output == cpu.output
    with pytest.raises(InputConflict, match=r"already has a \.text\.cold"):
        optimize_binary(once.binary, profile2, BoltOptions(strict=True))


def test_ladder_warning_says_whether_validation_ran(baseline,
                                                   monkeypatch):
    """When every attempt raised, no output reached the gate: the final
    warning must not blame validation.  When an output failed the gate,
    it does."""
    import repro.analysis.binlint as binlint
    from repro.core import rewriter

    exe, _, profile = baseline

    def explode(context, result):
        raise RuntimeError("emission exploded")

    with monkeypatch.context() as patch:
        patch.setattr(rewriter, "_rewrite", explode)
        result = optimize_binary(exe, profile, BoltOptions())
    assert result.degraded == "passthrough"
    assert result.diagnostics.render(min_severity=Severity.WARNING) == [
        "BOLT-ERROR: rewrite: rewrite failed (RuntimeError: emission "
        "exploded)",
        "BOLT-ERROR: rewrite:in-place: rewrite failed (RuntimeError: "
        "emission exploded)",
        "BOLT-WARNING: validate: all rewrite attempts failed; returning "
        "the original binary unchanged"]

    gate = binlint.gate_problems
    monkeypatch.setattr(
        binlint, "gate_problems",
        lambda binary, options, result=None:
        ["planted"] if result is not None else gate(binary, options))
    result = optimize_binary(exe, profile, BoltOptions())
    assert result.degraded == "passthrough"
    assert result.diagnostics.render(min_severity=Severity.WARNING)[-1] == (
        "BOLT-WARNING: validate: all rewrite attempts failed validation; "
        "returning the original binary unchanged")


def test_dyno_stats_improve(baseline):
    exe, cpu, profile = baseline
    result = optimize_binary(exe, profile, BoltOptions())
    before, after = result.dyno_before, result.dyno_after
    assert after.taken_branches < before.taken_branches
    delta = after.delta_vs(before)
    assert delta["taken_branches"] < 0


def test_without_profile_no_layout_changes(baseline):
    exe, cpu, profile = baseline
    result = optimize_binary(exe, None, BoltOptions())
    assert run_binary(result.binary).output == cpu.output


def test_layout_algorithms_all_work(baseline):
    exe, cpu, profile = baseline
    for algo in ("none", "reverse", "cache", "cache+"):
        result = optimize_binary(
            exe, profile, BoltOptions(reorder_blocks=algo))
        assert run_binary(result.binary).output == cpu.output, algo


def test_function_order_algorithms(baseline):
    exe, cpu, profile = baseline
    for algo in ("none", "hfsort", "hfsort+"):
        result = optimize_binary(
            exe, profile, BoltOptions(reorder_functions=algo))
        assert run_binary(result.binary).output == cpu.output, algo


def test_individual_pass_toggles(baseline):
    exe, cpu, profile = baseline
    for flag in ("icf", "icp", "peepholes", "inline_small",
                 "simplify_ro_loads", "plt", "sctc", "frame_opts",
                 "shrink_wrapping", "strip_rep_ret", "strip_nops",
                 "split_eh", "trust_fall_through"):
        result = optimize_binary(exe, profile,
                                 BoltOptions(**{flag: False}))
        assert run_binary(result.binary).output == cpu.output, flag


def test_nolbr_profile_correctness(baseline):
    exe, cpu, _ = baseline
    profile, _ = profile_binary(
        exe, sampling=SamplingConfig(period=43, use_lbr=False))
    result = optimize_binary(exe, profile, BoltOptions())
    assert run_binary(result.binary).output == cpu.output


def test_dump_function_format(baseline):
    exe, cpu, profile = baseline
    result = optimize_binary(exe, profile, BoltOptions())
    work = result.context.functions["work"]
    text = dump_function(work)
    assert 'Binary Function "work"' in text
    assert "Exec Count" in text
    assert "Successors:" in text


def test_report_bad_layout(baseline):
    exe, cpu, profile = baseline
    from repro.core import BinaryContext
    from repro.core.cfg_builder import build_all_functions
    from repro.core.discovery import discover_functions
    from repro.core.profile_attach import attach_profile

    context = BinaryContext(exe, BoltOptions())
    discover_functions(context)
    build_all_functions(context)
    attach_profile(context, profile)
    findings = report_bad_layout(context, min_count=50)
    # The compiler's layout interleaves the cold error paths with hot
    # code (Figure 10); the report must find at least one instance.
    assert findings
    assert all("function" in f and "block" in f for f in findings)


def test_jump_tables_move(baseline):
    """-jump-tables=move relocates hot functions' tables into
    .rodata.hot and retargets the dispatch sequences."""
    exe, cpu, profile = baseline
    moved = optimize_binary(exe, profile, BoltOptions(jump_tables="move"))
    stayed = optimize_binary(exe, profile, BoltOptions(jump_tables="none"))
    assert run_binary(moved.binary).output == cpu.output
    assert run_binary(stayed.binary).output == cpu.output
    hot_ro = moved.binary.get_section(".rodata.hot")
    assert hot_ro is not None and hot_ro.size > 0
    assert stayed.binary.get_section(".rodata.hot") is None


def test_raw_fragment_relocations_follow_sym_slot(monkeypatch):
    """A function demoted to raw keeps its bytes and re-relocates every
    symbolic operand at the field and type the assembler's ``SYM_SLOT``
    names; every fragment's relocation kind is a ``RelocType``."""
    from repro.belf import RelocType
    from repro.codegen.emitter import SYM_SLOT
    from repro.core.passes.peepholes import Peepholes
    from repro.harness import build_workload, sample_profile
    from repro.workloads import make_workload

    built = build_workload(make_workload("mini"))
    profile, _ = sample_profile(built, sampling=SamplingConfig(period=97))
    victim = {}
    original = Peepholes.run_on_function

    def exploding(self, context, func):
        if not victim and any(insn.sym is not None and insn.op in SYM_SLOT
                              for block in func.blocks.values()
                              for insn in block.insns):
            victim["name"] = func.name
        if func.name == victim.get("name"):
            raise RuntimeError("synthetic pass bug")
        return original(self, context, func)

    monkeypatch.setattr(Peepholes, "run_on_function", exploding)
    result = optimize_binary(built.exe, profile, BoltOptions())
    assert result.degraded is None
    for frag in result.fragments.values():
        assert all(type(rtype) is RelocType
                   for _, rtype, _, _ in frag.image.relocations)
    frag = result.fragments[victim["name"]]
    func = frag.func
    assert frag.raw and not func.is_simple
    expected = [(insn.address - func.address + SYM_SLOT[insn.op][0],
                 SYM_SLOT[insn.op][1])
                for block in func.blocks.values() for insn in block.insns
                if insn.sym is not None and insn.op in SYM_SLOT]
    assert expected
    assert [(offset, rtype) for offset, rtype, _, _
            in frag.image.relocations] == expected
    cpu = run_binary(result.binary, inputs=built.workload.inputs)
    assert cpu.output == run_binary(built.exe,
                                    inputs=built.workload.inputs).output
