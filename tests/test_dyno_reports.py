"""Dyno-stats and report tests."""

from repro.core.binary_function import BinaryBasicBlock, BinaryFunction
from repro.core.dyno_stats import DynoStats, compute_function_dyno_stats
from repro.core.reports import (
    dump_function,
    format_bad_layout_report,
    report_bad_layout,
)
from repro.isa import CondCode, Instruction, Op


def _branchy_function():
    """entry (100) --jcc--> target (30); fallthrough mid (70) -> ret."""
    func = BinaryFunction("f", 0x1000, 64)
    entry = func.add_block(BinaryBasicBlock(".LBB0"))
    mid = func.add_block(BinaryBasicBlock(".LFT0"))
    target = func.add_block(BinaryBasicBlock(".Ltmp0"))

    entry.exec_count = 100
    jcc = Instruction(Op.JCC_LONG, cc=CondCode.EQ, label=".Ltmp0")
    entry.insns = [Instruction(Op.CMP_RI, (0,), imm=1), jcc]
    entry.set_edge(".Ltmp0", 30)
    entry.set_edge(".LFT0", 70)
    entry.fallthrough_label = ".LFT0"

    mid.exec_count = 70
    mid.insns = [Instruction(Op.RET)]
    target.exec_count = 30
    target.insns = [Instruction(Op.RET)]
    return func


def test_dyno_stats_forward_branch():
    func = _branchy_function()
    stats = compute_function_dyno_stats(func)
    assert stats.executed_forward_branches == 100
    assert stats.taken_forward_branches == 30
    assert stats.non_taken_conditional_branches == 70
    assert stats.taken_branches == 30
    assert stats.executed_instructions == 100 * 2 + 70 + 30


def test_dyno_stats_backward_after_reorder():
    func = _branchy_function()
    func.reorder([".LBB0", ".Ltmp0", ".LFT0"])
    stats = compute_function_dyno_stats(func)
    assert stats.executed_backward_branches == 0
    assert stats.executed_forward_branches == 100  # target still later? no:
    # .Ltmp0 now directly follows the entry, so the branch is forward at
    # distance 1 — position-based classification keeps it forward.
    assert stats.taken_forward_branches == 30


def test_dyno_stats_uncond_jump():
    func = _branchy_function()
    entry = func.blocks[".LBB0"]
    entry.insns = [Instruction(Op.JMP_NEAR, label=".Ltmp0")]
    entry.successors = [".Ltmp0"]
    entry.edge_counts = {".Ltmp0": 100}
    entry.fallthrough_label = None
    stats = compute_function_dyno_stats(func)
    assert stats.executed_unconditional_branches == 100
    assert stats.taken_branches == 100


def test_dyno_stats_delta():
    a = DynoStats()
    a.taken_branches = 100
    b = DynoStats()
    b.taken_branches = 40
    delta = b.delta_vs(a)
    assert abs(delta["taken_branches"] - (-0.6)) < 1e-9
    assert delta["executed_calls"] is None  # zero baseline
    combined = a + b
    assert combined.taken_branches == 140


def test_dump_function_non_simple():
    func = BinaryFunction("weird", 0x2000, 16)
    func.mark_non_simple("unresolved indirect jump (tail call?)")
    func.add_block(BinaryBasicBlock(".LBB0"))
    text = dump_function(func)
    assert "IsSimple    : 0" in text
    assert "indirect" in text


def test_report_bad_layout_detects_sandwich():
    func = _branchy_function()
    # Make the middle block cold between two hot ones.
    func.blocks[".LFT0"].exec_count = 0
    func.blocks[".Ltmp0"].exec_count = 95
    func.has_profile = True
    func.blocks[".LFT0"].insns[0].loc = ("f.bc", 42)

    class FakeContext:
        functions = {"f": func}

    findings = report_bad_layout(FakeContext(), min_count=10)
    assert len(findings) == 1
    finding = findings[0]
    assert finding["block"] == ".LFT0"
    assert finding["source"] == ("f.bc", 42)
    report = format_bad_layout_report(findings)
    assert "f.bc:42" in report
    assert ".LFT0" in report


def test_report_bad_layout_respects_max():
    func = _branchy_function()
    func.has_profile = True
    func.blocks[".LFT0"].exec_count = 0
    func.blocks[".Ltmp0"].exec_count = 95

    class FakeContext:
        functions = {"f": func}

    assert report_bad_layout(FakeContext(), min_count=10, max_reports=0) == []


def test_rewrite_result_summary():
    from repro.compiler import build_executable
    from repro.core import BoltOptions, optimize_binary
    from repro.profiling import SamplingConfig, profile_binary

    exe, _ = build_executable([("m", """
func hot(x) {
  if (x % 9 == 8) { return x * 3; }
  return x + 1;
}
func main() {
  var i = 0;
  var s = 0;
  while (i < 300) { s = s + hot(i); i = i + 1; }
  out s;
  return 0;
}
""")], emit_relocs=True)
    profile, _ = profile_binary(exe, sampling=SamplingConfig(period=41))
    result = optimize_binary(exe, profile, BoltOptions())
    text = result.summary()
    assert "BOLT-INFO" in text
    assert "functions discovered" in text
    assert "dyno-stats" in text
    assert "profile match" in text
