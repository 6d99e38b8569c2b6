"""The PR-3 performance layer: pass/phase timing, per-function pass
failure containment, the instruction-sharing pass snapshot, and the
diagnostics routing of formerly-silent failure paths."""

import json

import pytest

from repro.compiler import BuildOptions, build_executable
from repro.core import BinaryContext, BoltOptions, optimize_binary
from repro.core._reference_kernels import (
    linetable_lookup_reference,
    snapshot_function_deepcopy,
)
from repro.core.cfg_builder import build_all_functions
from repro.core.discovery import discover_functions
from repro.core.passes.base import (
    BinaryPass,
    PassManager,
    restore_function,
    snapshot_function,
)
from repro.core.reports import dump_function, format_timing_table
from repro.core.validate import validate_execution
from repro.ir import InlinePolicy
from repro.profiling import SamplingConfig, profile_binary
from repro.uarch import run_binary

SRC = ("app", """
const array lut[8] = {3, 1, 4, 1, 5, 9, 2, 6};

func helper(x) { return x + lut[x % 8]; }

func spin(x) {
  switch (x % 8) {
    case 0: { return 10; } case 1: { return 11; }
    case 2: { return 12; } case 3: { return 13; }
    case 4: { return 14; } case 5: { return 15; }
    default: { return 0; }
  }
}

func work(i) { return helper(i) + spin(i); }

func main() {
  var i = 0;
  var total = 0;
  while (i < 500) {
    total = total + work(i);
    i = i + 1;
  }
  out total;
  return 0;
}
""")


@pytest.fixture(scope="module")
def baseline():
    exe = build_executable([SRC], BuildOptions(
        inline=InlinePolicy(max_size=6)), emit_relocs=True)[0]
    profile, _ = profile_binary(exe, sampling=SamplingConfig(period=43))
    return exe, run_binary(exe), profile


def _context(exe, options=None):
    context = BinaryContext(exe, options or BoltOptions())
    discover_functions(context)
    build_all_functions(context)
    return context


# -- timing subsystem --------------------------------------------------------


def test_time_opts_records_every_pass(baseline):
    exe, _, profile = baseline
    result = optimize_binary(exe, profile, BoltOptions(time_opts=True))
    timing = result.timing
    assert timing is not None and timing.passes
    names = [p.name for p in timing.passes]
    assert "reorder-bbs" in names and "reorder-functions" in names
    assert all(p.seconds >= 0 for p in timing.passes)
    assert all(p.functions is not None for p in timing.passes)
    table = format_timing_table(timing)
    assert "BOLT-INFO: pass timing" in table
    assert "reorder-bbs" in table
    assert table in result.summary()


def test_time_rewrite_records_phases_and_total(baseline):
    exe, _, profile = baseline
    result = optimize_binary(exe, profile, BoltOptions(time_rewrite=True))
    timing = result.timing
    assert timing is not None
    phases = [p.name for p in timing.phases]
    assert "build CFGs" in phases
    assert "optimization passes" in phases
    assert "emit and link" in phases
    assert "validate gate" in phases
    assert timing.total_seconds is not None and timing.total_seconds > 0
    assert not timing.passes  # -time-opts not requested


def test_timing_json_round_trips(baseline):
    exe, _, profile = baseline
    result = optimize_binary(
        exe, profile, BoltOptions(time_opts=True, time_rewrite=True))
    doc = json.loads(result.timing.to_json())
    assert doc["total_seconds"] > 0
    assert {p["name"] for p in doc["phases"]} >= {"build CFGs",
                                                  "emit and link"}
    assert all("seconds" in p for p in doc["passes"])


def test_timing_off_by_default(baseline):
    exe, _, profile = baseline
    result = optimize_binary(exe, profile, BoltOptions())
    assert result.timing is None


# -- per-function failure containment ---------------------------------------


class _ExplodingPass(BinaryPass):
    name = "exploding"

    def run_on_function(self, context, func):
        if func.name == "spin":
            del func.blocks[func.entry_label]  # corrupt, then fail
            raise RuntimeError("boom")
        return {"visited": 1}


def test_pass_failure_contained(baseline):
    exe, _, _ = baseline
    context = _context(exe)
    before = sorted(f.name for f in context.simple_functions())
    assert "spin" in before
    stats = PassManager([_ExplodingPass()]).run(context)
    spin = context.functions["spin"]
    assert not spin.is_simple  # demoted, not lost
    assert spin.blocks  # snapshot restored before demotion
    assert spin.entry_label in spin.blocks
    after = sorted(f.name for f in context.simple_functions())
    assert after == [name for name in before if name != "spin"]
    # Every other function still ran; the failed one adds nothing.
    assert stats == {"exploding": {"visited": len(before) - 1}}
    rendered = [d.render() for d in context.diagnostics]
    contained = [line for line in rendered if "pass:exploding" in line]
    assert len(contained) == 1
    assert "contained RuntimeError: boom" in contained[0]
    assert "spin" in contained[0]


# -- pass snapshot (snapshot_function / restore_function) ---------------------


def test_snapshot_restore_matches_deepcopy_snapshot(baseline):
    exe, _, _ = baseline
    context = _context(exe)
    for func in context.simple_functions():
        snap, slow = snapshot_function(func), snapshot_function_deepcopy(func)
        func.blocks.clear()
        func.jump_tables.clear()
        restore_function(func, snap)
        assert dump_function(func) == dump_function(slow)
        assert func.analysis_facts == slow.analysis_facts
        assert func.raw_bytes == slow.raw_bytes


def test_snapshot_isolates_mutations(baseline):
    exe, _, _ = baseline
    context = _context(exe)
    func = context.functions["work"]
    snap = snapshot_function(func)
    block = next(iter(func.blocks.values()))
    before, count = len(block.insns), block.exec_count
    block.insns.append(block.insns[0].copy())
    block.exec_count += 99
    func.analysis_facts.setdefault("x", []).append(1)
    restore_function(func, snap)
    assert func.blocks[block.label] is block
    assert (len(block.insns), block.exec_count) == (before, count)
    assert "x" not in func.analysis_facts
    # The snapshot survives its own restore.
    block.insns.pop()
    block.exec_count += 99
    restore_function(func, snap)
    assert (len(block.insns), block.exec_count) == (before, count)


def test_restore_preserves_jump_table_identity(baseline):
    exe, _, _ = baseline
    context = _context(exe)
    func = next(f for f in context.functions.values() if f.jump_tables)
    tables = list(func.jump_tables)
    entries = [list(t.entries) for t in tables]
    snap = snapshot_function(func)
    for table in tables:
        table.entries.reverse()
    func.jump_tables = []
    restore_function(func, snap)
    annotated = [insn.jump_table
                 for block in func.blocks.values()
                 for insn in block.insns
                 if insn.jump_table is not None]
    assert annotated
    # Tables are restored in place: the shared instructions' jump_table
    # fields still point at the function's own table objects.
    assert all(a is b for a, b in zip(func.jump_tables, tables))
    assert [t.entries for t in func.jump_tables] == entries
    for table in annotated:
        assert any(table is t for t in func.jump_tables)


# -- satellite fixes ---------------------------------------------------------


def test_linetable_cached_lookup_matches_reference(baseline):
    exe, _, _ = baseline
    table = exe.line_table
    assert table is not None and len(table)
    addrs = [e.addr for e in table]
    probes = addrs + [a + 1 for a in addrs] + [0, addrs[-1] + 1000]
    for addr in probes:
        assert table.lookup(addr) == linetable_lookup_reference(table, addr)
    table.add(addrs[-1] + 2000, "extra.bc", 1)  # invalidates the cache
    assert table.lookup(addrs[-1] + 2001) == ("extra.bc", 1)


def test_validate_execution_reports_skipped_reference(baseline, monkeypatch):
    exe, _, _ = baseline
    import repro.uarch

    def explode(*args, **kwargs):
        raise RuntimeError("reference fault")

    monkeypatch.setattr(repro.uarch, "run_binary", explode)
    from repro.core.diagnostics import Diagnostics

    diags = Diagnostics()
    assert validate_execution(exe, exe, diagnostics=diags) == []
    rendered = "\n".join(d.render() for d in diags)
    assert "execution gate skipped" in rendered
    assert "reference fault" in rendered


def test_passthrough_failure_is_reported(baseline, monkeypatch):
    """The last degradation rung must *say* when it could not rebuild
    its reporting state (this used to be a silent ``except: pass``)."""
    from repro.core import rewriter

    exe, _, _ = baseline

    def explode(context):
        raise RuntimeError("discovery exploded")

    monkeypatch.setattr(rewriter, "discover_functions", explode)
    result = rewriter._passthrough_result(exe, None, BoltOptions())
    assert result.degraded == "passthrough"
    assert result.binary is exe
    rendered = "\n".join(d.render() for d in result.diagnostics)
    assert "could not rebuild reporting state" in rendered
    assert "discovery exploded" in rendered
