"""The rewrite's performance layer: pass/phase timing, per-function pass
failure containment, and the diagnostics routing of formerly-silent
failure paths."""

import json

import pytest

from repro.compiler import BuildOptions, build_executable
from repro.core import BinaryContext, BoltOptions, optimize_binary
from tests.oracles.reference_kernels import linetable_lookup_reference
from repro.core.cfg_builder import build_all_functions
from repro.core.discovery import discover_functions
from repro.core.passes.base import BinaryPass, PassManager
from repro.core.reports import format_timing_table
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


def test_per_pass_dyno_walks_are_their_own_phase(baseline):
    """Under ``time_opts`` the whole-binary dyno-stats walk after each
    pass is timed as one phase, carved out of the passes phase: phases
    never overlap, and the passes phase holds every pass timer."""
    exe, _, profile = baseline
    result = optimize_binary(
        exe, profile, BoltOptions(time_opts=True, time_rewrite=True))
    timing = result.timing
    phases = {p.name: p.seconds for p in timing.phases}
    assert [p.name for p in timing.phases].count("dyno-stats (per pass)") == 1
    assert phases["dyno-stats (per pass)"] > 0
    # The validate gate runs after the job's wall clock stops.
    assert sum(phases.values()) - phases["validate gate"] \
        <= timing.total_seconds
    assert phases["optimization passes"] >= sum(
        p.seconds for p in timing.passes)
    assert all(p.dyno_delta is not None for p in timing.passes)
    # Without time_opts there is no per-pass walk to time.
    result = optimize_binary(exe, profile, BoltOptions(time_rewrite=True))
    assert "dyno-stats (per pass)" not in [p.name
                                           for p in result.timing.phases]


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
    assert spin.blocks  # rebuilt from its input bytes
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
