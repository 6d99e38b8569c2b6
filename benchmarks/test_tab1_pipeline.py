"""Table 1: the 16-pass optimization pipeline — audited end to end.

For each pass, the benchmark reports what it did on the compiler
workload and asserts it had its intended effect at least once, i.e. the
pipeline is not just present but *active* on realistic input.
"""

from conftest import once, print_table
from repro.core import BoltOptions
from repro.harness import measure, speedup
from repro.harness.experiments import Leg


def test_tab1_pipeline_activity(benchmark, compiler_matrix):
    result = compiler_matrix["bolt"]
    stats = result.pass_stats

    rows = []
    for name, stat in stats.items():
        interesting = {k: v for k, v in stat.items() if v}
        rows.append((name, str(interesting) if interesting else "-"))
    print_table("Table 1: pass-by-pass activity (compiler workload)",
                ("pass", "effect"), rows)

    assert stats["strip-rep-ret"]["stripped"] > 0
    assert stats["icf"]["folded"] + stats["icf-2"]["folded"] > 0
    assert stats["icp"]["promoted"] > 0
    assert stats["peepholes"]["push-pop"] > 0
    assert stats["inline-small"]["inlined"] > 0
    assert stats["simplify-ro-loads"]["converted"] > 0
    assert stats["plt"]["optimized"] > 0
    assert stats["reorder-bbs"]["reordered"] > 0
    assert stats["reorder-bbs"]["cold-blocks"] > 0
    assert stats["fixup-branches"]["inverted"] + \
        stats["fixup-branches"]["removed-jumps"] > 0
    assert stats["reorder-functions"]["functions"] > 0
    assert stats["sctc"]["simplified"] > 0
    assert stats["frame-opts"]["removed-stores"] > 0

    benchmark.extra_info["pass_stats"] = {
        name: {k: v for k, v in stat.items() if v}
        for name, stat in stats.items()}
    once(benchmark, lambda: stats)


def test_tab1_cumulative_pass_value(benchmark, compiler_matrix):
    """Ablation: disabling groups of passes must not *help* — the full
    pipeline is at least as fast as layout-only."""
    leg = Leg(compiler_matrix["baseline"],
              profile=compiler_matrix["baseline_profile"],
              result=compiler_matrix["bolt"])
    _, layout_only = leg.bolt(BoltOptions(
        icf=False, icp=False, peepholes=False, inline_small=False,
        simplify_ro_loads=False, plt=False, sctc=False, frame_opts=False,
        shrink_wrapping=False, strip_rep_ret=False))
    base_cycles = leg.baseline.counters.cycles
    full_cycles = leg.optimized.counters.cycles
    layout_cycles = layout_only.counters.cycles

    print_table(
        "Table 1 (cumulative): layout-only vs full pipeline",
        ("configuration", "cycles", "speedup vs O2"),
        [("O2 baseline", f"{base_cycles:,}", "-"),
         ("layout passes only", f"{layout_cycles:,}",
          f"{speedup(base_cycles, layout_cycles):+.1%}"),
         ("full Table 1 pipeline", f"{full_cycles:,}",
          f"{speedup(base_cycles, full_cycles):+.1%}")])

    # Layout is the dominant effect (the paper's central claim)...
    assert speedup(base_cycles, layout_cycles) > 0.05
    # ...and the remaining passes add, not subtract.
    assert full_cycles <= layout_cycles * 1.01

    benchmark.extra_info["full"] = full_cycles
    benchmark.extra_info["layout_only"] = layout_cycles
    once(benchmark,
         lambda: measure(leg.result.binary, inputs=leg.workload.inputs))
