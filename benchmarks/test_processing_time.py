"""Processing time (paper section 6.6): BOLT is *practical* — it
rewrites large binaries in minutes, not hours.

Two layers, both recorded into ``BENCH_pr3.json`` at the repo root:

* **Kernel microbenchmarks** — the rewritten ordering kernels
  (reverse-adjacency HFSort, incremental HFSort+, cached-edge ext-TSP),
  the instruction-sharing pass snapshot, the per-opcode use/def table,
  one-walk ICF keys, the summary-walk BL001/BL002/BL003 lint checkers,
  and the cached line-table lookup, each against
  its pre-PR reference implementation from
  ``tests.oracles.reference_kernels`` — on inputs where both produce
  identical outputs (the correctness side is pinned by
  ``tests/test_hfsort.py``).
* **End-to-end** — the full ``optimize_binary`` pipeline on the
  compiler workload, fast kernels vs the pre-PR kernels monkeypatched
  back in.  Acceptance: >= 2x faster.
* **Lite mode** — one BOLT job per single-host preset with
  ``lite=False`` and with lite mode on: job CPU time, the functions
  each processes, and the hot, cold and in-place bytes.
* **Front end** — ``parse_module`` on every preset's BC sources at
  seeds 0-2, the regex scanner and value-keyed parser against the
  character-loop lexer and parser in ``tests.oracles``; the ASTs must
  be equal and the new path faster.  These inputs do not depend on
  ``REPRO_BENCH_SCALE``.

Run with::

    REPRO_BENCH_SCALE=0.25 pytest benchmarks/test_processing_time.py -m perf
"""

import random
import time

import pytest

from conftest import SCALE, print_table, record_bench, scaled
from repro.belf import write_binary
from repro.belf.linetable import LineTable
from repro.core import BoltOptions, optimize_binary
from tests.oracles.reference_kernels import (
    check_callee_saved_reference,
    check_flags_reference,
    check_stack_height_reference,
    ext_tsp_reference,
    hfsort_plus_reference,
    hfsort_reference,
    insn_uses_defs_reference,
    linetable_lookup_reference,
    normalize_self_reference,
    restore_function_deepcopy,
    snapshot_function_deepcopy,
)
from repro.core.hfsort import CallGraph, hfsort, hfsort_plus
from repro.core.layout_algos import _ext_tsp
from repro.harness import build_workload, sample_profile
from repro.harness.pipeline import bolt_processing_time
from repro.workloads import make_workload

pytestmark = pytest.mark.perf


def _record(section, payload):
    record_bench("BENCH_pr3.json", section, payload)


def _timed(fn, *args, repeat=3):
    best = None
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return out, best


def _random_call_graph(n_funcs, n_arcs, seed=1234):
    rng = random.Random(seed)
    graph = CallGraph()
    names = [f"f{i}" for i in range(n_funcs)]
    for name in names:
        graph.add_function(name, rng.choice([0, rng.randrange(1, 1000)]),
                           rng.randrange(16, 4096))
    for _ in range(n_arcs):
        graph.add_arc(rng.choice(names), rng.choice(names),
                      rng.randrange(1, 200))
    return graph


def _random_cfg(n_blocks, seed=99):
    from repro.core.binary_function import BinaryBasicBlock, BinaryFunction
    from repro.isa import Instruction, Op

    rng = random.Random(seed)
    func = BinaryFunction("bench", 0x1000, 64 * n_blocks)
    labels = ["entry"] + [f"b{i}" for i in range(n_blocks - 1)]
    for label in labels:
        block = BinaryBasicBlock(label)
        block.exec_count = rng.randrange(0, 500)
        block.insns = [Instruction(Op.NOPN, imm=rng.randrange(4, 32))]
        func.add_block(block)
    for src in labels:
        for dst in rng.sample(labels[1:], min(2, len(labels) - 1)):
            func.blocks[src].set_edge(dst, rng.randrange(0, 300))
    return func, labels


def test_kernel_microbenchmarks():
    rows, payload = [], {}

    graph = _random_call_graph(400, 2500)
    new, t_new = _timed(hfsort, graph)
    ref, t_ref = _timed(hfsort_reference, graph)
    assert new == ref
    rows.append(("hfsort (400f/2500a)", t_ref, t_new))
    payload["hfsort"] = {"reference_s": t_ref, "fast_s": t_new}

    graph = _random_call_graph(220, 1400, seed=77)
    new, t_new = _timed(hfsort_plus, graph, repeat=1)
    ref, t_ref = _timed(hfsort_plus_reference, graph, repeat=1)
    assert new == ref
    rows.append(("hfsort+ (220f/1400a)", t_ref, t_new))
    payload["hfsort_plus"] = {"reference_s": t_ref, "fast_s": t_new}

    func, labels = _random_cfg(110)
    new, t_new = _timed(_ext_tsp, func, labels, repeat=1)
    ref, t_ref = _timed(ext_tsp_reference, func, labels, repeat=1)
    assert new == ref
    rows.append(("ext-TSP (110 blocks)", t_ref, t_new))
    payload["ext_tsp"] = {"reference_s": t_ref, "fast_s": t_new}

    table = LineTable()
    rng = random.Random(5)
    for i in range(4000):
        table.add(0x1000 + 4 * i, "f.bc", rng.randrange(1, 500))
    probes = [0x1000 + rng.randrange(0, 16000) for _ in range(4000)]

    def fast_lookups():
        return [table.lookup(a) for a in probes]

    def ref_lookups():
        return [linetable_lookup_reference(table, a) for a in probes]

    new, t_new = _timed(fast_lookups, repeat=1)
    ref, t_ref = _timed(ref_lookups, repeat=1)
    assert new == ref
    rows.append(("linetable lookup (4k x 4k)", t_ref, t_new))
    payload["linetable_lookup"] = {"reference_s": t_ref, "fast_s": t_new}

    for name, entry in payload.items():
        entry["speedup"] = round(entry["reference_s"]
                                 / max(entry["fast_s"], 1e-9), 2)
    print_table(
        "Kernel microbenchmarks (pre-PR reference vs fast)",
        ("kernel", "reference", "fast", "speedup"),
        [(n, f"{r:.4f}s", f"{f:.4f}s", f"{r / max(f, 1e-9):.1f}x")
         for (n, r, f) in rows])
    _record("kernels", payload)
    # Each rewritten kernel must actually win on kernel-sized inputs.
    for name, entry in payload.items():
        assert entry["speedup"] > 1.0, name


def test_snapshot_microbenchmark():
    from repro.analysis import checkers
    from repro.core import BinaryContext
    from repro.core.cfg_builder import build_all_functions
    from repro.core.dataflow import insn_uses_defs
    from repro.core.discovery import discover_functions
    from repro.core.passes.base import restore_function, snapshot_function
    from repro.core.passes.icf import _function_key
    from repro.core.reports import dump_function

    exe = build_workload(scaled("compiler"), label="O2").exe
    context = BinaryContext(exe, BoltOptions())
    discover_functions(context)
    build_all_functions(context)
    funcs = context.simple_functions()
    insns = [insn for f in funcs for block in f.blocks.values()
             for insn in block.insns]

    def fast():
        return [snapshot_function(f) for f in funcs]

    def slow():
        return [snapshot_function_deepcopy(f) for f in funcs]

    fast_snaps, t_new = _timed(fast, repeat=1)
    slow_snaps, t_ref = _timed(slow, repeat=1)
    sample = list(zip(funcs, fast_snaps, slow_snaps))[: 20]
    for f, snap, ref in sample:
        f.blocks.clear()
        restore_function(f, snap)
        assert dump_function(f) == dump_function(ref), f.name
    speedup = t_ref / max(t_new, 1e-9)

    uses_defs, t_ud = _timed(lambda: [insn_uses_defs(i) for i in insns])
    uses_defs_ref, t_ud_ref = _timed(
        lambda: [insn_uses_defs_reference(i) for i in insns])
    assert uses_defs == uses_defs_ref
    keys, t_key = _timed(lambda: [_function_key(f, f.name) for f in funcs])
    keys_ref, t_key_ref = _timed(
        lambda: [normalize_self_reference(f) for f in funcs])
    assert keys == keys_ref

    def summary_checkers(func):
        summary = checkers._summarize(func)
        return (checkers._check_stack_height(func, summary)
                + checkers._check_callee_saved(func, summary)
                + checkers._check_flags(func, summary))

    def reference_checkers(func):
        return (check_stack_height_reference(func)
                + check_callee_saved_reference(func)
                + check_flags_reference(func))

    def rendered(per_func):
        return [[f.render() for f in found] for found in per_func]

    found, t_chk = _timed(lambda: [summary_checkers(f) for f in funcs])
    found_ref, t_chk_ref = _timed(
        lambda: [reference_checkers(f) for f in funcs])
    assert rendered(found) == rendered(found_ref)

    rows = [("snapshot_function", t_ref, t_new),
            ("insn_uses_defs", t_ud_ref, t_ud),
            ("icf_function_key", t_key_ref, t_key),
            ("dataflow_checkers", t_chk_ref, t_chk)]
    print_table("Per-function snapshot and per-instruction facts "
                "(one pipeline pass worth)",
                ("kernel", "reference", "fast", "speedup"),
                [(n, f"{r:.4f}s", f"{f:.4f}s", f"{r / max(f, 1e-9):.1f}x")
                 for (n, r, f) in rows])
    _record("snapshot", {"reference_s": t_ref, "fast_s": t_new,
                         "functions": len(funcs),
                         "speedup": round(speedup, 2)})
    _record("facts", {
        name: {"reference_s": r, "fast_s": f,
               "speedup": round(r / max(f, 1e-9), 2)}
        for name, r, f in rows[1:]})
    assert speedup > 1.0
    assert t_chk < t_chk_ref


def _synthetic_shards(n_shards, records_per_shard, seed=2024):
    """Random fleet shards: shared hot core + per-shard tail, the shape
    real per-host collections have."""
    from repro.profiling import BinaryProfile, write_fdata

    rng = random.Random(seed)
    names = [f"func_{i}" for i in range(40)]

    def loc():
        return (rng.choice(names), rng.randrange(0, 0x400))

    core = [(loc(), loc()) for _ in range(records_per_shard // 2)]
    shards = []
    for shard in range(n_shards):
        profile = BinaryProfile(event="cycles", lbr=True,
                                build_id="bench-build")
        for src, dst in core:
            profile.add_branch(src, dst, count=rng.randrange(1, 500),
                               mispred=rng.random() < 0.1)
        for _ in range(records_per_shard - len(core)):
            profile.add_branch(loc(), loc(), count=rng.randrange(1, 50))
        shards.append((f"host{shard:02d}", write_fdata(profile)))
    return shards


@pytest.mark.aggregate
def test_aggregation_throughput():
    """merge-fdata throughput (BENCH_pr4.json): shards/second of
    in-memory aggregation; repeated runs must merge identical bytes."""
    from repro.profiling import aggregate_shards, write_fdata

    n_shards = max(4, int(24 * SCALE))
    records = max(200, int(2000 * SCALE))
    shards = _synthetic_shards(n_shards, records)

    first = aggregate_shards(shards)  # warm-up (imports, allocator)
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        result = aggregate_shards(shards)
        samples.append(time.perf_counter() - t0)
        assert write_fdata(result.profile) == write_fdata(first.profile)
        assert result.to_json() == first.to_json()
    t_serial = sorted(samples)[len(samples) // 2]

    # Against a target binary the first call builds the matching
    # context and later calls reuse it: every call merges the same bytes.
    binary = build_workload(make_workload("mini")).exe
    against = [aggregate_shards(shards, binary=binary) for _ in range(3)]
    assert len({write_fdata(r.profile) for r in against}) == 1
    assert len({r.to_json() for r in against}) == 1

    serial_rate = n_shards / max(t_serial, 1e-9)
    print_table(
        f"merge-fdata aggregation throughput "
        f"({n_shards} shards x {records} records)",
        ("configuration", "wall", "shards/s"),
        [("serial", f"{t_serial:.3f}s", f"{serial_rate:.1f}")])
    record_bench("BENCH_pr4.json", "aggregation", {
        "shards": n_shards,
        "records_per_shard": records,
        "serial_s": round(t_serial, 4),
        "serial_shards_per_s": round(serial_rate, 2),
        "merged_branch_records": len(first.profile.branches),
    })
    assert serial_rate > 0


def test_end_to_end_processing_time(monkeypatch):
    """Full-pipeline wall time, fast vs pre-PR kernels: the >= 2x
    acceptance gate, measured by the same timing layer ``--time-rewrite``
    prints."""
    workload = scaled("compiler")
    built = build_workload(workload, label="O2")
    profile, _ = sample_profile(built)

    result_fast, timing_fast = bolt_processing_time(built, profile)
    assert timing_fast is not None
    fast_s = timing_fast.total_seconds
    fast_bytes = write_binary(result_fast.binary)

    # Put every pre-PR kernel back (at its call site) and measure again.
    import repro.core.passes.base as base
    import repro.core.passes.reorder_bbs as reorder_bbs
    import repro.core.passes.reorder_functions as reorder_functions
    from tests.oracles.reference_kernels import order_blocks_reference

    monkeypatch.setattr(base, "snapshot_function", snapshot_function_deepcopy)
    monkeypatch.setattr(base, "restore_function", restore_function_deepcopy)
    monkeypatch.setattr(reorder_functions, "hfsort", hfsort_reference)
    monkeypatch.setattr(reorder_functions, "hfsort_plus",
                        hfsort_plus_reference)
    monkeypatch.setattr(reorder_bbs, "order_blocks", order_blocks_reference)
    monkeypatch.setattr(LineTable, "lookup", linetable_lookup_reference)

    result_ref, timing_ref = bolt_processing_time(built, profile)
    assert timing_ref is not None
    ref_s = timing_ref.total_seconds
    # The performance layer must not change the output.
    assert write_binary(result_ref.binary) == fast_bytes

    speedup = ref_s / max(fast_s, 1e-9)
    print_table(
        f"End-to-end optimize_binary, compiler workload (scale {SCALE})",
        ("configuration", "wall"),
        [("pre-PR kernels", f"{ref_s:.2f}s"),
         ("fast kernels (this PR)", f"{fast_s:.2f}s"),
         ("speedup", f"{speedup:.1f}x")])
    _record("end_to_end", {
        "workload": "compiler",
        "reference_s": round(ref_s, 3),
        "fast_s": round(fast_s, 3),
        "speedup": round(speedup, 2),
        "phases": timing_fast.as_dict().get("phases", []),
        "passes": timing_fast.as_dict().get("passes", []),
    })
    assert speedup >= 2.0, f"acceptance: expected >= 2x, got {speedup:.2f}x"


#: The presets whose fresh single-host profile matches exactly.
LITE_PRESETS = ("compiler", "hhvm", "proxygen")


def test_lite_mode_processing_time():
    """Job CPU time, full vs lite mode, per preset: lite mode processes
    only the functions the exact profile names and must be cheaper."""

    def job(exe, profile, lite):
        best = result = None
        for _ in range(2):
            t0 = time.process_time()
            result = optimize_binary(exe, profile, BoltOptions(lite=lite))
            elapsed = time.process_time() - t0
            best = elapsed if best is None else min(best, elapsed)
        assert result.degraded is None
        functions = len(result.context.functions)
        return {"cpu_s": round(best, 3),
                "functions_processed": functions - result.kept_count,
                "hot_bytes": result.hot_text_size,
                "cold_bytes": result.cold_text_size,
                "in_place_bytes": result.kept_text_size}

    payload, rows = {}, []
    for name in LITE_PRESETS:
        built = build_workload(scaled(name), lto=(name == "hhvm"))
        profile, _ = sample_profile(built)
        full = job(built.exe, profile, lite=False)
        lite = job(built.exe, profile, lite=True)
        payload[name] = {"full": full, "lite": lite}
        for mode, entry in (("full", full), ("lite", lite)):
            rows.append((name, mode, f"{entry['cpu_s']:.2f}s",
                         entry["functions_processed"], entry["hot_bytes"],
                         entry["cold_bytes"], entry["in_place_bytes"]))
    print_table("One BOLT job, full vs lite mode (job CPU time)",
                ("preset", "mode", "cpu", "functions", "hot B", "cold B",
                 "in-place B"), rows)
    _record("lite", payload)
    for name, entry in payload.items():
        assert entry["full"]["in_place_bytes"] == 0, name
        assert (entry["lite"]["functions_processed"]
                < entry["full"]["functions_processed"]), name
        assert entry["lite"]["cpu_s"] < entry["full"]["cpu_s"], name


def test_front_end_processing_time():
    """BC front end: lexing and parsing every preset, new vs oracle."""
    from repro.lang import Lexer, parse_module
    from tests.oracles import ast_key, preset_sources
    from tests.oracles import lexer as old_lexer
    from tests.oracles import parser as old_parser

    sources = [source for seed in (0, 1, 2) for source in preset_sources(seed)]

    def lex_all(lexer):
        return sum(len(lexer(text, f"{name}.bc").tokens())
                   for name, text in sources)

    def parse_all(parse):
        for name, text in sources:
            parse(text, name)

    for name, text in sources:
        assert ast_key(parse_module(text, name)) == \
            ast_key(old_parser.parse_module(text, name)), name
    _, t_new = _timed(parse_all, parse_module, repeat=2)
    _, t_ref = _timed(parse_all, old_parser.parse_module, repeat=2)
    tokens, t_lex = _timed(lex_all, Lexer, repeat=2)
    tokens_ref, t_lex_ref = _timed(lex_all, old_lexer.Lexer, repeat=2)
    assert tokens == tokens_ref

    rows = [("lex", t_lex_ref, t_lex),
            ("lex + parse (parse_module)", t_ref, t_new)]
    print_table(
        f"BC front end, {len(sources)} preset sources "
        f"({sum(len(text) for _, text in sources)} chars)",
        ("stage", "reference", "fast", "speedup"),
        [(n, f"{r:.3f}s", f"{f:.3f}s", f"{r / max(f, 1e-9):.1f}x")
         for (n, r, f) in rows])
    _record("front_end", {
        "sources": len(sources),
        "chars": sum(len(text) for _, text in sources),
        "tokens": tokens,
        "lex": {"reference_s": round(t_lex_ref, 4),
                "fast_s": round(t_lex, 4),
                "speedup": round(t_lex_ref / max(t_lex, 1e-9), 2)},
        "parse_module": {"reference_s": round(t_ref, 4),
                         "fast_s": round(t_new, 4),
                         "speedup": round(t_ref / max(t_new, 1e-9), 2)},
    })
    assert t_new < t_ref
