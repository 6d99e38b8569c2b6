"""Diagnostic reports: the Figure 4-style CFG dump, and the
``-report-bad-layout`` analysis used in paper section 6.3 to show that
compiler PGO still leaves cold blocks interleaved with hot ones
(Figure 10) because of context-merged inlining profiles.
"""


def dump_function(func, max_blocks=None):
    """Figure 4-style textual dump of a BinaryFunction."""
    lines = [
        f'Binary Function "{func.name}" {{',
        f"  State       : {'CFG constructed' if func.is_simple else 'disassembled'}",
        f"  Address     : 0x{func.address:x}",
        f"  Size        : 0x{func.size:x}",
        f"  Section     : {func.section}",
        f"  IsSimple    : {int(func.is_simple)}",
        f"  BB Count    : {len(func.blocks)}",
        f"  BB Layout   : {', '.join(func.blocks)}",
        f"  Exec Count  : {func.exec_count}",
    ]
    if func.profile_match is not None:
        lines.append(f"  Profile Acc : {func.profile_match * 100:.1f}%")
    if not func.is_simple:
        lines.append(f"  Violation   : {func.simple_violation}")
    lines.append("}")
    for i, (label, block) in enumerate(func.blocks.items()):
        if max_blocks is not None and i >= max_blocks:
            lines.append("....")
            break
        lines.append("")
        flags = " (landing pad)" if block.is_landing_pad else ""
        flags += " (cold)" if block.is_cold else ""
        lines.append(f"{label} ({len(block.insns)} instructions){flags}")
        lines.append(f"  Exec Count : {block.exec_count}")
        for insn in block.insns:
            loc = insn.loc
            comment = f"    # {loc[0]}:{loc[1]}" if loc else ""
            lp = insn.lp
            if lp:
                comment += f"    # handler: {lp}; action: 1"
            offset = (f"{insn.address - func.address:08x}: "
                      if insn.address is not None else "          ")
            lines.append(f"  {offset}{insn}{comment}")
        if block.successors:
            succs = ", ".join(
                f"{s} (mispreds: {block.edge_mispreds.get(s, 0)}, "
                f"count: {block.edge_counts.get(s, 0)})"
                for s in block.successors)
            lines.append(f"  Successors: {succs}")
        if block.landing_pads:
            lines.append(f"  Landing Pads: {', '.join(block.landing_pads)}")
    return "\n".join(lines)


def format_timing_table(timing):
    """The llvm-bolt ``-time-opts``/``-time-rewrite`` style table.

    Renders per-pass rows (wall seconds, percent of timed pass total,
    functions visited, and the pass's own dyno-stat movement when
    available) and per-phase rows for the whole rewrite.
    """
    lines = []
    if timing.passes:
        total = sum(p.seconds for p in timing.passes) or 1e-12
        lines.append("BOLT-INFO: pass timing "
                     f"(total {total:.4f}s across {len(timing.passes)} "
                     f"passes):")
        width = max(len(p.name) for p in timing.passes)
        for p in timing.passes:
            row = (f"  {p.seconds:9.4f}s  {100 * p.seconds / total:5.1f}%  "
                   f"{p.name:<{width}}")
            if p.functions is not None:
                row += f"  {p.functions:6d} funcs"
            if p.dyno_delta:
                moved = {k: v for k, v in p.dyno_delta.items()
                         if v is not None and abs(v) >= 5e-4}
                if moved:
                    row += "  " + ", ".join(
                        f"{k} {v:+.1%}" for k, v in sorted(moved.items()))
            lines.append(row)
    if timing.phases:
        lines.append("BOLT-INFO: rewrite phase timing:")
        width = max(len(p.name) for p in timing.phases)
        for p in timing.phases:
            lines.append(f"  {p.seconds:9.4f}s  {p.name:<{width}}")
    if timing.total_seconds is not None:
        lines.append(f"BOLT-INFO: rewrite wall time: "
                     f"{timing.total_seconds:.4f}s")
    return "\n".join(lines)


def format_aggregation_report(report):
    """Human-readable rendering of the merge-fdata quality report.

    Takes the dict from :meth:`AggregationResult.report` and renders
    per-shard rows (records, dropped lines, staleness, match quality,
    divergence from the fleet consensus, cache state) plus the merged
    totals — the ``--json`` report's textual twin.
    """
    lines = []
    shards = report["shards"]
    width = max((len(s["name"]) for s in shards), default=5)
    lines.append(f"BOLT-INFO: merge-fdata: {len(shards)} shard(s), "
                 f"{report['stale_shards']} stale, "
                 f"{report['cache_hits']} cache hit(s), "
                 f"{report['dropped_lines']} dropped line(s)")
    header = (f"  {'shard':<{width}}  {'branches':>8}  {'samples':>7}  "
              f"{'dropped':>7}  {'weight':>7}  {'match':>6}  {'diverg':>6}  "
              f"stale  cache")
    lines.append(header)
    for s in shards:
        match = s["match"]
        quality = (f"{match['quality'] * 100:5.1f}%"
                   if match and match.get("quality") is not None else "     -")
        diverg = (f"{s['divergence']:6.3f}"
                  if s["divergence"] is not None else "     -")
        lines.append(
            f"  {s['name']:<{width}}  {s['branch_records']:>8}  "
            f"{s['sample_records']:>7}  {s['parse']['dropped_total']:>7}  "
            f"{s['effective_weight']:>7.3g}  {quality}  {diverg}  "
            f"{'yes' if s['stale'] else ' no'}   {s['cache']}")
    merged = report["merged"]
    coverage = report["coverage"]
    lines.append(
        f"BOLT-INFO: merged profile: {merged['branch_records']} branch "
        f"record(s), {merged['sample_records']} sample site(s), "
        f"{merged['functions']} function(s) "
        f"({coverage['functions_common']} covered by every shard)")
    return "\n".join(lines)


def report_bad_layout(context, min_count=1, max_reports=None):
    """Find hot functions with cold blocks interleaved between hot ones.

    Returns a list of findings: (function, cold block label, the source
    location the cold code came from) — the analysis behind Figure 10.
    """
    findings = []
    if max_reports is not None and max_reports <= 0:
        return findings
    for func in context.functions.values():
        if not func.is_simple or not func.has_profile:
            continue
        layout = func.layout()
        for i in range(1, len(layout) - 1):
            block = layout[i]
            if block.exec_count >= min_count:
                continue
            before = layout[i - 1]
            after = layout[i + 1]
            if (before.exec_count >= min_count
                    and after.exec_count >= min_count):
                loc = None
                for insn in block.insns:
                    loc = insn.loc
                    if loc is not None:
                        break
                findings.append({
                    "function": func.name,
                    "block": block.label,
                    "exec_count": block.exec_count,
                    "between": (before.label, after.label),
                    "hot_counts": (before.exec_count, after.exec_count),
                    "source": loc,
                })
                if max_reports is not None and len(findings) >= max_reports:
                    return findings
    return findings


def format_bad_layout_report(findings):
    lines = [f"{len(findings)} suboptimal layout occurrence(s):"]
    for f in findings:
        src = f"{f['source'][0]}:{f['source'][1]}" if f["source"] else "?"
        lines.append(
            f"  {f['function']}: cold block {f['block']} "
            f"(count {f['exec_count']}) between {f['between'][0]} "
            f"(count {f['hot_counts'][0]}) and {f['between'][1]} "
            f"(count {f['hot_counts'][1]}), from {src}")
    return "\n".join(lines)
