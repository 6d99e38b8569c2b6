"""The rewriting pipeline driver (paper Figure 3) and binary rewriting.

Two operating modes, mirroring the paper's evolution:

* **in-place mode** (section 3.1, the initial design): every optimized
  function is rewritten within its original extent; if the optimized
  hot code does not fit, the function reverts to its original bytes.
  Cold blocks split off into a new high-address section.  Functions
  never move, so no relocations are required.
* **relocations mode** (section 3.2): with ``--emit-relocs``
  information available, every function is repositioned — enabling
  whole-binary function reordering (HFSort) and aggressive splitting.

**Lite mode** (``BoltOptions.lite``, llvm-bolt's ``-lite``): when the
profile provably describes this binary, only the functions it names
are processed.  The rest are *kept*: never decoded, left at their input
addresses.  In relocations mode the input's ``.text`` then stays put as
``.bolt.org.text``; processed code goes into a new ``.text`` after the
last allocated section, and the input's retained relocations patch the
kept bodies' references to it.
"""

import bisect
import time
from contextlib import nullcontext

from repro.belf import (
    Binary,
    CallSiteRecord,
    FrameRecord,
    LineTable,
    RelocationOverflow,
    RelocType,
    Section,
    SectionFlag,
    Symbol,
    SymbolBind,
    SymbolType,
    FUNCTION_ALIGN,
    PAGE_SIZE,
    TEXT_COLD,
    TEXT_ORG,
    align_up,
    apply_relocation,
)
from repro.core.binary_context import BinaryContext
from repro.core.cfg_builder import build_all_functions
from repro.core.diagnostics import Severity
from repro.core.discovery import discover_functions
from repro.core.dyno_stats import compute_dyno_stats
from repro.core.emitter import (
    COLD_SUFFIX,
    SymbolResolver,
    _emit_raw,
    emit_function,
)
from repro.core.options import BoltOptions
from repro.core.passes.base import build_pipeline
from repro.core.profile_attach import attach_profile, measure_match_quality
from repro.core.timing import timing_report_for


class RewriteError(Exception):
    pass


class InputConflict(RewriteError):
    """The input itself rules the rewrite out in every mode, so the
    degradation ladder reports it once and does not retry in-place."""


class RewriteResult:
    def __init__(self, binary, context, pass_stats, dyno_before, dyno_after):
        self.binary = binary
        self.context = context
        self.pass_stats = pass_stats
        self.dyno_before = dyno_before
        self.dyno_after = dyno_after
        self.reverted = []
        self.hot_text_size = 0
        self.cold_text_size = 0
        self.kept_count = 0      # lite mode: functions left in place
        self.kept_text_size = 0  # ... and their bytes (not in hot/cold)
        self.degraded = None    # None | "in-place" | "passthrough"
        self.fragments = None   # name -> emitted Fragment (set by _rewrite)
        self.timing = None      # TimingReport (set when timing options on)

    @property
    def diagnostics(self):
        return self.context.diagnostics

    def summary(self):
        """A BOLT-INFO style textual report of what the run did: the
        :meth:`info_lines`, the degraded-mode warning, the timing table
        and every warning diagnostic."""
        lines = self.info_lines()
        if self.degraded:
            lines.append(f"BOLT-WARNING: output degraded to "
                         f"{self.degraded} mode")
        if self.timing:
            from repro.core.reports import format_timing_table
            lines.append(format_timing_table(self.timing))
        lines.extend(self.diagnostics.render(Severity.WARNING))
        return "\n".join(lines)

    def info_lines(self):
        """The BOLT-INFO lines of :meth:`summary`."""
        functions = list(self.context.functions.values())
        simple = [f for f in functions if f.is_simple and not f.is_kept]
        profiled = [f for f in simple if f.has_profile]
        folded = [f for f in functions if f.is_folded]
        skipped = sum(1 for f in functions if not f.is_simple)
        lines = [
            f"BOLT-INFO: {len(functions)} functions discovered, "
            f"{len(simple)} simple ({skipped} conservatively skipped)",
            f"BOLT-INFO: {len(profiled)} functions with profile "
            f"({len(folded)} folded by ICF)",
            f"BOLT-INFO: {self.context.binary.text_size():,}B text in -> "
            f"{self.hot_text_size:,}B hot + {self.cold_text_size:,}B cold out",
        ]
        if self.kept_count:
            lines.append(
                f"BOLT-INFO: lite mode: {self.kept_count} function(s) "
                f"without profile left in place "
                f"({self.kept_text_size:,}B)")
        if self.reverted:
            lines.append(
                f"BOLT-INFO: {len(self.reverted)} function(s) reverted "
                f"(optimized code did not fit in place)")
        matches = [f.profile_match for f in profiled
                   if f.profile_match is not None]
        if matches:
            lines.append(
                f"BOLT-INFO: profile match "
                f"{100 * sum(matches) / len(matches):.1f}% (average)")
        for name, stats in self.pass_stats.items():
            interesting = {k: v for k, v in stats.items() if v}
            if interesting:
                lines.append(f"BOLT-INFO: pass {name}: {interesting}")
        if self.dyno_before is not None and self.dyno_after is not None:
            delta = self.dyno_after.delta_vs(self.dyno_before)
            taken = delta.get("taken_branches")
            if taken is not None:
                lines.append(
                    f"BOLT-INFO: dyno-stats: taken branches {taken:+.1%}, "
                    f"executed instructions "
                    f"{delta['executed_instructions']:+.1%}")
        if self.context.stale_profile:
            quality = self.context.profile_quality
            lines.append(
                "BOLT-INFO: stale profile fuzzy-matched"
                + (f" (quality {quality:.1%})" if quality is not None else ""))
        return lines


def optimize_binary(binary, profile=None, options=None):
    """Run the full BOLT pipeline; returns a RewriteResult whose
    ``.binary`` is the optimized executable.

    Fault tolerance: per-function failures are contained by the pass
    manager; the validation gate of :mod:`repro.analysis.binlint`
    judges the output and, on failure, the driver walks a
    graceful-degradation ladder — retry without relocations (in-place
    mode), then fall back to returning the original binary — instead of
    shipping a corrupt executable.  In ``options.strict`` mode the
    first failure raises instead.

    ``profile`` is a :class:`~repro.profiling.BinaryProfile` or None;
    anything else (such as ``profile_binary``'s ``(profile, cpu)``
    tuple) raises :class:`TypeError` before any work.
    """
    from repro.analysis.binlint import gate_problems
    from repro.profiling import BinaryProfile

    if profile is not None and not isinstance(profile, BinaryProfile):
        raise TypeError(
            f"profile must be a BinaryProfile or None, not "
            f"{type(profile).__name__}")
    options = options or BoltOptions()

    # The static tier certifies the rewrite against the *input*'s
    # facts, so a corrupt input (garbage bodies, lying symbol sizes,
    # dangling relocations) is rejected before any rewrite attempt —
    # some corruptions would otherwise crash discovery mid-attempt and
    # lose the precise rule-ID diagnosis.
    problems = gate_problems(binary, options)
    if problems:
        if options.strict:
            raise RewriteError("; ".join(problems[:5]))
        return _passthrough_result(
            binary, profile, options,
            [("validate", problem) for problem in problems[:10]],
            "input fails static lint; returning the original binary "
            "unchanged")

    attempts = [(None, options)]
    wants_relocs = (options.use_relocations
                    or (options.use_relocations is None
                        and bool(binary.relocations)))
    if wants_relocs:
        attempts.append(("in-place", options.copy(use_relocations=False)))

    carried = []
    why = ("all rewrite attempts failed; returning the original binary "
           "unchanged")
    for degraded, opts in attempts:
        suffix = "" if degraded is None else f":{degraded}"
        try:
            result = _optimize_once(binary, profile, opts)
        except InputConflict as exc:
            if options.strict:
                raise
            carried.append(("rewrite", str(exc)))
            why = "returning the original binary unchanged"
            break
        except Exception as exc:
            if options.strict:
                raise
            carried.append((f"rewrite{suffix}", f"rewrite failed "
                            f"({type(exc).__name__}: {exc})"))
            continue
        for component, message in carried:
            result.diagnostics.error(component, message)
        with _phase(result.timing, "validate gate"):
            problems = gate_problems(binary, opts, result)
        if not problems:
            result.degraded = degraded
            if degraded:
                result.diagnostics.warning(
                    "validate", f"degraded to {degraded} mode after "
                    f"validation failure on the preferred mode")
            return result
        if options.strict:
            raise RewriteError("post-rewrite validation failed: "
                               + "; ".join(problems[:5]))
        carried.extend((f"validate{suffix}", problem)
                       for problem in problems[:10])
        why = ("all rewrite attempts failed validation; returning the "
               "original binary unchanged")

    # Last rung: ship the original binary unmodified.
    return _passthrough_result(binary, profile, options, carried, why)


def _phase(timing, name):
    """A phase-timer context (no-op when timing is off)."""
    return timing.phase(name) if timing is not None else nullcontext()


def _optimize_once(binary, profile, options):
    timing = timing_report_for(options)
    started = time.perf_counter() if timing is not None else None
    context = BinaryContext(binary, options)
    context.timing = timing
    with _phase(timing, "discover functions"):
        discover_functions(context)
    with _phase(timing, "build CFGs"):
        _build_cfgs(context, profile)
    context.profile = profile
    context.function_order = None
    if profile is not None:
        with _phase(timing, "attach profile"):
            attach_profile(context, profile)
    with _phase(timing, "dyno-stats (input)"):
        dyno_before = compute_dyno_stats(context)
    manager = build_pipeline(options)
    with _phase(timing, "optimization passes"):
        pass_stats = manager.run(context, dyno_before)
    if options.lint not in (None, "none", False):
        with _phase(timing, "lint gate"):
            _lint_gate(context)
    with _phase(timing, "dyno-stats (output)"):
        dyno_after = compute_dyno_stats(context)

    result = RewriteResult(None, context, pass_stats, dyno_before, dyno_after)
    with _phase(timing, "emit and link"):
        try:
            result.binary = _rewrite(context, result)
        except RelocationOverflow as exc:
            raise RewriteError(f"{exc.type.name} overflow patching at "
                               f"{exc.place:#x}") from exc
    if timing is not None:
        timing.total_seconds = time.perf_counter() - started
    result.timing = timing
    return result


def _build_cfgs(context, profile):
    """Build the CFGs of the functions this job processes.

    Lite mode keeps every function the profile does not name, but only
    when the profile provably describes this binary (see
    :func:`_lite_candidates`) and, once the named functions' CFGs are
    built, every intra-function record lands exactly on one of their
    edges (match quality 1.0).  A profile from another build misses
    executed code, so anything less builds every CFG, as a full job
    does.  Symbols aliasing a named body are processed with it.
    """
    names = _lite_candidates(context, profile)
    if names is None:
        build_all_functions(context)
        return
    functions = context.functions
    spans = {(functions[name].address, functions[name].size)
             for name in names}
    named, rest = [], []
    for func in functions.values():
        (named if (func.address, func.size) in spans else rest).append(func)
    build_all_functions(context, functions=named)
    if measure_match_quality(context, profile)["quality"] != 1.0:
        build_all_functions(context, functions=rest)
        return
    for func in rest:
        func.is_kept = True


def _lite_candidates(context, profile):
    """The names ``profile`` gives, when the checks that need no CFG
    allow lite mode: lite is on, the profile is an LBR profile stamped
    with this binary's build id, it names only functions the binary
    has, and no intra-function record lies outside its function.
    Otherwise None.  A stale fleet profile fails here, before any CFG
    is built."""
    if not (context.options.lite and profile is not None and profile.lbr
            and profile.build_id == context.build_id):
        return None
    functions = context.functions
    names = profile.functions()
    if not names.issubset(functions):
        return None
    for src, dst in profile.branches:
        if src[0] == dst[0]:
            size = functions[src[0]].size
            if not (0 <= src[1] < size and 0 <= dst[1] < size):
                return None
    return names


def _lint_gate(context):
    """Post-pass lint: contain functions whose invariants a pass broke.

    Runs the :mod:`repro.analysis` IR checkers over every still-simple
    function after the pipeline; a function with an ERROR-severity
    finding is demoted to raw (original bytes emitted verbatim) via the
    same containment machinery per-function pass failures use.
    """
    from repro.analysis.binlint import lint_context
    from repro.core.cfg_builder import demote_to_raw

    by_function = lint_context(
        context, suppress=context.options.lint_suppress)
    for name, findings in by_function.items():
        errors = [f for f in findings if f.severity >= Severity.ERROR]
        for finding in findings:
            if finding not in errors:
                context.diagnostics.note(
                    f"lint:{finding.rule}", finding.message, function=name)
        if not errors:
            continue
        first = errors[0]
        context.diagnostics.warning(
            f"lint:{first.rule}",
            f"post-pass lint found {len(errors)} error(s) "
            f"({', '.join(sorted({f.rule for f in errors}))}): "
            f"{first.message}; function demoted to non-simple",
            function=name)
        demote_to_raw(context, context.functions[name],
                      f"lint {first.rule} after passes")


def _passthrough_result(binary, profile, options, carried=(), why=None):
    """The ladder's last rung: the input binary, reported honestly —
    with the ``carried`` (component, message) errors and a ``why``
    warning."""
    context = BinaryContext(binary, options)
    try:
        discover_functions(context)
        build_all_functions(context)
    except Exception as exc:
        # Reporting-only state: the binary itself is returned untouched,
        # but say *why* the summary counts will be incomplete instead of
        # swallowing the failure.
        context.diagnostics.warning(
            "passthrough",
            f"could not rebuild reporting state from the input binary "
            f"({type(exc).__name__}: {exc}); summary counts will be "
            f"incomplete")
    context.profile = profile
    context.function_order = None
    result = RewriteResult(binary, context, {}, None, None)
    result.degraded = "passthrough"
    result.hot_text_size = binary.text_size()
    for component, message in carried:
        result.diagnostics.error(component, message)
    if why:
        result.diagnostics.warning("validate", why)
    return result


# ---------------------------------------------------------------------------


def _rewrite(context, result):
    binary = context.binary
    options = context.options
    relocs_mode = context.use_relocations
    kept = context.kept_functions()
    # Lite mode in relocations mode: the input's .text stays put as
    # TEXT_ORG and processed code moves to a new .text.
    moves_text = relocs_mode and bool(kept)

    # 1. Emit fragments.
    frag_lists = {}
    for name, func in context.functions.items():
        if func.is_folded or func.is_kept:
            continue
        frag_lists[name] = emit_function(func, options)

    # In-place mode: revert functions whose optimized hot part outgrew
    # the original extent (paper 3.1).
    if not relocs_mode:
        for name, frags in list(frag_lists.items()):
            func = frags[0].func
            if frags[0].raw:
                continue
            if frags[0].size > func.size:
                frag_lists[name] = [_emit_raw(func)]
                func.frame_record = (
                    binary.frame_records[name].copy()
                    if name in binary.frame_records else None)
                result.reverted.append(name)

    fragments = {}
    for frags in frag_lists.values():
        for frag in frags:
            fragments[frag.name] = frag

    # 2. Place fragments.
    old_text = binary.get_section(".text")
    if relocs_mode:
        hot_addr_end = _place_relocations_mode(context, binary, frag_lists,
                                               fresh=moves_text)
    else:
        hot_addr_end = _place_in_place_mode(binary, frag_lists)
    cold_base = _next_free_address(binary, extra_end=hot_addr_end)
    offset = 0
    for frag in fragments.values():
        if frag.is_cold:
            offset = align_up(offset, FUNCTION_ALIGN)
            frag.address = cold_base + offset
            offset += frag.size
    cold_size = offset

    # 3. Build output sections.
    out = Binary(kind="exec", name=binary.name)
    hot_lo = min((f.address for f in fragments.values() if not f.is_cold),
                 default=old_text.addr)
    hot_hi = max((f.address + f.size for f in fragments.values()
                  if not f.is_cold), default=old_text.addr)
    if not relocs_mode:
        hot_lo, hot_hi = old_text.addr, old_text.end

    text = Section(".text", flags=SectionFlag.ALLOC | SectionFlag.EXEC,
                   addr=hot_lo, align=PAGE_SIZE)
    if relocs_mode:
        text.data = bytearray(b"\x01" * (hot_hi - hot_lo))
    else:
        text.data = bytearray(old_text.data)
    out.add_section(text)

    for section in binary.sections.values():
        name = section.name
        if name == ".text":
            if not moves_text:
                continue
            name = TEXT_ORG
        clone = Section(name, type=section.type, flags=section.flags,
                        addr=section.addr, data=bytes(section.data),
                        align=section.align,
                        mem_size=section.size if not section.data else None)
        out.add_section(clone)

    cold = None
    if cold_size:
        if TEXT_COLD in out.sections:
            # A BOLTed input: its cold fragments already own the name.
            split = sorted(f.func.name for f in fragments.values()
                           if f.is_cold)
            raise InputConflict(
                f"input already has a {TEXT_COLD} section (an earlier BOLT "
                f"run's cold code); cannot emit new cold fragments for "
                f"{len(split)} function(s): {', '.join(split[:3])}"
                f"{', ...' if len(split) > 3 else ''}")
        cold = Section(TEXT_COLD, flags=SectionFlag.ALLOC | SectionFlag.EXEC,
                       addr=cold_base, data=b"\x01" * cold_size,
                       align=PAGE_SIZE)
        out.add_section(cold)

    def section_for(frag):
        if frag.is_cold:
            return cold
        # In place, a function is rewritten inside its own section.
        return text if relocs_mode else out.get_section(frag.func.section)

    # 4. Write fragment bytes (padding freed space with NOPs in place).
    for frag in fragments.values():
        section = section_for(frag)
        frag._out_section = section
        off = frag.address - section.addr
        section.data[off : off + frag.size] = frag.image.code
        if not relocs_mode and not frag.is_cold and not frag.raw:
            slack = frag.func.size - frag.size
            if slack > 0:
                section.data[off + frag.size : off + frag.func.size] = (
                    b"\x01" * slack)

    # 5. Resolve relocations in emitted code.
    resolver = SymbolResolver(context, fragments)
    for frag in fragments.values():
        section = section_for(frag)
        base = frag.address - section.addr
        for offset, rtype, symbol, addend in frag.image.relocations:
            if isinstance(addend, tuple) and addend and addend[0] == "label":
                addend = fragments[symbol].image.labels[addend[1]]
            target = resolver.address(symbol)
            if target is None:
                raise RewriteError(
                    f"unresolved symbol {symbol!r} during rewrite")
            apply_relocation(section.data, base + offset, rtype,
                             target + addend, frag.address + offset)

    # 6. Patch discovered jump tables of simple functions.  With
    #    -jump-tables=move, hot functions' tables are relocated together
    #    into a fresh read-only section so the hot D-TLB/D-cache
    #    footprint shrinks (paper section 6.1: "reordering jump tables
    #    for locality").
    table_slots = set()
    moved_tables = []
    if options.jump_tables == "move":
        for name, func in context.functions.items():
            if (func.is_simple and not func.is_folded and func.jump_tables
                    and func.exec_count >= options.hot_threshold):
                moved_tables.extend(
                    (func, table) for table in func.jump_tables)
    hot_ro = None
    if moved_tables:
        # Re-BOLTing a binary that already has a hot-tables section:
        # pick a fresh name (the stale one keeps its mapping).
        ro_name = ".rodata.hot"
        suffix = 0
        while ro_name in out.sections:
            suffix += 1
            ro_name = f".rodata.hot.{suffix}"
        hot_ro = Section(ro_name, flags=SectionFlag.ALLOC, align=8,
                         addr=_next_free_address(
                             binary, extra_end=(cold.end if cold else hot_addr_end)))
        out.add_section(hot_ro)
        for func, table in moved_tables:
            new_addr = hot_ro.addr + len(hot_ro.data)
            hot_ro.data += b"\x00" * table.size
            _retarget_table_base(fragments, func, table, new_addr)
            table.moved_to = new_addr

    for name, func in context.functions.items():
        if not func.is_simple or func.is_folded:
            continue
        for table in func.jump_tables:
            original_section = context.binary.get_section(table.section)
            for i in range(table.size // 8):
                table_slots.add((table.section,
                                 table.address + 8 * i - original_section.addr))
            new_base = getattr(table, "moved_to", None)
            if new_base is not None:
                section, base = hot_ro, new_base
            else:
                section, base = out.get_section(table.section), table.address
            for i, label in enumerate(table.entries):
                apply_relocation(section.data, base + 8 * i - section.addr,
                                 RelocType.ABS64,
                                 _label_address(fragments, func, label),
                                 base + 8 * i)

    # 7. Apply retained input relocations against moved code (reloc mode).
    if relocs_mode:
        for reloc in binary.relocations:
            in_section = binary.get_section(reloc.section)
            if in_section is None or in_section.is_exec:
                continue
            if (reloc.section, reloc.offset) in table_slots:
                continue
            target = resolver.address(reloc.symbol)
            if target is None:
                continue
            out_section = out.get_section(reloc.section)
            apply_relocation(out_section.data, reloc.offset, reloc.type,
                             target + reloc.addend,
                             out_section.addr + reloc.offset)
    if moves_text:
        _patch_kept_bodies(context, out, fragments)

    # 8. Symbols (with moved jump tables re-pointed at .rodata.hot).
    _emit_symbols(context, out, fragments, moves_text)
    if moved_tables:
        relocated = {func_table[1].address: func_table[1].moved_to
                     for func_table in moved_tables}
        for sym in out.symbols:
            if (sym.type == SymbolType.OBJECT
                    and sym.value in relocated):
                sym.value = relocated[sym.value]
                sym.section = hot_ro.name
        out.invalidate_symbol_cache()

    # 9. Frame records.
    _emit_frame_records(context, out, fragments)

    # 10. Line table.
    _emit_line_table(context, out, fragments)

    # 11. Entry point.
    entry_sym = binary.function_at(binary.entry)
    if entry_sym is None:
        raise RewriteError("entry point not inside any function")
    entry_func = context.functions[entry_sym.link_name()].survivor()
    out.entry = (binary.entry if entry_func.is_kept
                 else fragments[entry_func.name].address)

    result.hot_text_size = sum(
        f.size for f in fragments.values() if not f.is_cold)
    result.cold_text_size = cold_size
    result.kept_count = len(kept)
    result.kept_text_size = sum(f.size for f in kept)
    result.fragments = fragments
    return out


def _next_free_address(binary, extra_end=0):
    end = extra_end
    for section in binary.sections.values():
        if section.is_alloc:
            end = max(end, section.end)
    return align_up(end, PAGE_SIZE)


def _place_relocations_mode(context, binary, frag_lists, fresh=False):
    """Sequential placement in (HFSort) order; returns the end address.

    Placement starts at the input's ``.text`` unless the hot code does
    not fit there or ``fresh`` asks for new space past every allocated
    section (lite mode, whose kept bodies still occupy ``.text``)."""
    old_text = binary.get_section(".text")
    order = context.function_order
    names = [n for n in frag_lists]
    if order:
        rank = {name: i for i, name in enumerate(order)}
        names.sort(key=lambda n: rank.get(n, len(rank)))
    hot_total = sum(
        align_up(f.size, FUNCTION_ALIGN)
        for frags in frag_lists.values() for f in frags if not f.is_cold)
    plt = binary.get_section(".plt")
    capacity = (plt.addr if plt is not None else 1 << 62) - old_text.addr
    if hot_total <= capacity and not fresh:
        base = old_text.addr
    else:
        base = _next_free_address(binary)
    pinned = [f for frags in frag_lists.values() for f in frags
              if f.raw and not f.func.blocks]
    if pinned:
        raise RewriteError(
            f"cannot relocate undecodable function {pinned[0].name!r}; "
            "use in-place mode")
    offset = 0
    for name in names:
        for frag in frag_lists[name]:
            if frag.is_cold:
                continue
            offset = align_up(offset, FUNCTION_ALIGN)
            frag.address = base + offset
            offset += frag.size
    return base + offset


def _place_in_place_mode(binary, frag_lists):
    end = binary.get_section(".text").end
    for frags in frag_lists.values():
        for frag in frags:
            if not frag.is_cold:
                frag.address = frag.func.address
    return end


def _retarget_table_base(fragments, func, table, new_addr):
    """Patch the dispatch sequence's base materialization (MOV_RI32 with
    the table's old address) to the relocated table, in every fragment
    of the owning function — directly in the emitted bytes."""
    from repro.isa import Op

    for frag_name in (func.name, func.name + COLD_SUFFIX):
        frag = fragments.get(frag_name)
        if frag is None or frag.raw:
            continue
        section = frag._out_section
        base = frag.address - section.addr
        for offset, insn in frag.image.insn_offsets:
            if insn.op == Op.MOV_RI32 and insn.imm == table.address \
                    and insn.sym is None:
                slot = base + offset + 2
                apply_relocation(section.data, slot, RelocType.ABS32,
                                 new_addr, section.addr + slot)


def _label_address(fragments, func, label):
    hot = fragments.get(func.name)
    cold = fragments.get(func.name + COLD_SUFFIX)
    for frag in (hot, cold):
        if frag is not None and label in frag.image.labels:
            return frag.address + frag.image.labels[label]
    raise RewriteError(f"label {label} of {func.name} not emitted")


def _patch_kept_bodies(context, out, fragments):
    """Point the kept bodies' references at the code that moved.

    The input's retained ``.text`` relocations inside a kept body are
    applied again, against the output addresses, when they name a
    processed function; a call the linker routed through a PLT stub
    then calls the function directly, as the ``plt`` pass makes
    processed code do.  Everything else a kept body references (data,
    builtins, other kept code) did not move.  A processed function's
    old body is left intact.
    """
    text = context.binary.get_section(".text")
    org = out.get_section(TEXT_ORG)
    moved = {name: fragments[func.survivor().name].address
             for name, func in context.functions.items()
             if not func.is_kept}
    spans = sorted((f.address, f.address + f.size)
                   for f in context.kept_functions())
    starts = [lo for lo, _ in spans]
    for reloc in context.binary.relocations:
        target = moved.get(reloc.symbol)
        if target is None or reloc.section != ".text":
            continue
        place = text.addr + reloc.offset
        index = bisect.bisect_right(starts, place) - 1
        if index < 0 or place >= spans[index][1]:
            continue
        apply_relocation(org.data, reloc.offset, reloc.type,
                         target + reloc.addend, place)


def _emit_symbols(context, out, fragments, moves_text):
    for sym in context.binary.symbols:
        func = (context.functions.get(sym.link_name())
                if sym.type == SymbolType.FUNC else None)
        if func is None or func.is_kept:
            section = (TEXT_ORG if moves_text and sym.section == ".text"
                       else sym.section)
            out.add_symbol(Symbol(sym.name, value=sym.value, size=sym.size,
                                  type=sym.type, bind=sym.bind,
                                  section=section, module=sym.module))
            continue
        frag = fragments[func.survivor().name]
        out.add_symbol(Symbol(sym.name, value=frag.address, size=frag.size,
                              type=SymbolType.FUNC, bind=sym.bind,
                              section=".text", module=sym.module))
    for frag in fragments.values():
        if frag.is_cold:
            out.add_symbol(Symbol(frag.name, value=frag.address,
                                  size=frag.size, type=SymbolType.FUNC,
                                  bind=SymbolBind.LOCAL,
                                  section=TEXT_COLD))


def _emit_frame_records(context, out, fragments):
    aliases = []
    for name, func in context.functions.items():
        if func.is_folded:
            aliases.append((name, func.survivor().name))
            continue
        if func.frame_record is None:
            continue
        record = func.frame_record
        if not func.is_simple or func.is_kept:
            out.frame_records[name] = record.copy()
            continue
        for frag_name in (name, name + COLD_SUFFIX):
            frag = fragments.get(frag_name)
            if frag is None:
                continue
            callsites = [
                CallSiteRecord(cs.start, cs.end, cs.landing_pad, cs.action)
                for cs in frag.image.callsites
            ]
            for start, end, other_name, lp_label in getattr(
                    frag, "extern_callsites", ()):
                other = fragments[other_name]
                lp_addr = other.address + other.image.labels[lp_label]
                callsites.append(
                    CallSiteRecord(start, end, lp_addr - frag.address))
            # Every fragment needs a record: the unwinder must be able to
            # unwind *through* calls in cold fragments too.
            out.frame_records[frag_name] = FrameRecord(
                frag_name, frame_size=record.frame_size,
                saved_regs=list(record.saved_regs), callsites=callsites)

    # Folded functions: their symbols alias the survivor's code, and the
    # unwinder may resolve an address to either name.
    for alias, survivor in aliases:
        record = out.frame_records.get(survivor)
        if record is not None:
            clone = record.copy()
            clone.func = alias
            out.frame_records[alias] = clone


def _emit_line_table(context, out, fragments):
    """The output's line table: emitted fragments' rows, the input's
    rows of raw fragments shifted with their body, and kept bodies'
    rows as they were."""
    rows = context.binary.line_table
    if rows is None:
        return
    table = LineTable()
    for frag in fragments.values():
        if frag.raw:
            func = frag.func
            delta = frag.address - func.address
            for entry in rows.between(func.address, func.address + func.size):
                table.add(entry.addr + delta, entry.file, entry.line)
            continue
        for offset, file, line in frag.image.line_rows:
            table.add(frag.address + offset, file, line)
    for func in context.kept_functions():
        for entry in rows.between(func.address, func.address + func.size):
            table.add(entry.addr, entry.file, entry.line)
    out.line_table = table
