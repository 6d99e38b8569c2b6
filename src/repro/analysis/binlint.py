"""Whole-binary lint: metadata/decode checks plus the IR checkers.

Three tiers, cheapest first:

1. **Metadata** (``BL101``/``BL103``/``BL104``/``BL106``): the entry
   point, every FUNC symbol's bounds, overlaps, and relocation targets
   are validated against the section map and symbol table alone.
2. **Decode** (``BL102``/``BL105``): each function body is decoded
   instruction by instruction; undecodable bytes and symbol sizes that
   cut an instruction (or leave the body without a terminator) are
   distinguished — the classic wrong-``.size``-directive headache of
   the paper's section 3.3 maps to a different rule than a packed or
   data-in-text body.
3. **IR checkers**: CFGs are reconstructed and every function that
   builds as *simple* runs the :mod:`repro.analysis.checkers` suite.

``lint_binary`` is pure (never mutates its input) and backs the
``lint`` CLI subcommand.  :func:`gate_problems` is the rewriter's whole
validation gate (``--validate``): it runs these same tiers on the
emitted binary, reconstructing the output's CFGs once per attempt.
Each body is decoded once: the instruction lists tier 2 decodes are
handed to tier 3's reconstruction, which still builds every CFG from
those bytes.
"""

from bisect import bisect_right
from itertools import accumulate

from repro.analysis.checkers import check_function, check_structure
from repro.analysis.rules import Finding, LintReport, parse_suppressions
from repro.analysis.validation import validate_translation
from repro.belf import SymbolType
from repro.core.emitter import COLD_SUFFIX
from repro.core.validate import validate_execution
from repro.isa.decoding import DecodeError, decode

#: Symbols the rewriter may legitimately reference without defining.
_KNOWN_EXTERNAL = ("__abs__",)


def lint_binary(binary, options=None, suppress=()):
    """Lint one binary; returns a :class:`LintReport`."""
    report = LintReport(suppressions=parse_suppressions(suppress))
    decoded = {}
    _lint_metadata(binary, report, decoded)
    context, failure = _rebuild(binary, options, decoded)
    if failure is not None:
        report.add(failure)
    else:
        for func in context.simple_functions():
            report.extend(check_function(func))
    return report


# ---------------------------------------------------------------------------
# Tier 1+2: metadata and decode checks
# ---------------------------------------------------------------------------


def _func_symbols(binary):
    return sorted((s for s in binary.symbols
                   if s.type == SymbolType.FUNC and s.size > 0),
                  key=lambda s: (s.value, s.size))


def _lint_metadata(binary, report, decoded, kept=()):
    """Tiers 1+2 into ``report``; the bodies of the functions named in
    ``kept`` (a lite-mode rewrite left them as the input had them) get
    the tier-1 checks only.

    Returns the findings that leave the binary structurally broken,
    whether suppressed or not: a bad entry point (BL101), a symbol
    outside its section (BL103), and a body that does not decode to its
    end (BL102, or BL105 for an instruction straddling the symbol's
    end).  A body that decodes but ends without a terminator is lint,
    not breakage.

    Every body that decodes to its end leaves its instruction list in
    ``decoded``, keyed by the symbol's ``(address, size)``.
    """
    broken = []

    def flag(finding):
        broken.append(finding)
        report.add(finding)

    if binary.entry:
        section = binary.section_at(binary.entry)
        if section is None or not section.is_exec:
            flag(Finding(
                "BL101",
                f"entry point {binary.entry:#x} is not in an "
                f"executable section",
                address=binary.entry))

    syms = _func_symbols(binary)

    # Overlaps (exact aliases — ICF folding — are fine).
    for prev, cur in zip(syms, syms[1:]):
        if prev.value == cur.value and prev.size == cur.size:
            continue
        if prev.value + prev.size > cur.value:
            report.add(Finding(
                "BL104",
                f"overlaps {cur.link_name()} "
                f"([{prev.value:#x}, {prev.value + prev.size:#x}) vs "
                f"[{cur.value:#x}, {cur.value + cur.size:#x}))",
                function=prev.link_name(), address=prev.value))

    # Bounds + decode, per function symbol.
    seen_ranges = set()
    for sym in syms:
        name = sym.link_name()
        section = binary.section_at(sym.value)
        if section is None or not section.is_exec:
            flag(Finding(
                "BL103",
                f"starts at {sym.value:#x}, outside every executable "
                f"section (truncated or mislaid section?)",
                function=name, address=sym.value))
            continue
        if sym.value + sym.size > section.end:
            flag(Finding(
                "BL103",
                f"[{sym.value:#x}, {sym.value + sym.size:#x}) runs "
                f"past the end of {section.name} ({section.end:#x})",
                function=name, address=sym.value))
            continue
        span = (sym.value, sym.size)
        if name in kept:
            continue
        if span in seen_ranges:
            continue  # exact alias: lint the bytes once
        seen_ranges.add(span)
        stopped, insns = _lint_body(section, sym, name, report)
        if stopped is not None:
            broken.append(stopped)
        else:
            decoded[span] = insns

    # Dangling relocations.
    known = {s.link_name() for s in binary.symbols}
    known.update(_KNOWN_EXTERNAL)
    try:
        from repro.linker import BUILTINS
        known.update(BUILTINS)
    except ImportError:  # pragma: no cover - linker always present
        pass
    owner = _owner_index(syms)
    for reloc in binary.relocations:
        if reloc.symbol in known:
            continue
        section = binary.get_section(reloc.section)
        report.add(Finding(
            "BL106",
            f"relocation at {reloc.section}+{reloc.offset:#x} names "
            f"undefined symbol {reloc.symbol!r}",
            function=(owner(section.addr + reloc.offset)
                      if section is not None and section.is_exec
                      else None)))
    return broken


def _owner_index(syms):
    """``owner(address)``: the link name of the first of ``syms`` (sorted
    by ``(value, size)``) whose body holds ``address``, or None.

    Two bisections instead of a scan: the first symbol reaching past
    ``address`` in the running maximum of body ends is the first that
    ends past it, and it holds ``address`` if it starts at or before.
    """
    starts = [sym.value for sym in syms]
    reach = list(accumulate((sym.value + sym.size for sym in syms), max))

    def owner(address):
        i = bisect_right(reach, address)
        if i < bisect_right(starts, address):
            return syms[i].link_name()
        return None

    return owner


def _lint_body(section, sym, name, report):
    """Decode one function body; BL102 vs BL105 classification.

    Returns ``(finding, None)`` with the finding that stopped the decode
    short of the symbol's end, or ``(None, instructions)`` when the body
    decodes to its end.
    """
    start = sym.value - section.addr
    end = start + sym.size
    offset = start
    last = None
    insns = []
    while offset < end:
        try:
            insn = decode(section.data, offset,
                          sym.value + (offset - start))
        except DecodeError as exc:
            finding = Finding(
                "BL102", f"body does not decode: {exc}",
                function=name, address=sym.value + (offset - start))
            report.add(finding)
            return finding, None
        if offset + insn.size > end:
            finding = Finding(
                "BL105",
                f"instruction at {insn.address:#x} straddles the "
                f"symbol's end ({sym.value + sym.size:#x}): symbol "
                f"size {sym.size} cuts the body mid-instruction",
                function=name, address=insn.address)
            report.add(finding)
            return finding, None
        if not insn.is_nop:
            last = insn
        insns.append(insn)
        offset += insn.size
    if last is None or not last.is_terminator:
        what = last.mnemonic() if last is not None else "padding"
        report.add(Finding(
            "BL105",
            f"body ends in {what} instead of a terminator: control "
            f"falls off the symbol's end (wrong symbol size?)",
            function=name, address=sym.value + sym.size))
    return None, insns


# ---------------------------------------------------------------------------
# Tier 3: CFG reconstruction + IR checkers
# ---------------------------------------------------------------------------


def _rebuild(binary, options, decoded, kept=()):
    """Reconstruct a binary's CFGs from ``decoded`` bodies (see
    :func:`_lint_metadata`), except those of the functions named in
    ``kept``, which stay kept; returns (context, None), or (None, a
    BL102 finding) when reconstruction itself fails."""
    from repro.core.binary_context import BinaryContext
    from repro.core.cfg_builder import build_all_functions
    from repro.core.discovery import discover_functions
    from repro.core.options import BoltOptions

    opts = (options or BoltOptions()).copy(
        strict=False, validate_output="none", lint="none")
    try:
        context = BinaryContext(binary, opts)
        discover_functions(context)
        build = []
        for name, func in context.functions.items():
            if name in kept:
                func.is_kept = True
            else:
                build.append(func)
        build_all_functions(context, decoded, functions=build)
    except Exception as exc:
        return None, Finding(
            "BL102",
            f"CFG reconstruction failed: {type(exc).__name__}: {exc}")
    return context, None


# ---------------------------------------------------------------------------
# The rewriter's validation gate
# ---------------------------------------------------------------------------


def gate_problems(binary, options, result=None):
    """The rewriter's validation gate (``options.validate_output``).

    Returns problem strings, each naming the rule it breaks.  Without
    ``result`` this is the up-front input check: the ``static`` and
    ``execute`` tiers lint the input itself, so a corrupt input is
    rejected before any rewrite attempt.  With ``result`` it judges the
    emitted ``result.binary``; each tier includes the previous ones:

    * ``structural`` — the output's entry point, symbol bounds and
      decode (BL101/BL103/BL102/BL105) plus BL007 on its reconstructed
      CFGs.  Only what held for the input is demanded of the output: a
      function whose symbol or body was already broken going in is
      contained, not repaired.  The bodies a lite-mode rewrite kept in
      place get the bounds checks only: they are neither decoded nor
      rebuilt.
    * ``static`` — every checker on that same output context, then
      translation validation of each emitted function against its
      optimized IR (BL2xx).
    * ``execute`` — a smoke run comparing program output.
    """
    level = options.validate_output
    if level in (None, "none"):
        return []
    full = level in ("static", "execute")
    if result is None:
        if not full:
            return []
        report = lint_binary(binary, options, options.lint_suppress)
        return _render("input fails static lint", report.errors)

    out = result.binary
    report = LintReport(suppressions=options.lint_suppress)
    intact, decodable = _input_health(result.context)
    kept = {func.name for func in result.context.kept_functions()}
    decoded = {}
    broken = [f for f in _lint_metadata(out, report, decoded, kept)
              if f.function is None or _base_name(f.function) in (
                  intact if f.rule == "BL103" else decodable)]
    if broken:
        return _render("output fails lint", broken)
    context, failure = _rebuild(out, options, decoded, kept)
    if failure is not None:
        return _render("output fails lint", [failure])
    invalid = []
    for func in context.simple_functions():
        findings = check_function(func) if full else check_structure(func)
        invalid += [f for f in findings if f.rule == "BL007"]
        report.extend(findings)
    if invalid or not full:
        return _render("output fails lint", invalid)

    problems = _render("output fails lint", report.errors)
    problems += _render("translation validation", validate_translation(
        result.context, out, result.fragments, skip=set(result.reverted)))
    if not problems and level == "execute":
        problems = validate_execution(
            binary, out, inputs=options.validate_inputs,
            diagnostics=result.context.diagnostics)
    return problems


def _input_health(context):
    """(intact, decodable): the input functions whose symbol fits its
    section, and those whose body decoded when the rewrite built them."""
    binary = context.binary
    intact = set()
    for sym in _func_symbols(binary):
        section = binary.section_at(sym.value)
        if (section is not None and section.is_exec
                and sym.value + sym.size <= section.end):
            intact.add(sym.link_name())
    decodable = {
        name for name, func in context.functions.items()
        if func.blocks and not (func.simple_violation or "").startswith(
            "decode-error")
    }
    return intact, decodable


def _base_name(name):
    """The function a (possibly split-off cold) fragment belongs to."""
    return name[:-len(COLD_SUFFIX)] if name.endswith(COLD_SUFFIX) else name


def _render(prefix, findings):
    return [f"{prefix}: {f.rule}"
            + (f" [{f.function}]" if f.function else "")
            + f": {f.message}" for f in findings]


# ---------------------------------------------------------------------------
# The rewriter's post-pass lint gate
# ---------------------------------------------------------------------------


def lint_context(context, suppress=()):
    """Run the IR checkers over every simple function in a context.

    Returns {function name: [Findings]} for functions with findings.
    Used by the rewriter's post-pass gate (``BoltOptions.lint``), where
    a function whose invariants a pass broke is demoted to raw rather
    than emitted.
    """
    suppressions = parse_suppressions(suppress)
    by_function = {}
    for func in context.simple_functions():
        report = LintReport(suppressions=suppressions)
        report.extend(check_function(func))
        if len(report):
            by_function[func.name] = list(report)
    return by_function
