"""CFG invariant checking and the post-rewrite validation gate.

Two layers:

* :func:`validate_function` / :func:`validate_context` check the
  in-memory IR between optimization passes (gated by
  ``BoltOptions.verify_cfg``), so a pass that corrupts the CFG fails
  fast with a precise message instead of producing a subtly-wrong
  binary.
* :func:`validate_rewrite` is a pipeline stage: it re-disassembles the
  *emitted* binary, rebuilds CFGs from the output bytes, and checks
  that everything the rewrite promised actually holds — before the
  binary is handed back.  :func:`validate_execution` optionally runs a
  smoke workload on the rewritten binary and compares program output
  against the input binary (execution equivalence).

On gate failure the driver walks a graceful-degradation ladder
(relocations mode -> in-place mode -> original binary) rather than
shipping a corrupt executable.
"""

from repro.isa import Op


class ValidationError(Exception):
    """A structural invariant does not hold.

    A real runtime error (not an assert): validation failures are
    expected, contained events in tolerant mode.
    """


def validate_function(func):
    """Check structural invariants of one simple function."""
    if not func.is_simple:
        return
    problems = []
    labels = set(func.blocks)

    if func.entry_label not in labels:
        problems.append(f"entry block {func.entry_label} missing")

    for label, block in func.blocks.items():
        if block.label != label:
            problems.append(f"{label}: key/label mismatch ({block.label})")
        for succ in block.successors:
            if succ not in labels:
                problems.append(f"{label}: successor {succ} does not exist")
        for lp in block.landing_pads:
            if lp not in labels:
                problems.append(f"{label}: landing pad {lp} does not exist")
            elif not func.blocks[lp].is_landing_pad:
                problems.append(f"{label}: {lp} is not a landing-pad block")
        if (block.fallthrough_label is not None
                and block.fallthrough_label not in block.successors):
            problems.append(
                f"{label}: fall-through {block.fallthrough_label} "
                f"not among successors {block.successors}")
        for succ, count in block.edge_counts.items():
            if succ not in block.successors:
                problems.append(
                    f"{label}: edge count for non-successor {succ}")
            if count < 0:
                problems.append(
                    f"{label}: negative edge count {count} -> {succ}")

        for index, insn in enumerate(block.insns):
            last = index == len(block.insns) - 1
            if insn.is_branch and insn.label is not None:
                if insn.label not in labels:
                    problems.append(
                        f"{label}: branch to unknown label {insn.label}")
                elif insn.label not in block.successors:
                    problems.append(
                        f"{label}: branch target {insn.label} missing from "
                        f"successors")
            if insn.label is not None and insn.sym is not None:
                problems.append(f"{label}: insn has both label and sym")
            if not last and insn.is_terminator:
                # Terminators may only appear at block end.
                problems.append(
                    f"{label}: terminator {insn.mnemonic()} mid-block "
                    f"(index {index})")
            lp = insn.get_annotation("lp")
            if lp is not None and lp not in block.landing_pads:
                problems.append(
                    f"{label}: call's landing pad {lp} not registered on "
                    f"the block")

        term = block.terminator()
        if term is not None and term.is_terminator and not term.is_return \
                and term.op not in (Op.HALT, Op.TRAP):
            if (term.op in (Op.JMP_SHORT, Op.JMP_NEAR)
                    and term.label is None and term.sym is None):
                problems.append(f"{label}: jump with no target")

    # Landing-pad blocks must be reachable: an unwind target nothing
    # can unwind to is dead weight at best and a splitting bug at worst.
    # Only checked once the graph is structurally sound (every edge
    # resolves), so the traversal cannot trip over a bogus successor.
    if not problems and func.entry_label in labels:
        from repro.core.dataflow import reachable_from

        reachable = reachable_from(func, func.entry_label)
        for label, block in func.blocks.items():
            if block.is_landing_pad and label not in reachable:
                problems.append(
                    f"{label}: landing-pad block unreachable (no call "
                    f"site registers it and no edge reaches it)")

    if problems:
        raise ValidationError(
            f"{func.name}: " + "; ".join(problems[:10]))


def validate_context(context):
    """Validate every simple function in a BinaryContext."""
    for func in context.simple_functions():
        validate_function(func)


# ---------------------------------------------------------------------------
# Post-rewrite validation gate
# ---------------------------------------------------------------------------


def validate_rewrite(context, out):
    """Structural checks on an emitted binary; returns problem strings.

    Re-disassembles the output and rebuilds CFGs from the actual bytes
    the rewrite produced.  Only properties that held for the *input*
    are demanded of the output (a function that was undecodable going
    in is allowed to stay undecodable coming out).
    """
    from repro.belf import SymbolType
    from repro.isa import decode_stream

    problems = []

    # 1. Entry point must land inside executable bytes.
    entry_section = out.section_at(out.entry) if out.entry else None
    if entry_section is None or not entry_section.is_exec:
        problems.append(f"entry point {out.entry:#x} not in executable "
                        f"section")

    # 2. Every function symbol must map into a section that covers it —
    #    unless it was already broken in the *input* (a corrupt input's
    #    damage is contained, not repaired).
    intact_in = set()
    for sym in context.binary.symbols:
        if sym.type != SymbolType.FUNC or sym.size == 0:
            continue
        section = context.binary.section_at(sym.value)
        if (section is not None and section.is_exec
                and sym.value + sym.size <= section.end):
            intact_in.add(sym.link_name())
    for sym in out.symbols:
        if sym.type != SymbolType.FUNC or sym.size == 0:
            continue
        name = sym.link_name()
        base = name[:-len(".cold.0")] if name.endswith(".cold.0") else name
        if base not in intact_in:
            continue
        section = out.get_section(sym.section) if sym.section else None
        if section is None:
            problems.append(f"{name}: symbol section "
                            f"{sym.section!r} missing from output")
            continue
        if not (section.contains(sym.value)
                and sym.value + sym.size <= section.end):
            problems.append(
                f"{name}: [{sym.value:#x}, "
                f"{sym.value + sym.size:#x}) outside section {section.name}")

    # 3. Functions that decoded in the input must decode in the output.
    decodable_in = {
        name for name, func in context.functions.items()
        if func.blocks and not (func.simple_violation or "").startswith(
            "decode-error")
    }
    for sym in out.symbols:
        if sym.type != SymbolType.FUNC or sym.size == 0:
            continue
        name = sym.link_name()
        base = name[:-len(".cold.0")] if name.endswith(".cold.0") else name
        if base not in decodable_in:
            continue
        section = out.get_section(sym.section) if sym.section else None
        if section is None or not section.contains(sym.value):
            continue  # already reported above
        start = sym.value - section.addr
        try:
            decode_stream(section.data, start, start + sym.size,
                          base_address=sym.value)
        except Exception as exc:
            problems.append(f"{name}: emitted code undecodable: {exc}")

    # 4. Rebuild CFGs from the output bytes and re-check IR invariants
    #    on everything that reconstructs as simple.
    if not problems:
        problems.extend(_revalidate_cfgs(context, out))
    return problems


def _revalidate_cfgs(context, out):
    from repro.core.binary_context import BinaryContext
    from repro.core.cfg_builder import build_all_functions
    from repro.core.discovery import discover_functions

    problems = []
    try:
        check = BinaryContext(out, context.options.copy(
            verify_cfg=False, validate_output="none", strict=False))
        discover_functions(check)
        build_all_functions(check)
    except Exception as exc:
        return [f"output CFG reconstruction failed: "
                f"{type(exc).__name__}: {exc}"]
    for func in check.simple_functions():
        try:
            validate_function(func)
        except ValidationError as exc:
            problems.append(f"output CFG invalid: {exc}")
    return problems


def validate_execution(reference, candidate, inputs=None,
                       max_instructions=5_000_000, diagnostics=None):
    """Execution equivalence on a smoke workload; returns problems.

    Runs both binaries on the uarch simulator with the same inputs and
    compares the program output stream and exit code.  The reference
    run's failures are *not* the rewrite's fault: if the input binary
    itself faults or exceeds the budget, equivalence is vacuously
    accepted for that failure mode — but the skip is recorded on
    ``diagnostics`` (when given) rather than silently swallowed.
    """
    from repro.uarch import run_binary

    try:
        ref = run_binary(reference, inputs=inputs,
                         max_instructions=max_instructions)
    except Exception as exc:
        # The input itself does not survive the smoke run, so there is
        # nothing to compare the candidate against.
        if diagnostics is not None:
            diagnostics.warning(
                "validate",
                f"execution gate skipped: reference binary failed the "
                f"smoke run ({type(exc).__name__}: {exc}); equivalence "
                f"vacuously accepted")
        return []
    try:
        cand = run_binary(candidate, inputs=inputs,
                          max_instructions=max_instructions)
    except Exception as exc:
        return [f"smoke run failed on rewritten binary: "
                f"{type(exc).__name__}: {exc}"]
    problems = []
    if cand.output != ref.output:
        problems.append(
            f"smoke output diverged: {len(ref.output)} values expected, "
            f"got {len(cand.output)}"
            + ("" if len(ref.output) != len(cand.output)
               else " (same length, different values)"))
    if cand.exit_code != ref.exit_code:
        problems.append(f"smoke exit code diverged: expected "
                        f"{ref.exit_code}, got {cand.exit_code}")
    return problems
