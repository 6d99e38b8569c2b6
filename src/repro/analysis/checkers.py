"""IR-level lint checkers: abstract interpretation over one function.

Each checker proves a per-path invariant over the reconstructed CFG
with a deliberately *flat* abstract domain, so it only reports
violations that hold on every abstract execution reaching the faulty
point — ``TOP`` (unknown/conflicting) never fires a finding.  That
makes the checkers safe to run as a default-on post-pass gate: a
correct pipeline produces zero findings, and a pass that breaks an
invariant (dropping a restore, unbalancing the stack, breaking the
layout contract) produces a stable ``BL0xx`` rule hit that the
rewriter contains with PR 1's demote-to-raw machinery.

Checkers consume ``func.analysis_facts`` that passes record about
their own transformations (shrink-wrapping's moved saves, frame-opts'
removed stores, SCTC's conditional tail calls), cross-checking the
facts against what the IR actually contains.
"""

from repro.analysis.absint import (
    BOTTOM,
    TOP,
    AnalysisError,
    BlockResult,
    FlatLattice,
    TupleLattice,
    solve,
)
from repro.analysis.rules import Finding
from repro.core.dataflow import FLAGS, defines
from repro.core.emitter import COLD_SUFFIX
from repro.core.validate import ValidationError, validate_function
from repro.isa import Op, RBP, RSP


def _is_cold_fragment(func):
    """A re-discovered ``.cold.0`` split fragment starts mid-frame, so
    entry-state assumptions (stack height 0, callee-saved registers
    pristine, flags dead) do not hold for it."""
    return func.name.endswith(COLD_SUFFIX)


def check_function(func):
    """Run every IR checker; returns a list of Findings."""
    if not func.is_simple or not func.blocks:
        return []
    findings = []
    for checker in (check_structure, _check_unreachable,
                    _check_fallthrough, _check_jump_tables,
                    _check_stack_height, _check_callee_saved,
                    _check_flags, _check_pass_facts):
        try:
            findings.extend(checker(func))
        except AnalysisError:
            # Conservative: a non-converging analysis proves nothing.
            continue
    return findings


# ---------------------------------------------------------------------------
# Structural checkers (no abstract interpretation needed)
# ---------------------------------------------------------------------------


def check_structure(func):
    """BL007: the validate_function structural invariants."""
    try:
        validate_function(func)
    except ValidationError as exc:
        return [Finding("BL007", str(exc), function=func.name)]
    return []


def _check_unreachable(func):
    """BL004: blocks unreachable from the entry."""
    if func.entry_label not in func.blocks:
        return []
    # Tolerant traversal: a dangling successor is BL007's finding, not
    # a reason to crash this checker.
    reachable = set()
    stack = [func.entry_label]
    while stack:
        label = stack.pop()
        if label in reachable or label not in func.blocks:
            continue
        reachable.add(label)
        node = func.blocks[label]
        stack.extend(node.successors)
        stack.extend(node.landing_pads)
    return [
        Finding("BL004", f"block {label} is unreachable from the entry",
                function=func.name, block=label)
        for label, block in func.blocks.items()
        if label not in reachable
        # Alignment padding between a terminator and the next branch
        # target decodes as an empty / nop-only block; that is layout
        # residue, not dead code.
        and any(not insn.is_nop for insn in block.insns)
    ]


def _check_fallthrough(func):
    """BL005: fall-through edges must be physically honored.

    After fixup-branches, any block that does not end in a terminator
    must be immediately followed (in layout order, within the same
    hot/cold region) by its fall-through successor; the final block of
    each region must end in a true terminator.
    """
    findings = []
    layout = func.layout()
    for index, block in enumerate(layout):
        last = block.insns[-1] if block.insns else None
        if last is not None and last.is_terminator:
            continue
        nxt = layout[index + 1] if index + 1 < len(layout) else None
        if nxt is not None and nxt.is_cold != block.is_cold:
            nxt = None  # region boundary: nothing to fall into
        ft = block.fallthrough_label
        if ft is None:
            findings.append(Finding(
                "BL005",
                f"block {block.label} ends in "
                f"{last.mnemonic() if last else '<empty>'} without a "
                f"fall-through successor: control runs off the end",
                function=func.name, block=block.label))
        elif nxt is None or nxt.label != ft:
            where = nxt.label if nxt is not None else "end of region"
            findings.append(Finding(
                "BL005",
                f"block {block.label} falls through to {ft} but is "
                f"followed by {where}",
                function=func.name, block=block.label))
    return findings


def _check_jump_tables(func):
    """BL006: every jump-table entry lands on a real block head."""
    findings = []
    labels = set(func.blocks)
    for block in func.blocks.values():
        for insn in block.insns:
            if insn.op != Op.JMP_REG:
                continue
            table = insn.get_annotation("jump-table")
            if table is None:
                continue
            bad = [e for e in table.entries if e not in labels]
            if bad:
                findings.append(Finding(
                    "BL006",
                    f"jump table at {table.address:#x}: entries "
                    f"{bad} are not block heads",
                    function=func.name, block=block.label))
                continue
            if set(block.successors) != set(table.entries):
                findings.append(Finding(
                    "BL006",
                    f"jump table at {table.address:#x}: CFG successors "
                    f"{sorted(set(block.successors))} disagree with "
                    f"table entries {sorted(set(table.entries))}",
                    function=func.name, block=block.label))
            if table.size != 8 * len(table.entries):
                findings.append(Finding(
                    "BL006",
                    f"jump table at {table.address:#x}: size "
                    f"{table.size} does not cover {len(table.entries)} "
                    f"entries",
                    function=func.name, block=block.label))
    return findings


def _check_pass_facts(func):
    """Cross-check facts passes recorded against what the IR contains.

    frame-opts' removed-store fact is checked against the callee-saved
    save slots (a removed save slot would strand the unwinder); SCTC's
    conditional-tail-call fact must still be visible as a symbolic
    conditional branch in the named block.
    """
    findings = []
    facts = func.analysis_facts

    removed = facts.get("frame-opts-removed", ())
    if removed and func.frame_record is not None:
        protected = {-offset for _, offset in func.frame_record.saved_regs}
        bad = sorted(set(removed) & protected)
        if bad:
            findings.append(Finding(
                "BL002",
                f"frame-opts removed store(s) to callee-saved save "
                f"slot(s) {bad} that the frame record still declares",
                function=func.name))

    for label in facts.get("sctc", ()):
        block = func.blocks.get(label)
        if block is None:
            continue  # the block itself was legitimately merged away
        present = any(insn.is_cond_branch and insn.sym is not None
                      for insn in block.insns)
        if not present:
            findings.append(Finding(
                "BL007",
                f"SCTC recorded a conditional tail call in {label}, "
                f"but no symbolic conditional branch is there",
                function=func.name, block=label))
    return findings


# ---------------------------------------------------------------------------
# Stack-height consistency (BL001)
# ---------------------------------------------------------------------------


def _is_cold_transfer(name):
    """A branch to a split-function cold fragment (or back to its hot
    parent) is a layout-level transfer inside one logical function, not
    a tail call: the frame is intentionally live across it."""
    return isinstance(name, str) and name.endswith(COLD_SUFFIX)


def _is_tail_call(insn):
    ann = insn.get_annotation("tailcall", "!")
    if ann != "!":
        return not _is_cold_transfer(ann)
    if insn.is_branch and insn.sym is not None:
        return not _is_cold_transfer(getattr(insn.sym, "name", insn.sym))
    return False


def _stack_step(insn, state, sink=None, func=None, block=None):
    """Abstractly execute one instruction over (height, saved rbp height).

    ``height`` is bytes pushed since function entry (concrete int or
    TOP); ``rbp_height`` is the height captured by ``mov rbp, rsp``.
    When ``sink`` is given, definite violations are appended to it.
    """
    h, rbp_h = state
    op = insn.op

    def report(message):
        if sink is not None:
            sink.append(Finding("BL001", message, function=func.name,
                                block=block.label,
                                address=insn.address))

    if insn.is_return or _is_tail_call(insn):
        if isinstance(h, int) and h != 0:
            kind = "returns" if insn.is_return else "tail-calls"
            report(f"{kind} with {h} byte(s) left on the stack "
                   f"(unbalanced push/pop or missing epilogue)")
        return h, rbp_h

    if op == Op.PUSH:
        return (h + 8 if isinstance(h, int) else h), rbp_h
    if op == Op.POP:
        if isinstance(h, int):
            h -= 8
            if h < 0:
                report("pops below the incoming stack pointer")
                h = TOP
        if insn.regs and insn.regs[0] == RBP:
            rbp_h = TOP
        elif insn.regs and insn.regs[0] == RSP:
            h = TOP
        return h, rbp_h
    if op == Op.SUB_RI and insn.regs and insn.regs[0] == RSP:
        return (h + insn.imm if isinstance(h, int) else h), rbp_h
    if op == Op.ADD_RI and insn.regs and insn.regs[0] == RSP:
        if isinstance(h, int):
            h -= insn.imm
            if h < 0:
                report("releases more stack than was allocated")
                h = TOP
        return h, rbp_h
    if op == Op.MOV_RR and insn.regs == (RSP, RBP):
        return rbp_h, rbp_h                     # mov rsp, rbp (epilogue)
    if op == Op.MOV_RR and insn.regs == (RBP, RSP):
        return h, h                             # mov rbp, rsp (prologue)
    if insn.is_call:
        return h, rbp_h                         # balanced by convention

    if defines(insn, RSP):
        h = TOP
    if defines(insn, RBP):
        rbp_h = TOP
    return h, rbp_h


def _check_stack_height(func):
    lattice = TupleLattice(FlatLattice(), FlatLattice())

    def transfer(block, state):
        edge_states = {}
        for insn in block.insns:
            if insn.is_call and block.landing_pads:
                lp = insn.get_annotation("lp")
                targets = [lp] if lp is not None else block.landing_pads
                # Unwinding resumes with the frame as it was at the call.
                for target in targets:
                    prev = edge_states.get(target, lattice.bottom())
                    edge_states[target] = lattice.join(prev, state)
            state = _stack_step(insn, state)
        return BlockResult(state, edge_states)

    # A cold fragment is entered mid-frame: its height is unknown.
    entry_height = TOP if _is_cold_fragment(func) else 0
    in_states, _ = solve(func, lattice, transfer,
                         boundary=(entry_height, TOP))

    findings = []
    bottom = lattice.bottom()
    for label, block in func.blocks.items():
        state = in_states.get(label, bottom)
        if state == bottom:
            continue  # unreachable: BL004's business
        for insn in block.insns:
            state = _stack_step(insn, state, sink=findings, func=func,
                                block=block)
    return findings


# ---------------------------------------------------------------------------
# Callee-saved preservation (BL002)
# ---------------------------------------------------------------------------

_ORIG, _DIRTY = "orig", "dirty"
_EMPTY, _SAVED = "empty", "saved"


def _saved_reg_step(insn, state, reg, offset):
    """(register state, save-slot state) across one instruction."""
    r, s = state
    op = insn.op
    if op == Op.STORE and insn.regs == (RBP, reg) and insn.disp == -offset:
        return r, (_SAVED if r == _ORIG else TOP)
    if op == Op.LOAD and insn.regs == (reg, RBP) and insn.disp == -offset:
        return (_ORIG if s == _SAVED else TOP), s
    if op == Op.STORE and insn.regs[0] == RBP and insn.disp == -offset:
        return r, TOP                       # another register overwrote it
    if op in (Op.STORE, Op.STOREIDX, Op.STORE_ABS) \
            and not (op == Op.STORE and insn.regs[0] == RBP):
        return r, TOP                       # untracked memory write
    if defines(insn, reg):
        return _DIRTY, s
    return r, s


def _check_callee_saved(func):
    from repro.core.dataflow import stack_slot_accesses

    record = func.frame_record
    if record is None or not record.saved_regs:
        return []
    if _is_cold_fragment(func):
        # Saves happen in the hot parent; no entry invariant holds here.
        return []
    _, _, escapes = stack_slot_accesses(func)
    if escapes:
        return []  # rbp escapes: slot tracking would be unsound

    findings = []
    facts = func.analysis_facts.get("shrink-wrap", {})
    from repro.isa.registers import reg_name

    for reg, offset in record.saved_regs:
        # Cross-check the shrink-wrapping fact: if the pass claims the
        # save moved into a block, the store must actually be there.
        moved_to = facts.get(reg)
        if moved_to is not None:
            home = func.blocks.get(moved_to)
            present = home is not None and any(
                insn.op == Op.STORE and insn.regs == (RBP, reg)
                and insn.disp == -offset for insn in home.insns)
            if not present:
                findings.append(Finding(
                    "BL002",
                    f"shrink-wrapping recorded %{reg_name(reg)}'s save "
                    f"moved to {moved_to}, but no save store is there",
                    function=func.name, block=moved_to))

        lattice = TupleLattice(FlatLattice(), FlatLattice())

        def transfer(block, state, reg=reg, offset=offset):
            for insn in block.insns:
                state = _saved_reg_step(insn, state, reg, offset)
            return state

        in_states, _ = solve(func, lattice, transfer,
                             boundary=(_ORIG, _EMPTY))
        bottom = lattice.bottom()
        for label, block in func.blocks.items():
            state = in_states.get(label, bottom)
            if state == bottom:
                continue
            for insn in block.insns:
                if (insn.is_return or _is_tail_call(insn)) \
                        and state[0] == _DIRTY:
                    findings.append(Finding(
                        "BL002",
                        f"exits with callee-saved %{reg_name(reg)} "
                        f"clobbered and not restored from its save slot "
                        f"(rbp{-offset:+#x})",
                        function=func.name, block=label,
                        address=insn.address))
                    break
                state = _saved_reg_step(insn, state, reg, offset)
    return findings


# ---------------------------------------------------------------------------
# Flags use-before-def (BL003)
# ---------------------------------------------------------------------------

_FLAG_DEFS = frozenset({Op.CMP_RR, Op.CMP_RI, Op.TEST_RR, Op.TEST_RI})
_FLAG_USES = frozenset({Op.JCC_SHORT, Op.JCC_LONG, Op.SETCC})
_UNDEF, _DEF = "undef", "def"


def _flags_step(insn, state):
    if insn.op in _FLAG_DEFS:
        return _DEF
    if insn.is_call:
        return _UNDEF  # calls clobber flags (ABI)
    if defines(insn, FLAGS):
        return _DEF
    return state


def _check_flags(func):
    lattice = FlatLattice()

    def transfer(block, state):
        edge_states = {}
        for insn in block.insns:
            state = _flags_step(insn, state)
            if insn.is_call and block.landing_pads:
                lp = insn.get_annotation("lp")
                for target in ([lp] if lp is not None
                               else block.landing_pads):
                    prev = edge_states.get(target, BOTTOM)
                    edge_states[target] = lattice.join(prev, state)
        return BlockResult(state, edge_states)

    # Flags set in the hot parent may be live on entry to a cold
    # fragment (a conditional branch can target it directly).
    boundary = TOP if _is_cold_fragment(func) else _UNDEF
    in_states, _ = solve(func, lattice, transfer, boundary=boundary)

    findings = []
    for label, block in func.blocks.items():
        state = in_states.get(label, BOTTOM)
        if state is BOTTOM:
            continue
        for insn in block.insns:
            if insn.op in _FLAG_USES and state == _UNDEF:
                findings.append(Finding(
                    "BL003",
                    f"{insn.mnemonic()} consumes flags that no path "
                    f"defines (missing compare, or clobbered by a call)",
                    function=func.name, block=label,
                    address=insn.address))
                break  # one report per block is plenty
            state = _flags_step(insn, state)
    return findings
