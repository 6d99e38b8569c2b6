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
from repro.core.dataflow import (
    _USE_DEF,
    FLAGS,
    def_operands,
    rbp_escapes,
    reachable_from,
)
from repro.core.emitter import COLD_SUFFIX
from repro.core.validate import ValidationError, validate_function
from repro.isa import Op, RBP, RSP
from repro.isa.instruction import BRANCH_OPS, CALL_OPS, RETURN_OPS
from repro.isa.registers import reg_name


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
                    _check_fallthrough, _check_jump_tables):
        findings.extend(checker(func))
    # One walk summarizes what the three dataflow checkers observe.
    summary = _summarize(func)
    for checker in (_check_stack_height, _check_callee_saved,
                    _check_flags):
        try:
            findings.extend(checker(func, summary))
        except AnalysisError:
            # Conservative: a non-converging analysis proves nothing.
            continue
    findings.extend(_check_pass_facts(func))
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
    reachable = reachable_from(func, func.entry_label)
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
            table = insn.jump_table
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
# Effect summaries: one walk feeds BL001, BL002 and BL003
# ---------------------------------------------------------------------------


def _is_cold_transfer(name):
    """A branch to a split-function cold fragment (or back to its hot
    parent) is a layout-level transfer inside one logical function, not
    a tail call: the frame is intentionally live across it."""
    return name.endswith(COLD_SUFFIX)


def _is_tail_call(insn):
    """A direct branch to another function (every ``tailcall``-marked
    instruction is one)."""
    return (insn.is_branch and insn.sym is not None
            and not _is_cold_transfer(insn.sym.name))


# A summary entry is ``(kind, argument, instruction)``.  A block's
# entries for one domain are the instructions that domain can observe,
# in order; every other instruction is the identity there, so solving
# over the entries is solving over the block.

#: Any domain: a call with landing pads; the argument is its unwind
#: target labels.
_UNWIND = 0
# BL001: (height, rbp height).
(_S_EXIT, _S_PUSH, _S_POP, _S_ALLOC, _S_FREE, _S_LEAVE, _S_FRAME,
 _S_CLOBBER) = range(1, 9)
# BL002: exits, and effects ((state component, action), ...) on the
# one tuple state that tracks every saved register.
_C_EXIT, _C_EFFECT = 1, 2
_SAVE, _RESTORE, _SLOT_LOST, _DIRTIED = range(4)
# BL003: flag uses, defs and call clobbers.
_F_USE, _F_DEF, _F_UNDEF = 1, 2, 3

# Read off the use/def table: a call's flag def is a clobber, not a def.
_FLAG_DEFS = frozenset(op for op, (_, _, _, defs) in _USE_DEF.items()
                       if FLAGS in defs) - CALL_OPS
_FLAG_USES = frozenset(op for op, (_, _, uses, _) in _USE_DEF.items()
                       if FLAGS in uses)
_STACK_OPS = frozenset({Op.PUSH, Op.POP, Op.SUB_RI, Op.ADD_RI, Op.MOV_RR})
_OTHER_STORES = frozenset({Op.STOREIDX, Op.STORE_ABS})
# Enum attribute lookups are slow; the walk compares against these.
_PUSH, _POP, _SUB_RI, _MOV_RR = Op.PUSH, Op.POP, Op.SUB_RI, Op.MOV_RR
_LOAD, _STORE = Op.LOAD, Op.STORE


class _Summary:
    """One function's per-block entries for BL001 (``stack``), BL002
    (``saved``, empty when no saved register is tracked) and BL003
    (``flags``), plus whether rbp escapes slot tracking.  It lives for
    one ``check_function`` call."""

    __slots__ = ("stack", "saved", "flags", "escapes")


def _summarize(func):
    """Walk every instruction of ``func`` once into a :class:`_Summary`."""
    record = func.frame_record
    saved = ()
    if (record is not None and record.saved_regs
            and not _is_cold_fragment(func)):
        saved = record.saved_regs
    by_slot, by_reg = {}, {}
    for k, (reg, offset) in enumerate(saved):
        by_slot.setdefault(-offset, []).append((k, reg))
        by_reg.setdefault(reg, []).append(k)
    all_lost = tuple((k, _SLOT_LOST) for k in range(len(saved)))

    summary = _Summary()
    summary.stack, summary.saved, summary.flags = {}, {}, {}
    escapes = False
    for label, block in func.blocks.items():
        stack, kept, flags = [], [], []
        pads = block.landing_pads
        for insn in block.insns:
            op = insn.op
            regs = insn.regs
            def_pos, defined = def_operands(op)
            if def_pos:
                defined = [regs[i] for i in def_pos] + [*defined]
            is_call = op in CALL_OPS
            is_return = op in RETURN_OPS
            exits = is_return or (op in BRANCH_OPS and _is_tail_call(insn))
            unwind = None
            if is_call and pads:
                lp = insn.lp
                unwind = (_UNWIND, [lp] if lp is not None else pads, insn)
                stack.append(unwind)

            # BL001: the first matching rule decides.
            if exits:
                stack.append((_S_EXIT, "returns" if is_return
                              else "tail-calls", insn))
            else:
                entry = (_stack_entry(op, regs, insn)
                         if op in _STACK_OPS else None)
                if entry is None and not is_call and (
                        RSP in defined or RBP in defined):
                    entry = (_S_CLOBBER, (RSP in defined, RBP in defined),
                             insn)
                if entry is not None:
                    stack.append(entry)

            # BL002: per saved register, the first matching rule decides.
            if saved:
                if exits:
                    kept.append((_C_EXIT, None, insn))
                effects = None
                if op == _STORE:
                    if regs[0] == RBP:
                        hits = by_slot.get(insn.disp)
                        if hits:
                            effects = tuple(
                                (k, _SAVE if regs[1] == reg else _SLOT_LOST)
                                for k, reg in hits)
                    else:
                        effects = all_lost     # untracked memory write
                elif op in _OTHER_STORES:
                    effects = all_lost
                else:
                    actions = None
                    if op == _LOAD and regs[1] == RBP:
                        for k, reg in by_slot.get(insn.disp, ()):
                            if regs[0] == reg:
                                actions = actions or {}
                                actions[k] = _RESTORE
                    for reg in defined:
                        for k in by_reg.get(reg, ()):
                            actions = actions or {}
                            actions.setdefault(k, _DIRTIED)
                    if actions:
                        effects = tuple(actions.items())
                if effects:
                    kept.append((_C_EFFECT, effects, insn))
                escapes = escapes or rbp_escapes(op, regs)

            # BL003: uses are checked before the step.
            if op in _FLAG_USES:
                flags.append((_F_USE, None, insn))
            if op in _FLAG_DEFS:
                flags.append((_F_DEF, None, insn))
            elif is_call:
                flags.append((_F_UNDEF, None, insn))  # calls clobber flags
            if unwind is not None:
                flags.append(unwind)  # unwinding sees the call's clobber
        summary.stack[label] = stack
        summary.saved[label] = kept
        summary.flags[label] = flags
    summary.escapes = escapes
    return summary


def _stack_entry(op, regs, insn):
    """The BL001 entry of a push, pop, rsp adjustment or rsp/rbp move;
    None when the operands make it an ordinary instruction."""
    if op == _PUSH:
        return (_S_PUSH, None, insn)
    if op == _POP:
        return (_S_POP, regs[0] if regs else None, insn)
    if op == _MOV_RR:
        if regs == (RSP, RBP):
            return (_S_LEAVE, None, insn)
        if regs == (RBP, RSP):
            return (_S_FRAME, None, insn)
        return None
    if regs and regs[0] == RSP:
        return (_S_ALLOC if op == _SUB_RI else _S_FREE, insn.imm, insn)
    return None


# ---------------------------------------------------------------------------
# Stack-height consistency (BL001)
# ---------------------------------------------------------------------------


def _stack_step(entry, state, sink=None, func=None, block=None):
    """Abstractly execute one summary entry over (height, saved rbp
    height).

    ``height`` is bytes pushed since function entry (concrete int or
    TOP); ``rbp_height`` is the height captured by ``mov rbp, rsp``.
    When ``sink`` is given, definite violations are appended to it.
    """
    kind, arg, insn = entry
    h, rbp_h = state

    def report(message):
        if sink is not None:
            sink.append(Finding("BL001", message, function=func.name,
                                block=block.label,
                                address=insn.address))

    if kind == _S_EXIT:
        if isinstance(h, int) and h != 0:
            report(f"{arg} with {h} byte(s) left on the stack "
                   f"(unbalanced push/pop or missing epilogue)")
        return state
    if kind == _S_PUSH:
        return (h + 8 if isinstance(h, int) else h), rbp_h
    if kind == _S_POP:
        if isinstance(h, int):
            h -= 8
            if h < 0:
                report("pops below the incoming stack pointer")
                h = TOP
        if arg == RBP:
            rbp_h = TOP
        elif arg == RSP:
            h = TOP
        return h, rbp_h
    if kind == _S_ALLOC:
        return (h + arg if isinstance(h, int) else h), rbp_h
    if kind == _S_FREE:
        if isinstance(h, int):
            h -= arg
            if h < 0:
                report("releases more stack than was allocated")
                h = TOP
        return h, rbp_h
    if kind == _S_LEAVE:
        return rbp_h, rbp_h                     # mov rsp, rbp (epilogue)
    if kind == _S_FRAME:
        return h, h                             # mov rbp, rsp (prologue)
    rsp_lost, rbp_lost = arg                    # _S_CLOBBER
    return (TOP if rsp_lost else h), (TOP if rbp_lost else rbp_h)


def _check_stack_height(func, summary):
    lattice = TupleLattice(FlatLattice(), FlatLattice())
    bottom = lattice.bottom()
    entries = summary.stack

    def transfer(block, state):
        edge_states = {}
        for entry in entries[block.label]:
            if entry[0] == _UNWIND:
                # Unwinding resumes with the frame as it was at the call.
                for target in entry[1]:
                    prev = edge_states.get(target, bottom)
                    edge_states[target] = lattice.join(prev, state)
            else:
                state = _stack_step(entry, state)
        return BlockResult(state, edge_states)

    # A cold fragment is entered mid-frame: its height is unknown.
    entry_height = TOP if _is_cold_fragment(func) else 0
    in_states, _ = solve(func, lattice, transfer,
                         boundary=(entry_height, TOP))

    findings = []
    for label, block in func.blocks.items():
        state = in_states.get(label, bottom)
        if state == bottom:
            continue  # unreachable: BL004's business
        for entry in entries[label]:
            if entry[0] != _UNWIND:
                state = _stack_step(entry, state, sink=findings, func=func,
                                    block=block)
    return findings


# ---------------------------------------------------------------------------
# Callee-saved preservation (BL002)
# ---------------------------------------------------------------------------

_ORIG, _DIRTY = "orig", "dirty"
_EMPTY, _SAVED = "empty", "saved"


def _saved_step(effects, state):
    """Apply one instruction's effects to the saved-register state.

    The state is flat: ``(reg 0, slot 0, reg 1, slot 1, ...)`` in
    frame-record order, each component its own flat lattice.
    """
    state = list(state)
    for k, action in effects:
        r = 2 * k
        if action == _SAVE:
            state[r + 1] = _SAVED if state[r] == _ORIG else TOP
        elif action == _RESTORE:
            state[r] = _ORIG if state[r + 1] == _SAVED else TOP
        elif action == _SLOT_LOST:
            state[r + 1] = TOP
        else:
            state[r] = _DIRTY
    return tuple(state)


def _check_callee_saved(func, summary):
    record = func.frame_record
    if record is None or not record.saved_regs:
        return []
    if _is_cold_fragment(func):
        # Saves happen in the hot parent; no entry invariant holds here.
        return []
    if summary.escapes:
        return []  # rbp escapes: slot tracking would be unsound

    saved = record.saved_regs
    by_reg = [[] for _ in saved]        # findings, grouped per register
    facts = func.analysis_facts.get("shrink-wrap", {})
    for k, (reg, offset) in enumerate(saved):
        # Cross-check the shrink-wrapping fact: if the pass claims the
        # save moved into a block, the store must actually be there.
        moved_to = facts.get(reg)
        if moved_to is not None:
            home = func.blocks.get(moved_to)
            present = home is not None and any(
                insn.op == Op.STORE and insn.regs == (RBP, reg)
                and insn.disp == -offset for insn in home.insns)
            if not present:
                by_reg[k].append(Finding(
                    "BL002",
                    f"shrink-wrapping recorded %{reg_name(reg)}'s save "
                    f"moved to {moved_to}, but no save store is there",
                    function=func.name, block=moved_to))

    # One solve tracks every saved register: the components never
    # interact, so this is each register's own fixpoint side by side.
    lattice = TupleLattice(*[FlatLattice()] * (2 * len(saved)))
    entries = summary.saved

    def transfer(block, state):
        for kind, effects, _ in entries[block.label]:
            if kind == _C_EFFECT:
                state = _saved_step(effects, state)
        return state

    in_states, _ = solve(func, lattice, transfer,
                         boundary=(_ORIG, _EMPTY) * len(saved))
    bottom = lattice.bottom()
    for label in func.blocks:
        state = in_states.get(label, bottom)
        if state == bottom:
            continue
        reported = set()  # one report per register per block
        for kind, effects, insn in entries[label]:
            if kind == _C_EFFECT:
                state = _saved_step(effects, state)
                continue
            for k, (reg, offset) in enumerate(saved):
                if state[2 * k] == _DIRTY and k not in reported:
                    reported.add(k)
                    by_reg[k].append(Finding(
                        "BL002",
                        f"exits with callee-saved %{reg_name(reg)} "
                        f"clobbered and not restored from its save slot "
                        f"(rbp{-offset:+#x})",
                        function=func.name, block=label,
                        address=insn.address))
    return [finding for found in by_reg for finding in found]


# ---------------------------------------------------------------------------
# Flags use-before-def (BL003)
# ---------------------------------------------------------------------------

_UNDEF, _DEF = "undef", "def"


def _check_flags(func, summary):
    lattice = FlatLattice()
    entries = summary.flags

    def transfer(block, state):
        edge_states = {}
        for kind, arg, _ in entries[block.label]:
            if kind == _F_DEF:
                state = _DEF
            elif kind == _F_UNDEF:
                state = _UNDEF
            elif kind == _UNWIND:
                for target in arg:
                    prev = edge_states.get(target, BOTTOM)
                    edge_states[target] = lattice.join(prev, state)
        return BlockResult(state, edge_states)

    # Flags set in the hot parent may be live on entry to a cold
    # fragment (a conditional branch can target it directly).
    boundary = TOP if _is_cold_fragment(func) else _UNDEF
    in_states, _ = solve(func, lattice, transfer, boundary=boundary)

    findings = []
    for label in func.blocks:
        state = in_states.get(label, BOTTOM)
        if state is BOTTOM:
            continue
        for kind, _, insn in entries[label]:
            if kind == _F_USE and state == _UNDEF:
                findings.append(Finding(
                    "BL003",
                    f"{insn.mnemonic()} consumes flags that no path "
                    f"defines (missing compare, or clobbered by a call)",
                    function=func.name, block=label,
                    address=insn.address))
                break  # one report per block is plenty
            if kind == _F_DEF:
                state = _DEF
            elif kind == _F_UNDEF:
                state = _UNDEF
    return findings
