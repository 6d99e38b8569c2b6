"""Disassembly and CFG construction (paper Figure 3, middle stages).

Implements the conservative coverage strategy of section 3.1: any
function whose control flow cannot be reconstructed with full
confidence is marked *non-simple* and carried through byte-identical
(moved but never rewritten).  The chief sources of non-simplicity are
the same as the paper reports in section 6.4: indirect jumps that are
not recognizable jump-table dispatches — i.e. indirect tail calls.
"""

from repro.isa import Op, SymRef, decode_stream, DecodeError
from repro.isa.instruction import BRANCH_OPS, TERMINATOR_OPS
from repro.core.binary_function import BinaryBasicBlock, JumpTable

# Enum attribute lookups are slow; the per-instruction loops use these.
_JMP_REG, _CALL = Op.JMP_REG, Op.CALL

#: Pseudo-symbol whose resolved address is 0 — used to keep absolute
#: branch targets (e.g. calls to PLT stubs) through re-emission.
ABS_SYMBOL = "__abs__"


def build_all_functions(context, decoded=None, functions=None):
    """Disassemble + build CFGs for every discovered function, or for
    ``functions`` only.

    ``decoded`` optionally maps ``(address, size)`` to a body a caller
    already decoded from the same bytes (the lint gate's decode tier);
    each list is used by one function, which then owns it.
    """
    if functions is None:
        functions = context.functions.values()
    for func in functions:
        insns = None
        if decoded:
            insns = decoded.pop((func.address, func.size), None)
        build_function_cfg(context, func, insns)


def build_function_cfg(context, func, insns=None):
    if insns is None:
        try:
            insns = decode_stream(func.raw_bytes, base_address=func.address)
        except DecodeError as exc:
            func.mark_non_simple(f"decode-error: {exc}")
            return func

    # Line locations (read-debug-info stage).
    lines = context.binary.line_table
    if lines is not None:
        locs = lines.lookup_ascending([insn.address for insn in insns])
        for insn, loc in zip(insns, locs):
            insn.loc = loc

    start, end = func.address, func.address + func.size

    # Symbolize function-pointer materializations via relocations first:
    # even functions that end up non-simple are *moved* in relocations
    # mode, so their ABS64 references must be re-targetable.
    if context.use_relocations:
        _symbolize_abs64(context, func, insns)

    # -- jump-table discovery ------------------------------------------------
    jump_tables = {}
    for index, insn in enumerate(insns):
        if insn.op != _JMP_REG:
            continue
        table = _match_jump_table(context, func, insns, index)
        if table is None:
            func.mark_non_simple("unresolved indirect jump (tail call?)")
            _build_syntactic_blocks(func, insns)
            return func
        jump_tables[index] = table

    # -- classify control transfers, collect leaders ---------------------------
    leaders = {start}
    for index, insn in enumerate(insns):
        op = insn.op
        if op in BRANCH_OPS and insn.target is not None:
            if start <= insn.target < end:
                leaders.add(insn.target)
                leaders.add(insn.address + insn.size)
            else:
                ok = _symbolize_external(context, func, insn, tail=True)
                if not ok:
                    _build_syntactic_blocks(func, insns)
                    return func
                leaders.add(insn.address + insn.size)
        elif op == _CALL:
            if insn.target == func.address or not (start <= insn.target < end):
                ok = _symbolize_external(context, func, insn, tail=False)
                if not ok:
                    _build_syntactic_blocks(func, insns)
                    return func
            else:
                func.mark_non_simple("call into function body")
                _build_syntactic_blocks(func, insns)
                return func
        elif op in TERMINATOR_OPS:
            leaders.add(insn.address + insn.size)
        if index in jump_tables:
            for target in jump_tables[index].entries:  # absolute targets
                leaders.add(target)

    # Landing pads are leaders.
    record = func.frame_record
    if record is not None:
        for cs in record.callsites:
            leaders.add(func.address + cs.landing_pad)

    leaders.discard(end)
    bad = [l for l in leaders if not start <= l < end]
    if bad:
        func.mark_non_simple(f"branch target outside body: {bad[0]:#x}")
        _build_syntactic_blocks(func, insns)
        return func

    # -- label assignment --------------------------------------------------------
    lp_offsets = set()
    if record is not None:
        lp_offsets = {cs.landing_pad for cs in record.callsites}
    branch_targets = set()
    for index, insn in enumerate(insns):
        if (insn.op in BRANCH_OPS and insn.target is not None
                and start <= insn.target < end):
            branch_targets.add(insn.target)
        if index in jump_tables:
            branch_targets.update(jump_tables[index].entries)

    labels = {}
    tmp = ft = lp = 0
    for addr in sorted(leaders):
        offset = addr - start
        if addr == start:
            labels[addr] = ".LBB0"
        elif offset in lp_offsets:
            labels[addr] = f".LLP{lp}"
            lp += 1
        elif addr in branch_targets:
            labels[addr] = f".Ltmp{tmp}"
            tmp += 1
        else:
            labels[addr] = f".LFT{ft}"
            ft += 1

    # -- block construction ----------------------------------------------------------
    func.blocks = {}
    func.entry_label = None
    current = None
    sorted_leaders = sorted(leaders)
    strip_nops = context.options.strip_nops
    for index, insn in enumerate(insns):
        if insn.address in labels:
            current = BinaryBasicBlock(labels[insn.address],
                                       offset=insn.address - start)
            current.is_landing_pad = (insn.address - start) in lp_offsets
            func.add_block(current)
        if strip_nops and insn.is_nop:
            continue
        if index in jump_tables:
            table = jump_tables[index]
            table.entries = [labels[t] for t in table.entries]
            insn.jump_table = table
            func.jump_tables.append(table)
        current.insns.append(insn)

    # -- successor edges ----------------------------------------------------------------
    order = list(func.blocks.values())
    for i, block in enumerate(order):
        next_label = order[i + 1].label if i + 1 < len(order) else None
        _connect_block(func, block, labels, start, end, next_label)

    # -- landing-pad edges ----------------------------------------------------------------
    if record is not None:
        for block in func.blocks.values():
            for insn in block.insns:
                if insn.is_call:
                    lp_off = record.landing_pad_for(insn.address - start)
                    if lp_off is not None:
                        lp_label = labels[start + lp_off]
                        insn.lp = lp_label
                        if lp_label not in block.landing_pads:
                            block.landing_pads.append(lp_label)
    return func


def demote_to_raw(context, func, reason):
    """Reset a function to the conservative byte-identical state.

    Used by per-function error containment: when an optimization pass
    blows up on (or corrupts) a function mid-pipeline, the function is
    demoted exactly as if CFG reconstruction had never trusted it —
    original bytes emitted verbatim, external transfers re-symbolized
    so the body stays correct even if relocations mode moves it.
    """
    func.mark_non_simple(reason)
    func.jump_tables = []
    func.is_cold_fragment = False
    func.analysis_facts = {}
    record = context.binary.frame_records.get(func.name)
    func.frame_record = record.copy() if record is not None else None
    func.blocks = {}
    func.entry_label = None
    try:
        insns = decode_stream(func.raw_bytes, base_address=func.address)
    except DecodeError:
        _build_syntactic_blocks(func, [])
        func.simple_violation = reason
        return func
    if context.use_relocations:
        _symbolize_abs64(context, func, insns)
    start, end = func.address, func.address + func.size
    for insn in insns:
        if insn.target is None:
            continue
        if insn.is_branch and not start <= insn.target < end:
            _symbolize_external(context, func, insn, tail=True)
        elif insn.op == Op.CALL and (insn.target == func.address
                                     or not start <= insn.target < end):
            _symbolize_external(context, func, insn, tail=False)
    _build_syntactic_blocks(func, insns)
    # _symbolize_external may have overwritten the reason; the
    # containment reason is the one worth reporting.
    func.simple_violation = reason
    return func


def _match_jump_table(context, func, insns, index):
    """Recognize MOV_RI32 base, table; LOADIDX r, base, idx; JMP_REG r."""
    if index < 2:
        return None
    jmp = insns[index]
    loadidx = insns[index - 1]
    mov = insns[index - 2]
    if loadidx.op != Op.LOADIDX or loadidx.regs[0] != jmp.regs[0]:
        return None
    if mov.op != Op.MOV_RI32 or mov.regs[0] != loadidx.regs[1]:
        return None
    table_addr = mov.imm
    section = context.binary.section_at(table_addr)
    if section is None:
        return None
    words = (section.end - table_addr) // 8   # whole words left in section
    sym = context.object_by_addr.get(table_addr)
    if sym is not None:
        count = sym.size // 8
        if count > words:
            return None
    else:
        # Heuristic fallback: read entries while they land in the body.
        if section.is_exec:
            return None
        count = 0
        while count < words:
            word = section.read_word(table_addr + 8 * count)
            if not func.address <= word < func.address + func.size:
                break
            count += 1
            if count > 4096:
                return None
        if count == 0:
            return None
    entries = []
    for i in range(count):
        word = section.read_word(table_addr + 8 * i)
        if not func.address <= word < func.address + func.size:
            return None
        entries.append(word)
    return JumpTable(table_addr, 8 * count, entries, section.name)


def _symbolize_external(context, func, insn, tail):
    """Convert an out-of-function branch/call target to a symbol."""
    target = insn.target
    entry = context.function_entry_at(target)
    if entry is not None:
        insn.sym = SymRef(entry.link_name())
        insn.target = None
        insn.tailcall = tail
        return True
    if context.is_plt_stub(target):
        got_addr, final = context.plt_map[target]
        insn.sym = SymRef(ABS_SYMBOL, addend=target)
        insn.target = None
        insn.plt = (got_addr, final)
        insn.tailcall = tail
        return True
    func.mark_non_simple(f"transfer to unknown target {target:#x}")
    return False


def _symbolize_abs64(context, func, insns):
    """Use --emit-relocs info to symbolize MOV_RI64 function pointers."""
    section = context.binary.get_section(func.section)
    for insn in insns:
        if insn.op != Op.MOV_RI64:
            continue
        offset = insn.address - section.addr + 2
        reloc = context.reloc_at.get((func.section, offset))
        if reloc is not None:
            insn.sym = SymRef(reloc.symbol, addend=reloc.addend)


def _connect_block(func, block, labels, start, end, next_label):
    # A block may end [jcc, jmp]: the conditional's taken edge plus the
    # unconditional's target are both successors, and there is no
    # physical fall-through.
    if (len(block.insns) >= 2 and block.insns[-2].is_cond_branch
            and block.insns[-2].target is not None):
        jcc = block.insns[-2]
        jcc.label = labels[jcc.target]
        jcc.target = None
        block.set_edge(jcc.label)

    term = block.terminator()
    if term is None:
        if next_label is not None:
            block.fallthrough_label = next_label
            block.set_edge(next_label)
        return
    op = term.op
    if term.is_cond_branch:
        if term.target is not None:
            term.label = labels[term.target]
            term.target = None
            block.set_edge(term.label)
        if next_label is not None:
            block.fallthrough_label = next_label
            block.set_edge(next_label)
    elif op in (Op.JMP_SHORT, Op.JMP_NEAR):
        if term.sym is not None:
            return  # tail call: no intra successors
        if term.label is None:
            term.label = labels[term.target]
            term.target = None
        block.set_edge(term.label)
    elif op == Op.JMP_REG:
        table = term.jump_table
        for label in table.entries:
            if label not in block.successors:
                block.set_edge(label)
    elif term.is_return or op in (Op.HALT, Op.TRAP, Op.JMP_MEM):
        return
    elif term.is_call:
        # A call is not a terminator; it only ends the block when it is
        # the last instruction before a leader — fall through.
        if next_label is not None:
            block.fallthrough_label = next_label
            block.set_edge(next_label)


def _build_syntactic_blocks(func, insns):
    """Layout for non-simple functions: byte-identical single block."""
    func.blocks = {}
    func.entry_label = None
    block = BinaryBasicBlock(".LBB0", offset=0)
    block.insns = insns
    func.add_block(block)
