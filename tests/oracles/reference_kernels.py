"""Pre-PR reference implementations of the hot pipeline kernels.

These are byte-for-byte the algorithms the pipeline shipped with before
the performance layer landed: the quadratic ``callers_of`` arc scan
behind HFSort, the cubic ``arc_weight`` rescans of HFSort+, the
full-edge-set ``cross_weight``/``chain_score`` recomputation inside
ext-TSP's O(chains^2) merge loop, the ``copy.deepcopy``-based
per-function snapshot (and the ``_attempt`` that took it before every
pass), the rebuild-the-key-list-per-query line table lookup, the
shrink-wrapping scan that rebuilt use/def sets per saved register,
the ICF sweep that keyed every function, the per-instruction
BL001/BL002/BL003 lint checkers that solved once per saved register,
and the address -> function bisect that ``BinaryContext``,
``AddressMapper`` and ``Machine`` each built for themselves (with the
flag-first ``section_at`` scan) before ``Binary`` owned the address map.

They are kept for two reasons:

* **Equivalence oracle** — the rewritten fast kernels must produce
  *identical* results; ``tests/test_hfsort.py`` checks the orders on
  randomized graphs (hypothesis), ``tests/test_value_semantics.py`` the
  per-opcode tables and ICF keys, ``tests/test_kernel_equivalence.py``
  the shrink-wrapping scan and ICF folds on every preset,
  ``tests/test_analysis_summaries.py`` the BL001/BL002/BL003 checkers,
  and ``tests/test_belf.py`` the address map on random symbol tables.
* **Benchmark baseline** — ``benchmarks/test_processing_time.py``
  measures the fast kernels (and the end-to-end pipeline) against
  these to produce the ``BENCH_pr3.json`` trajectory, reproducing the
  paper's processing-time claims (section 6.6).

Nothing in the pipeline itself may import this module.
"""

import copy

from repro.analysis.absint import (
    BOTTOM,
    TOP,
    BlockResult,
    FlatLattice,
    TupleLattice,
    solve,
)
from repro.analysis.checkers import _is_cold_fragment, _is_tail_call
from repro.analysis.rules import Finding
from repro.belf import SymbolType
from repro.core.dataflow import (
    FLAGS,
    UnmodeledOpcodeError,
    defines,
    insn_uses_defs,
)
from repro.core.hfsort import _Cluster
from repro.core.passes.base import contain_function_failure
from repro.core.passes.icf import _function_key
from repro.isa import RAX, RBP, RSP
from repro.isa.opcodes import Op, OPERAND_FORMATS, _ATOM_SIZES
from repro.isa.registers import ARG_REGS, CALLER_SAVED

# ext-TSP distance weights (must mirror layout_algos).
_FALLTHROUGH_WEIGHT = 1.0
_FORWARD_WEIGHT = 0.1
_BACKWARD_WEIGHT = 0.1
_FORWARD_DISTANCE = 1024
_BACKWARD_DISTANCE = 640


# ---------------------------------------------------------------------------
# HFSort / HFSort+ (pre-PR: per-query arc scans)
# ---------------------------------------------------------------------------


def callers_of_reference(graph, callee):
    """O(arcs) scan per query — made ``hfsort`` quadratic overall."""
    return {a: w for (a, b), w in graph.arcs.items() if b == callee}


def hfsort_reference(graph, merge_cap=4096 * 8):
    hot = [f for f, w in graph.weights.items() if w > 0]
    cold = [f for f, w in graph.weights.items() if w <= 0]
    clusters = {f: _Cluster(f, graph.sizes[f], graph.weights[f]) for f in hot}
    cluster_of = {f: f for f in hot}

    for func in sorted(hot, key=lambda f: (-graph.weights[f], f)):
        callers = {
            caller: weight
            for caller, weight in callers_of_reference(graph, func).items()
            if caller in cluster_of
        }
        if not callers:
            continue
        best_caller = max(sorted(callers), key=lambda c: callers[c])
        src = cluster_of[func]
        dst = cluster_of[best_caller]
        if src == dst:
            continue
        if clusters[src].funcs[0] != func:
            continue
        if clusters[dst].size + clusters[src].size > merge_cap:
            continue
        clusters[dst].merge(clusters[src])
        for moved in clusters[src].funcs:
            cluster_of[moved] = dst
        del clusters[src]

    ordered = sorted(clusters.values(), key=lambda c: (-c.density, c.funcs[0]))
    out = []
    for cluster in ordered:
        out.extend(cluster.funcs)
    out.extend(cold)
    return out


def hfsort_plus_reference(graph, merge_cap=4096 * 8, page_size=4096):
    base_order = hfsort_reference(graph, merge_cap)
    hot = {f for f, w in graph.weights.items() if w > 0}
    clusters = []
    for func in base_order:
        if func not in hot:
            continue
        clusters.append(_Cluster(func, graph.sizes[func], graph.weights[func]))

    def arc_weight(c1, c2):
        # O(arcs) per cluster pair per merge iteration: cubic overall.
        s1, s2 = set(c1.funcs), set(c2.funcs)
        total = 0
        for (a, b), w in graph.arcs.items():
            if (a in s1 and b in s2) or (a in s2 and b in s1):
                total += w
        return total

    improved = True
    while improved and len(clusters) > 1:
        improved = False
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                weight = arc_weight(clusters[i], clusters[j])
                if weight == 0:
                    continue
                merged_size = clusters[i].size + clusters[j].size
                if merged_size > merge_cap * 2:
                    continue
                pages = max(1, (merged_size + page_size - 1) // page_size)
                gain = weight / pages
                if best is None or gain > best[0]:
                    best = (gain, i, j)
        if best is not None:
            _, i, j = best
            clusters[i].merge(clusters[j])
            del clusters[j]
            improved = True

    clusters.sort(key=lambda c: (-c.density, c.funcs[0]))
    out = []
    for cluster in clusters:
        out.extend(cluster.funcs)
    out.extend(f for f in base_order if f not in hot)
    return out


# ---------------------------------------------------------------------------
# ext-TSP block layout (pre-PR: full edge-set rescans per candidate)
# ---------------------------------------------------------------------------


def order_blocks_reference(func, algorithm, hot_threshold=1):
    """Pre-PR ``order_blocks`` for the scoring algorithms (cache/cache+)."""
    from repro.core.layout_algos import _pettis_hansen

    labels = list(func.blocks)
    if algorithm == "none" or len(labels) <= 2:
        return labels
    if algorithm == "reverse":
        return [labels[0]] + list(reversed(labels[1:]))

    hot = [l for l in labels
           if func.blocks[l].exec_count >= hot_threshold
           or l == func.entry_label]
    cold = [l for l in labels if l not in set(hot)]
    if algorithm == "cache":
        ordered_hot = _pettis_hansen(func, hot)
    elif algorithm == "cache+":
        ordered_hot = ext_tsp_reference(func, hot)
    else:
        raise ValueError(f"unknown block layout algorithm {algorithm!r}")
    return ordered_hot + cold


def ext_tsp_reference(func, labels):
    allowed = set(labels)
    sizes = {l: max(1, func.blocks[l].size) for l in labels}
    edges = {}
    for label in labels:
        block = func.blocks[label]
        for succ, count in block.edge_counts.items():
            if succ in allowed and count > 0:
                edges[(label, succ)] = edges.get((label, succ), 0) + count

    chains = {i: [l] for i, l in enumerate(labels)}
    chain_of = {l: i for i, l in enumerate(labels)}
    entry_chain = chain_of[func.entry_label]

    def chain_score(seq):
        # Scans every edge of the function per call.
        pos = {}
        offset = 0
        for label in seq:
            pos[label] = offset
            offset += sizes[label]
        score = 0.0
        for (src, dst), count in edges.items():
            if src not in pos or dst not in pos:
                continue
            src_end = pos[src] + sizes[src]
            dist = pos[dst] - src_end
            if dist == 0:
                score += count * _FALLTHROUGH_WEIGHT
            elif 0 < dist <= _FORWARD_DISTANCE:
                score += count * _FORWARD_WEIGHT * (1 - dist / _FORWARD_DISTANCE)
            elif -_BACKWARD_DISTANCE <= dist < 0:
                score += count * _BACKWARD_WEIGHT * (1 + dist / _BACKWARD_DISTANCE)
        return score

    current_scores = {cid: chain_score(seq) for cid, seq in chains.items()}

    def cross_weight(a, b):
        # Scans every edge of the function per chain pair.
        total = 0
        for (src, dst), count in edges.items():
            if (chain_of[src] == a and chain_of[dst] == b) or (
                    chain_of[src] == b and chain_of[dst] == a):
                total += count
        return total

    while len(chains) > 1:
        best = None
        chain_ids = list(chains)
        for i, a in enumerate(chain_ids):
            for b in chain_ids[i + 1 :]:
                if cross_weight(a, b) == 0:
                    continue
                candidates = [chains[a] + chains[b], chains[b] + chains[a]]
                for seq in candidates:
                    if entry_chain in (a, b) and seq[0] != func.entry_label:
                        continue
                    gain = chain_score(seq) - current_scores[a] - current_scores[b]
                    if best is None or gain > best[0]:
                        best = (gain, a, b, seq)
        if best is None or best[0] <= 0:
            break
        _, a, b, seq = best
        chains[a] = seq
        current_scores[a] = chain_score(seq)
        for label in chains[b]:
            chain_of[label] = a
        if b == entry_chain:
            entry_chain = a
        del chains[b]
        del current_scores[b]

    def weight(cid):
        return max(func.blocks[l].exec_count for l in chains[cid])

    rest = sorted((cid for cid in chains if cid != entry_chain),
                  key=lambda cid: (-weight(cid), chains[cid][0]))
    order = list(chains[entry_chain])
    for cid in rest:
        order.extend(chains[cid])
    return order


# ---------------------------------------------------------------------------
# Pass-containment snapshot + line-table lookup (pre-PR)
# ---------------------------------------------------------------------------


def snapshot_function_deepcopy(func):
    """Generic ``copy.deepcopy`` snapshot — dominated rewrite wall time."""
    return copy.deepcopy(func)


def restore_function_deepcopy(func, snapshot):
    """Restore from :func:`snapshot_function_deepcopy`, in place."""
    func.__dict__.update(copy.deepcopy(snapshot).__dict__)
    return func


def attempt_deepcopy_reference(self, context, func):
    """``BinaryPass._attempt`` with the snapshot it once took: deep-copy
    the function, run the pass, and on a failure restore the copy
    before demoting (which rebuilds the function from its bytes)."""
    snapshot = snapshot_function_deepcopy(func)
    try:
        return self.run_on_function(context, func)
    except Exception as exc:
        restore_function_deepcopy(func, snapshot)
        contain_function_failure(context, func, f"pass:{self.name}", exc)
        return None


def function_at_reference(binary, address):
    """The per-module address -> function index, rebuilt per query: the
    sized FUNC symbols stably sorted by address, then a bisect."""
    import bisect

    funcs = sorted(
        (s for s in binary.symbols
         if s.type == SymbolType.FUNC and s.size > 0),
        key=lambda s: s.value,
    )
    starts = [s.value for s in funcs]
    idx = bisect.bisect_right(starts, address) - 1
    if idx < 0:
        return None
    sym = funcs[idx]
    return sym if sym.contains(address) else None


def section_at_reference(binary, address):
    """The linear section scan that tested the ALLOC flag first."""
    for section in binary.sections.values():
        if section.is_alloc and section.contains(address):
            return section
    return None


def linetable_lookup_reference(table, addr):
    """Rebuilds the bisect key list on every query."""
    import bisect

    table._ensure_sorted()
    if not table.entries:
        return None
    keys = [e.addr for e in table.entries]
    idx = bisect.bisect_right(keys, addr) - 1
    if idx < 0:
        return None
    entry = table.entries[idx]
    return (entry.file, entry.line)


# ---------------------------------------------------------------------------
# Per-instruction facts (re-derived on every query)
# ---------------------------------------------------------------------------


def format_size_reference(op):
    """Sums the operand-format atoms on every call."""
    base = 1
    if op == Op.JCC_LONG:
        base = 2  # 0x0F prefix + opcode byte
    return base + sum(_ATOM_SIZES[atom] for atom in OPERAND_FORMATS[op])


#: Opcodes with no register effects at the dataflow level.  Direct
#: jumps and ``jmp`` through an absolute memory slot transfer control
#: without reading or writing general registers; nops/halt/trap do
#: nothing.  (``PREFIX_0F`` is an encoding artifact, never an opcode a
#: decoded instruction carries — it is deliberately *not* modeled.)
_NO_REG_EFFECT = frozenset({
    Op.NOP, Op.NOPN, Op.HALT, Op.TRAP,
    Op.JMP_SHORT, Op.JMP_NEAR, Op.JMP_MEM,
})


def insn_uses_defs_reference(insn):
    """The if-chain ``insn_uses_defs`` that builds fresh sets per query.

    Covers every :class:`Op`; raises :class:`UnmodeledOpcodeError` for
    anything else rather than silently under-approximating.
    """
    op = insn.op
    r = insn.regs
    if op == Op.MOV_RR:
        return {r[1]}, {r[0]}
    if op in (Op.MOV_RI32, Op.MOV_RI64):
        return set(), {r[0]}
    if op in (Op.LOAD, Op.LEA):
        return {r[1]}, {r[0]}
    if op == Op.STORE:
        return {r[0], r[1]}, set()
    if op == Op.LOAD_ABS:
        return set(), {r[0]}
    if op == Op.STORE_ABS:
        return {r[0]}, set()
    if op == Op.LOADIDX:
        return {r[1], r[2]}, {r[0]}
    if op == Op.STOREIDX:
        return {r[0], r[1], r[2]}, set()
    if op in (Op.ADD_RR, Op.SUB_RR, Op.IMUL_RR, Op.AND_RR, Op.OR_RR,
              Op.XOR_RR, Op.IDIV_RR, Op.IMOD_RR, Op.SHL_RR, Op.SHR_RR,
              Op.SAR_RR):
        return {r[0], r[1]}, {r[0]}
    if op in (Op.ADD_RI, Op.SUB_RI, Op.IMUL_RI, Op.AND_RI, Op.OR_RI,
              Op.XOR_RI, Op.SHL_RI, Op.SHR_RI, Op.SAR_RI, Op.NEG):
        return {r[0]}, {r[0]}
    if op in (Op.CMP_RR, Op.TEST_RR):
        return {r[0], r[1]}, {FLAGS}
    if op in (Op.CMP_RI, Op.TEST_RI):
        return {r[0]}, {FLAGS}
    if op == Op.SETCC:
        return {FLAGS}, {r[0]}
    if op == Op.PUSH:
        return {r[0], RSP}, {RSP}
    if op == Op.POP:
        return {RSP}, {r[0], RSP}
    if op == Op.OUT:
        return {r[0]}, set()
    if op in (Op.CALL, Op.CALL_MEM):
        # Conservative: a call may read every argument register and
        # clobbers all caller-saved registers; it returns in rax.
        return set(ARG_REGS) | {RSP}, set(CALLER_SAVED) | {RSP, FLAGS}
    if op == Op.CALL_REG:
        return set(ARG_REGS) | {RSP, r[0]}, set(CALLER_SAVED) | {RSP, FLAGS}
    if op in (Op.JCC_SHORT, Op.JCC_LONG):
        return {FLAGS}, set()
    if op in (Op.JMP_REG,):
        return {r[0]}, set()
    if op in (Op.RET, Op.REPZ_RET):
        return {RAX, RSP}, {RSP}
    if op in _NO_REG_EFFECT:
        return set(), set()
    raise UnmodeledOpcodeError(op)


# ---------------------------------------------------------------------------
# ICF keys (build the key, then re-walk it to rename self)
# ---------------------------------------------------------------------------


def function_key_reference(func):
    """A structural key: code with labels/tables normalized to indices."""
    index = {label: i for i, label in enumerate(func.blocks)}
    table_ids = {id(t): i for i, t in enumerate(func.jump_tables)}
    # Table *addresses* appear as MOV_RI32 immediates (the dispatch base
    # materialization); normalize them so two copies of a switch-heavy
    # function compare equal even though their tables live at different
    # addresses — the folding linkers cannot do (paper section 4).
    table_addrs = {t.address: i for i, t in enumerate(func.jump_tables)}
    blocks = []
    for label, block in func.blocks.items():
        insn_keys = []
        for insn in block.insns:
            table = insn.jump_table
            imm = insn.imm
            if imm in table_addrs:
                imm = ("jt", table_addrs[imm])
            insn_keys.append((
                int(insn.op),
                insn.regs,
                imm if table is None else None,
                insn.disp,
                insn.addr,
                int(insn.cc) if insn.cc is not None else None,
                index.get(insn.label, insn.label),
                (insn.sym.name, insn.sym.addend)
                if insn.sym is not None else None,
                table_ids.get(id(table)),
            ))
        blocks.append((
            index[label],
            tuple(insn_keys),
            tuple(index.get(s, s) for s in block.successors),
            index.get(block.fallthrough_label),
            tuple(index.get(lp, lp) for lp in block.landing_pads),
            block.is_landing_pad,
        ))
    tables = tuple(
        tuple(index.get(e, e) for e in t.entries) for t in func.jump_tables)
    record = func.frame_record
    frame = None
    if record is not None:
        frame = (record.frame_size, tuple(map(tuple, record.saved_regs)),
                 tuple((c.start, c.end, c.landing_pad, c.action)
                       for c in record.callsites))
    return (tuple(blocks), tables, frame)


def normalize_self_reference(func):
    """The ICF key with every occurrence of the function's own name
    replaced by a marker, found by recursively re-walking the key."""
    key = function_key_reference(func)

    def swap(item):
        if isinstance(item, tuple):
            return tuple(swap(x) for x in item)
        if item == func.name:
            return "__self__"
        return item

    return swap(key)


# ---------------------------------------------------------------------------
# Shrink-wrapping scan (use/def sets rebuilt per saved register)
# ---------------------------------------------------------------------------


def shrink_wrap_scan_reference(func, record):
    """The scan of ``shrink_wrapping._scan``, one ``insn_uses_defs``
    call per (instruction, saved register) pair."""
    call_blocks = set()
    reg_blocks = {reg: set() for reg, _ in record.saved_regs}
    save_insns = {}
    restore_insns = {reg: [] for reg, _ in record.saved_regs}
    offsets = {reg: offset for reg, offset in record.saved_regs}

    for label, block in func.blocks.items():
        for insn in block.insns:
            if insn.is_call:
                call_blocks.add(label)
            for reg in reg_blocks:
                offset = offsets[reg]
                if (insn.op == Op.STORE and insn.regs == (RBP, reg)
                        and insn.disp == -offset and label == func.entry_label
                        and reg not in save_insns):
                    save_insns[reg] = insn
                    continue
                if (insn.op == Op.LOAD and insn.regs == (reg, RBP)
                        and insn.disp == -offset):
                    restore_insns[reg].append((label, insn))
                    continue
                uses, defs = insn_uses_defs(insn)
                if reg in uses or reg in defs:
                    reg_blocks[reg].add(label)
    return call_blocks, reg_blocks, save_insns, restore_insns


# ---------------------------------------------------------------------------
# ICF sweep (every function keyed)
# ---------------------------------------------------------------------------


def icf_run_reference(self, context):
    """``IdenticalCodeFolding.run`` keying every function, not only
    those that share their shape with another."""
    folded = 0
    saved_bytes = 0
    by_key = {}
    for func in context.simple_functions():
        key = _function_key(func, func.name)
        survivor = by_key.get(key)
        if survivor is None:
            by_key[key] = func
            continue
        func.is_folded = True
        func.folded_into = survivor
        survivor.exec_count += func.exec_count
        for label, block in func.blocks.items():
            twin = survivor.blocks.get(label)
            if twin is not None:
                twin.exec_count += block.exec_count
                for succ, count in block.edge_counts.items():
                    twin.edge_counts[succ] = (
                        twin.edge_counts.get(succ, 0) + count)
        folded += 1
        saved_bytes += func.size
    return {"folded": folded, "saved_bytes": saved_bytes}


# ---------------------------------------------------------------------------
# Dataflow lint checkers (every instruction stepped, one solve per
# saved register)
# ---------------------------------------------------------------------------

def _stack_step_reference(insn, state, sink=None, func=None, block=None):
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


def check_stack_height_reference(func):
    lattice = TupleLattice(FlatLattice(), FlatLattice())

    def transfer(block, state):
        edge_states = {}
        for insn in block.insns:
            if insn.is_call and block.landing_pads:
                lp = insn.lp
                targets = [lp] if lp is not None else block.landing_pads
                # Unwinding resumes with the frame as it was at the call.
                for target in targets:
                    prev = edge_states.get(target, lattice.bottom())
                    edge_states[target] = lattice.join(prev, state)
            state = _stack_step_reference(insn, state)
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
            state = _stack_step_reference(insn, state, sink=findings,
                                          func=func, block=block)
    return findings


_ORIG, _DIRTY = "orig", "dirty"
_EMPTY, _SAVED = "empty", "saved"


def _saved_reg_step_reference(insn, state, reg, offset):
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


def check_callee_saved_reference(func):
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
                state = _saved_reg_step_reference(insn, state, reg, offset)
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
                state = _saved_reg_step_reference(insn, state, reg, offset)
    return findings


_FLAG_DEFS = frozenset({Op.CMP_RR, Op.CMP_RI, Op.TEST_RR, Op.TEST_RI})
_FLAG_USES = frozenset({Op.JCC_SHORT, Op.JCC_LONG, Op.SETCC})
_UNDEF, _DEF = "undef", "def"


def _flags_step_reference(insn, state):
    if insn.op in _FLAG_DEFS:
        return _DEF
    if insn.is_call:
        return _UNDEF  # calls clobber flags (ABI)
    if defines(insn, FLAGS):
        return _DEF
    return state


def check_flags_reference(func):
    lattice = FlatLattice()

    def transfer(block, state):
        edge_states = {}
        for insn in block.insns:
            state = _flags_step_reference(insn, state)
            if insn.is_call and block.landing_pads:
                lp = insn.lp
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
            state = _flags_step_reference(insn, state)
    return findings
