"""Pass 16: shrink wrapping — move callee-saved spills toward uses.

"Moves callee-saved register spills closer to where they are needed, if
profiling data shows it is better to do so" (paper Table 1).

For each callee-saved register saved in the prologue (a store to its
fixed frame slot) we find the set of blocks that touch the register.
If a single block B dominates all of them, B is colder than the entry,
and the move is unwind-safe (B also dominates every call site, so any
unwinder reading the save slot sees a valid value), the save store
moves from the prologue to B and each restore load survives only in
exit blocks dominated by B (exits not reachable from B never modified
the register and must not reload it).
"""

from repro.isa import Op, RBP
from repro.core.dataflow import dominators, insn_uses_defs, reachable_from
from repro.core.passes.base import BinaryPass


#: The ops that can be a save or a restore of a callee-saved register.
_SLOT_OPS = frozenset({Op.STORE, Op.LOAD})


def _scan(func, record):
    """One walk over ``func`` for the callee-saved registers of
    ``record``: ``(call_blocks, reg_blocks, save_insns, restore_insns)``,
    the blocks with a call, the blocks touching each register other
    than through its save or restores, each register's prologue save
    and its restores as ``(label, insn)`` in walk order.

    Uses and defs are computed once per instruction; only a store or a
    load can be a save or a restore, so only those are matched against
    each register's slot.
    """
    call_blocks = set()
    reg_blocks = {reg: set() for reg, _ in record.saved_regs}
    save_insns = {}
    restore_insns = {reg: [] for reg, _ in record.saved_regs}
    offsets = {reg: offset for reg, offset in record.saved_regs}
    saved = reg_blocks.keys()
    for label, block in func.blocks.items():
        for insn in block.insns:
            if insn.is_call:
                call_blocks.add(label)
            uses, defs = insn_uses_defs(insn)
            if insn.op not in _SLOT_OPS:
                for reg in saved & (uses | defs):
                    reg_blocks[reg].add(label)
                continue
            for reg in saved:
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
                if reg in uses or reg in defs:
                    reg_blocks[reg].add(label)
    return call_blocks, reg_blocks, save_insns, restore_insns


class ShrinkWrapping(BinaryPass):
    name = "shrink-wrapping"

    def run_on_function(self, context, func):
        record = func.frame_record
        if record is None or not record.saved_regs or not func.has_profile:
            return {}
        entry = func.blocks.get(func.entry_label)
        if entry is None:
            return {}

        dom = dominators(func)
        call_blocks, reg_blocks, save_insns, restore_insns = _scan(
            func, record)

        moved = 0
        removed = 0
        for reg, offset in list(record.saved_regs):
            if reg not in save_insns:
                continue
            touching = reg_blocks[reg] | call_blocks
            if not touching:
                # The register is never touched and nothing can unwind
                # through this frame: the save/restore pair is dead.
                entry.insns.remove(save_insns[reg])
                for label, insn in restore_insns[reg]:
                    func.blocks[label].insns.remove(insn)
                record.saved_regs = [sr for sr in record.saved_regs
                                     if sr[0] != reg]
                func.analysis_facts.setdefault(
                    "shrink-wrap-removed", []).append(reg)
                removed += 1
                continue
            candidates = [
                label for label in func.blocks
                if label != func.entry_label
                and all(label in dom[t] for t in touching)
                and func.blocks[label].exec_count < entry.exec_count
                and not func.blocks[label].is_landing_pad
            ]
            if not candidates:
                continue
            # Deepest dominator: the one dominated by all the others.
            best = max(candidates, key=lambda l: len(dom[l]))
            from_best = reachable_from(func, best)
            safe = True
            for label, _ in restore_insns[reg]:
                if best in dom[label]:
                    continue
                if label in from_best:
                    safe = False  # reachable both with and without the save
                    break
            if not safe:
                continue
            # Move the save.
            entry.insns.remove(save_insns[reg])
            target = func.blocks[best]
            target.insns.insert(0, save_insns[reg])
            # Drop restores on paths that never saved.
            for label, insn in restore_insns[reg]:
                if best not in dom[label]:
                    func.blocks[label].insns.remove(insn)
            # Fact for the lint checkers: the save now lives in `best`;
            # BL002 cross-checks the store is really there.
            func.analysis_facts.setdefault("shrink-wrap", {})[reg] = best
            moved += 1
        return {"moved-saves": moved, "removed-dead-saves": removed}
