"""Pass 12: fixup-branches.

After layout changes, block terminators must be made consistent with
the new physical order (the paper notes this is redone by reorder-bbs):

* a conditional branch whose taken target became the fall-through is
  inverted so the hot path falls through;
* unconditional jumps to the physically-next block are removed;
* blocks whose fall-through successor moved away get an explicit jump.

Cold (split) blocks never fall through into hot blocks and vice versa —
an explicit jump is always materialized across the split boundary.
"""

from repro.isa import Instruction, Op, negate_cc
from repro.core.passes.base import BinaryPass

_HARD_TERMINATORS = frozenset({
    Op.RET, Op.REPZ_RET, Op.JMP_REG, Op.JMP_MEM, Op.HALT, Op.TRAP,
})


class FixupBranches(BinaryPass):
    def __init__(self, name="fixup-branches"):
        self.name = name

    def run_on_function(self, context, func):
        inverted = added = removed = 0
        layout = func.layout()
        for i, block in enumerate(layout):
            next_block = layout[i + 1] if i + 1 < len(layout) else None
            next_label = None
            if next_block is not None and next_block.is_cold == block.is_cold:
                next_label = next_block.label

            # 1. Strip a trailing unconditional intra-function jump; it
            #    is re-synthesized below only if still needed.
            had_jump = False
            if (block.insns
                    and block.insns[-1].op in (Op.JMP_SHORT, Op.JMP_NEAR)
                    and block.insns[-1].label is not None):
                jump = block.insns.pop()
                had_jump = True
                if block.fallthrough_label is None:
                    # A jump-only successor is this block's sole exit;
                    # treat it as the logical fall-through from here on.
                    block.fallthrough_label = jump.label

            last = block.insns[-1] if block.insns else None

            if last is not None and last.is_cond_branch and last.label is not None:
                ft = block.fallthrough_label
                if (last.label == next_label and ft is not None
                        and ft != next_label):
                    block.insns[-1] = last.replace(cc=negate_cc(last.cc),
                                                   label=ft)
                    block.fallthrough_label = last.label
                    inverted += 1
                    ft = block.fallthrough_label
                if ft is not None and ft != next_label:
                    block.insns.append(Instruction(Op.JMP_NEAR, label=ft))
                    added += 1
                elif had_jump:
                    removed += 1
            elif last is not None and (
                    last.op in _HARD_TERMINATORS
                    or (last.op in (Op.JMP_SHORT, Op.JMP_NEAR)
                        and last.sym is not None)):
                pass  # returns, indirect jumps, tail calls: nothing to fix
            else:
                # Pure fall-through block (possibly ending in a call).
                ft = block.fallthrough_label
                if ft is not None and ft != next_label:
                    block.insns.append(Instruction(Op.JMP_NEAR, label=ft))
                    added += 1
                elif had_jump:
                    removed += 1
        return {"inverted": inverted, "added-jumps": added,
                "removed-jumps": removed}
