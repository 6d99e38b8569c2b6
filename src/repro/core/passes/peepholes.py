"""Passes 4 & 10: simple peephole optimizations.

* drop identity moves (``mov %r, %r``);
* collapse adjacent ``push %rx; pop %ry`` into a move (or nothing when
  x == y) — our compiler's call protocol leaves these behind, exactly
  the kind of suboptimal-but-correct codegen residue peepholes target;
* thread jumps through empty forwarding blocks.

NOP discarding itself happens at disassembly time, per the paper's
policy of aggressively reclaiming I-cache space (section 4).
"""

from repro.isa import Instruction, Op
from repro.core.passes.base import BinaryPass


class Peepholes(BinaryPass):
    def __init__(self, round=1):
        self.round = round
        self.name = "peepholes" if round == 1 else "peepholes-2"

    def run_on_function(self, context, func):
        removed = push_pop = threaded = 0
        for block in func.blocks.values():
            out = []
            for insn in block.insns:
                if insn.op == Op.MOV_RR and insn.regs[0] == insn.regs[1]:
                    removed += 1
                    continue
                if (insn.op == Op.POP and out and out[-1].op == Op.PUSH):
                    pushed = out.pop()
                    push_pop += 1
                    if insn.regs[0] != pushed.regs[0]:
                        mov = Instruction(Op.MOV_RR,
                                          (insn.regs[0], pushed.regs[0]))
                        if insn.annotations:
                            mov.annotations = dict(insn.annotations)
                        out.append(mov)
                    continue
                out.append(insn)
            block.insns = out

        threaded += self._thread_jumps(func)
        return {"identity-moves": removed, "push-pop": push_pop,
                "threaded": threaded}

    def _thread_jumps(self, func):
        """Retarget branches whose destination block only jumps onward."""
        forward = {}
        for label, block in func.blocks.items():
            if block.is_landing_pad or label == func.entry_label:
                continue
            if len(block.insns) != 1:
                continue
            insn = block.insns[0]
            if insn.op in (Op.JMP_SHORT, Op.JMP_NEAR) and insn.label is not None:
                forward[label] = insn.label

        def final(label, seen=None):
            seen = seen or set()
            while label in forward and label not in seen:
                seen.add(label)
                label = forward[label]
            return label

        threaded = 0
        for block in func.blocks.values():
            insns = block.insns
            for i, insn in enumerate(insns):
                if insn.is_branch and insn.label in forward:
                    old = insn.label
                    new = final(old)
                    if new == old:
                        continue
                    insns[i] = insn.replace(label=new)
                    count = block.edge_counts.pop(old, 0)
                    mispred = block.edge_mispreds.pop(old, 0)
                    if old in block.successors:
                        block.successors.remove(old)
                    block.set_edge(new,
                                   block.edge_counts.get(new, 0) + count,
                                   block.edge_mispreds.get(new, 0) + mispred)
                    if block.fallthrough_label == old:
                        block.fallthrough_label = new
                    threaded += 1
        return threaded
