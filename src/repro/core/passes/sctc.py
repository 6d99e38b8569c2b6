"""Pass 14: simplify conditional tail calls.

Pattern (frameless dispatchers produce it — there is no epilogue to
tear down):

    jcc .L            jcc target      # conditional tail call
    ...          =>   ...
 .L: jmp target

The intermediate block usually becomes unreachable and is removed by a
follow-up UCE/fixup round.
"""

from repro.isa import Op, negate_cc
from repro.core.passes.base import BinaryPass


class SimplifyConditionalTailCalls(BinaryPass):
    name = "sctc"

    def run_on_function(self, context, func):
        # Tail-call-only blocks: a single unconditional jump to a symbol.
        tail_blocks = {}
        for label, block in func.blocks.items():
            if block.is_landing_pad or label == func.entry_label:
                continue
            if len(block.insns) != 1:
                continue
            insn = block.insns[0]
            if (insn.op in (Op.JMP_SHORT, Op.JMP_NEAR)
                    and insn.sym is not None):
                tail_blocks[label] = insn

        if not tail_blocks:
            return {}
        preds = func.predecessors()
        simplified = 0
        for block in func.blocks.values():
            insns = block.insns
            for i, insn in enumerate(insns):
                if not insn.is_cond_branch:
                    continue
                if insn.label in tail_blocks:
                    # jcc L; ... L: jmp target  =>  jcc target
                    target_jmp = tail_blocks[insn.label]
                    insns[i] = self._tail_call(insn, target_jmp)
                    block.remove_successor(insn.label)
                    func.analysis_facts.setdefault("sctc", []).append(
                        block.label)
                    simplified += 1
                elif (i == len(insns) - 1
                      and block.fallthrough_label in tail_blocks
                      and len(preds[block.fallthrough_label]) == 1):
                    # jcc L with the tail call on the fall-through path:
                    # invert so the tail call is the taken side.
                    ft = block.fallthrough_label
                    insns[i] = self._tail_call(insn, tail_blocks[ft],
                                               cc=negate_cc(insn.cc))
                    block.remove_successor(ft)
                    block.fallthrough_label = insn.label
                    func.analysis_facts.setdefault("sctc", []).append(
                        block.label)
                    simplified += 1
        return {"simplified": simplified}

    @staticmethod
    def _tail_call(insn, target_jmp, **fields):
        """``insn`` retargeted at ``target_jmp``'s symbol (a new insn)."""
        if insn.op == Op.JCC_SHORT:
            # A symbolic target needs the rel32 encoding.
            fields["op"] = Op.JCC_LONG
        call = insn.replace(label=None, sym=target_jmp.sym, **fields)
        if target_jmp.get_annotation("tailcall", "!") != "!":
            call.set_annotation("tailcall",
                                target_jmp.get_annotation("tailcall"))
        if target_jmp.get_annotation("plt") is not None:
            call.set_annotation("plt", target_jmp.get_annotation("plt"))
        return call
