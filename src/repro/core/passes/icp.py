"""Pass 3: indirect call promotion.

Uses LBR-derived per-callsite target distributions (annotated during
profile attachment; unavailable in non-LBR mode, paper section 5.3) to
turn hot indirect calls into a compare-and-direct-call fast path:

    callq *%r10                cmpq $target, %r10
                               jne  .LICPf
                         =>    callq target        # direct, inlinable
                               jmp  .LICPj
                        .LICPf: callq *%r10
                        .LICPj: ...

The direct call also becomes visible to inline-small (paper section 4:
"remaining inlining opportunities ... exposed by BOLT's indirect-call
promotion").
"""

from repro.isa import Instruction, Op, CondCode, SymRef
from repro.core.binary_function import BinaryBasicBlock
from repro.core.passes.base import BinaryPass


class IndirectCallPromotion(BinaryPass):
    name = "icp"

    def run_on_function(self, context, func):
        if not func.has_profile:
            return {}
        promoted = 0
        top_n = context.options.icp_top_n
        for label in list(func.blocks):
            block = func.blocks[label]
            for index, insn in enumerate(block.insns):
                if insn.op != Op.CALL_REG:
                    continue
                targets = insn.get_annotation("call-targets")
                if not targets:
                    continue
                total = sum(targets.values())
                best = sorted(targets.items(), key=lambda kv: (-kv[1], kv[0]))
                best = [(name, count) for name, count in best[:top_n]
                        if count * 2 >= total]  # promote only if >= 50% hot
                if not best or total < context.options.hot_threshold:
                    continue
                # Promotion trades I-cache bytes for prediction: only
                # worth it when the BTB actually struggles at this site.
                mispreds = insn.get_annotation("call-mispreds") or 0
                if mispreds < context.options.icp_mispredict_threshold * total:
                    continue
                self._promote(context, func, block, index, insn, best)
                promoted += 1
                break  # block structure changed; revisit on next pass run
        return {"promoted": promoted}

    def _promote(self, context, func, block, index, insn, targets):
        reg = insn.regs[0]
        suffix = f"{len(func.blocks)}"
        join = BinaryBasicBlock(f".LICPj{suffix}")
        join.insns = block.insns[index + 1 :]
        join.exec_count = block.exec_count
        join.successors = block.successors
        join.edge_counts = block.edge_counts
        join.edge_mispreds = block.edge_mispreds
        join.fallthrough_label = block.fallthrough_label
        join.landing_pads = [
            lp for lp in block.landing_pads
            if any(i.get_annotation("lp") == lp for i in join.insns)]

        block.insns = block.insns[:index]
        block.successors = []
        block.edge_counts = {}
        block.edge_mispreds = {}

        lp = insn.get_annotation("lp")
        remaining = dict(insn.get_annotation("call-targets"))
        total = sum(remaining.values())
        current = block
        for i, (target, count) in enumerate(targets):
            fallback_label = f".LICPf{suffix}_{i}"
            direct_label = f".LICPd{suffix}_{i}"
            cmp = Instruction(Op.CMP_RI, (reg,), imm=0,
                              sym=SymRef(target, "imm32"))
            jcc = Instruction(Op.JCC_LONG, cc=CondCode.NE, label=fallback_label)
            current.insns.extend([cmp, jcc])
            current.set_edge(fallback_label, max(0, total - count))
            current.fallthrough_label = direct_label
            current.set_edge(direct_label, count)
            current.exec_count = total

            direct = BinaryBasicBlock(direct_label)
            call = Instruction(Op.CALL, sym=SymRef(target, "branch"))
            if insn.annotations:
                call.annotations = dict(insn.annotations)
                call.annotations.pop("call-targets", None)
                call.annotations.pop("call-mispreds", None)
            # The hot direct path falls through into the join; only the
            # fallback (placed out of line) needs a jump back.
            direct.insns = [call]
            direct.exec_count = count
            direct.fallthrough_label = join.label
            direct.set_edge(join.label, count)
            if lp is not None:
                direct.landing_pads.append(lp)
            func.blocks[direct_label] = direct

            fallback = BinaryBasicBlock(fallback_label)
            fallback.exec_count = max(0, total - count)
            func.blocks[fallback_label] = fallback
            remaining.pop(target, None)
            total = max(0, total - count)
            current = fallback

        # The final fallback keeps the original indirect call.
        indirect = insn.with_annotation("call-targets", remaining or None)
        current.insns.append(indirect)
        current.fallthrough_label = join.label
        current.set_edge(join.label, current.exec_count)
        if lp is not None:
            current.landing_pads.append(lp)

        func.blocks[join.label] = join
        # Layout: hot direct path falls straight through to the join;
        # fallback blocks go out of line at the end of the function.
        order = []
        for existing in list(func.blocks):
            if existing == join.label or existing.startswith(
                    (f".LICPd{suffix}_", f".LICPf{suffix}_")):
                continue
            order.append(existing)
            if existing == block.label:
                order.append(f".LICPd{suffix}_0")
                order.append(join.label)
        for i in range(1, len(targets)):
            order.append(f".LICPd{suffix}_{i}")
        for i in range(len(targets)):
            order.append(f".LICPf{suffix}_{i}")
        func.blocks = {l: func.blocks[l] for l in order}
