"""Pass 5: inline small functions.

A deliberately limited binary-level inliner, as the paper describes:
"BOLT's function inlining is a limited version of what compilers
perform at higher levels ... the remaining opportunities are typically
exposed by more accurate profile data, BOLT's indirect-call promotion,
cross-module nature, or a combination".

Only *trivial leaves* are inlined: a single block of pure register
computation (no memory access, no calls, no branches, no frame),
reading nothing but argument registers and values it defines itself,
returning in rax.  The callee body simply replaces the ``call``.
"""

from repro.isa import Op, RAX
from repro.isa.registers import ARG_REGS, CALLER_SAVED
from repro.core.dataflow import insn_uses_defs, FLAGS
from repro.core.passes.base import BinaryPass

_FRAME_OPS = frozenset({Op.PUSH, Op.POP})
#: Largest inlined body, in bytes.
MAX_SIZE = 32


def _inlineable_body(func):
    """The callee's body sans return, or None if not inlineable."""
    if not func.is_simple or len(func.blocks) != 1:
        return None
    block = next(iter(func.blocks.values()))
    if not block.insns or not block.insns[-1].is_return:
        return None
    body = block.insns[:-1]
    size = 0
    defined = set(ARG_REGS)
    wrote_rax = False
    for insn in body:
        if (insn.is_call or insn.is_branch or insn.is_return
                or insn.is_indirect_branch or insn.reads_memory
                or insn.writes_memory or insn.op in _FRAME_OPS
                or insn.op in (Op.OUT, Op.HALT, Op.TRAP)):
            return None
        uses, defs = insn_uses_defs(insn)
        if not uses <= (defined | {FLAGS}):
            return None
        if not defs <= set(CALLER_SAVED) | {FLAGS}:
            return None  # writing callee-saved regs would break the caller
        defined |= defs
        if RAX in defs:
            wrote_rax = True
        size += insn.size
    if size > MAX_SIZE or not wrote_rax:
        return None
    return body


class InlineSmall(BinaryPass):
    name = "inline-small"

    def run(self, context):
        candidates = {}
        for func in context.simple_functions():
            body = _inlineable_body(func)
            if body is not None:
                candidates[func.name] = body

        inlined = 0
        for func in context.simple_functions():
            for block in func.blocks.values():
                out = []
                for insn in block.insns:
                    if (insn.op == Op.CALL and insn.sym is not None
                            and insn.sym.name in candidates
                            and insn.sym.name != func.name):
                        for body_insn in candidates[insn.sym.name]:
                            clone = body_insn.copy()
                            clone.address = None
                            out.append(clone)
                        inlined += 1
                        continue
                    out.append(insn)
                if len(out) != len(block.insns):
                    block.insns = out
                    # Inlined bodies cannot throw: recompute which
                    # landing pads this block's remaining calls use.
                    block.landing_pads = sorted({
                        i.lp for i in out if i.is_call and i.lp is not None})
        return {"inlined": inlined}
