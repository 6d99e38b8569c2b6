"""Pass 1: strip-rep-ret.

Replaces 2-byte ``repz retq`` returns (emitted for legacy AMD branch
predictors) with plain 1-byte ``retq``, trading optional instruction
padding for I-cache space (paper section 4's aggressive I-cache
occupation policy).
"""

from repro.isa import Op
from repro.core.passes.base import BinaryPass


class StripRepRet(BinaryPass):
    name = "strip-rep-ret"

    def run_on_function(self, context, func):
        stripped = 0
        for block in func.blocks.values():
            insns = block.insns
            for i, insn in enumerate(insns):
                if insn.op == Op.REPZ_RET:
                    insns[i] = insn.replace(op=Op.RET)
                    stripped += 1
        return {"stripped": stripped}
