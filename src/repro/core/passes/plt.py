"""Pass 8: remove indirection from PLT calls.

Calls routed through PLT stubs (``call stub; stub: jmp *GOT``) cost an
extra jump plus a data-cache access to the GOT on every call.  At
post-link time the GOT values are known, so BOLT redirects the call to
the final target — unless the target is out of direct-call range
(our simulator builtins live at 0xF0000000, beyond rel32 reach, exactly
like functions in real external DSOs).
"""

from repro.belf import BUILTIN_BASE
from repro.isa import SymRef
from repro.core.passes.base import BinaryPass

#: Farthest a rel32 call can reach.
_REL32_RANGE = (1 << 31) - 1


class PLTCalls(BinaryPass):
    name = "plt"

    def run_on_function(self, context, func):
        optimized = skipped = 0
        for block in func.blocks.values():
            insns = block.insns
            for i, insn in enumerate(insns):
                plt = insn.get_annotation("plt")
                if plt is None:
                    continue
                got_addr, final_target = plt
                if final_target >= BUILTIN_BASE or final_target > _REL32_RANGE:
                    skipped += 1
                    continue
                entry = context.function_entry_at(final_target)
                if entry is None:
                    skipped += 1
                    continue
                direct = insn.replace(sym=SymRef(entry.link_name(), "branch"))
                direct.set_annotation("plt", None)
                direct.set_annotation("plt-optimized", True)
                insns[i] = direct
                optimized += 1
        return {"optimized": optimized, "skipped": skipped}
