"""Pass 11: eliminate unreachable basic blocks."""

from repro.core.passes.base import BinaryPass
from repro.core.dataflow import reachable_from


class EliminateUnreachable(BinaryPass):
    def __init__(self, name="uce"):
        self.name = name

    def run_on_function(self, context, func):
        reachable = reachable_from(func, func.entry_label)
        removed = 0
        for label in list(func.blocks):
            if label in reachable:
                continue
            block = func.blocks[label]
            del func.blocks[label]
            removed += 1
            # Drop dangling edge bookkeeping elsewhere.
            for other in func.blocks.values():
                other.remove_successor(label)
                if label in other.landing_pads:
                    other.landing_pads.remove(label)
        if removed:
            # Keep only jump tables whose dispatch is still alive.
            live_tables = set()
            for block in func.blocks.values():
                for insn in block.insns:
                    table = insn.jump_table
                    if table is not None:
                        live_tables.add(id(table))
            func.jump_tables = [t for t in func.jump_tables
                                if id(t) in live_tables]
        return {"removed-blocks": removed}
