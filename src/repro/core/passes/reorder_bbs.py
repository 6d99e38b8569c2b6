"""Pass 9: reorder basic blocks + hot/cold splitting.

The layout optimization at the heart of BOLT (paper section 4):
blocks are reordered so the hottest successor falls through, and
never-executed blocks are marked cold so the rewriter can split them
into a separate section (``-split-functions`` / ``-split-all-cold`` /
``-split-eh``), tightly packing hot code (Figure 9).
"""

from repro.core.passes.base import BinaryPass
from repro.core.layout_algos import order_blocks


class ReorderBasicBlocks(BinaryPass):
    name = "reorder-bbs"

    def run_on_function(self, context, func):
        options = context.options
        if options.reorder_blocks == "none":
            return {}
        if not func.has_profile and options.reorder_blocks != "reverse":
            return {"skipped-no-profile": 1}

        before = list(func.blocks)
        # Sampled profiles are noisy: the flow-repair surplus (section
        # 5.2) can leak a fraction of a percent of flow into paths that
        # never ran.  Treat anything below 0.5% of the hottest block as
        # cold, with the configured floor.
        max_count = max((b.exec_count for b in func.blocks.values()),
                        default=0)
        threshold = max(options.hot_threshold, int(max_count * 0.005))
        order = order_blocks(func, options.reorder_blocks,
                             hot_threshold=threshold)
        func.reorder(order)
        changed = int(order != before)

        split = 0
        if options.split_functions > 0 and func.has_profile:
            for label, block in func.blocks.items():
                if label == func.entry_label:
                    continue
                cold = block.exec_count < threshold
                if not options.split_all_cold and options.split_functions < 3:
                    # Conservative splitting: only split blocks with no
                    # profile activity at all *and* large bodies.
                    cold = cold and block.size >= 16
                if cold:
                    block.is_cold = True
                    split += 1
        return {"reordered": changed, "cold-blocks": split}
