"""BOLT's in-memory representation of functions reconstructed from a
linked binary (the BinaryFunction/BinaryBasicBlock of real BOLT).
"""


class JumpTable:
    """A recovered jump table: its data symbol/address and the labels of
    the blocks its entries dispatch to."""

    def __init__(self, address, size, entries, section):
        self.address = address          # absolute address of the table
        self.size = size                # bytes
        self.entries = entries          # list of block labels
        self.section = section          # section name holding the table

    def __repr__(self):
        return f"<JumpTable @{self.address:#x} entries={len(self.entries)}>"


class BinaryBasicBlock:
    """A basic block recovered by disassembly.

    ``insns`` contains every instruction including the terminator(s) —
    a block may end with (jcc, jmp), a lone jmp, a return, an indirect
    jump, or nothing (pure fall-through).

    CFG edges are kept as an ordered list of successor labels with
    profile annotations; ``fallthrough_label`` names the successor
    reached by not taking the final conditional branch (or by falling
    off the end).
    """

    def __init__(self, label, offset=0):
        self.label = label
        self.offset = offset            # offset in the original function
        self.insns = []
        self.successors = []            # [label]
        self.edge_counts = {}           # label -> count
        self.edge_mispreds = {}         # label -> mispredicts
        self.fallthrough_label = None
        self.exec_count = 0
        self.is_landing_pad = False
        self.landing_pads = []          # labels this block's calls may unwind to
        self.is_cold = False            # set by reorder-bbs splitting
        self.alignment = 1

    @property
    def size(self):
        return sum(insn.size for insn in self.insns)

    def terminator(self):
        """The last control-flow instruction, or None (fall-through)."""
        if self.insns and self.insns[-1].is_control_flow:
            return self.insns[-1]
        return None

    def edge_count(self, label):
        return self.edge_counts.get(label, 0)

    def set_edge(self, label, count=0, mispreds=0):
        if label not in self.successors:
            self.successors.append(label)
        self.edge_counts[label] = count
        self.edge_mispreds[label] = mispreds

    def remove_successor(self, label):
        if label in self.successors:
            self.successors.remove(label)
        self.edge_counts.pop(label, None)
        self.edge_mispreds.pop(label, None)
        if self.fallthrough_label == label:
            self.fallthrough_label = None

    def __repr__(self):
        return (f"<BB {self.label} @+{self.offset:#x} insns={len(self.insns)} "
                f"count={self.exec_count}>")


class BinaryFunction:
    """One function under rewriting.

    ``is_simple`` mirrors real BOLT: only simple functions (whose CFG
    was reconstructed with full confidence) are optimized; the rest are
    carried through unchanged (paper sections 3.1 and 6.4).
    """

    def __init__(self, name, address, size, section=".text"):
        self.name = name                # link name
        self.address = address
        self.size = size
        self.section = section
        self.is_simple = True
        self.simple_violation = None    # why the function is non-simple
        self.blocks = {}                # label -> BinaryBasicBlock (layout order)
        self.entry_label = None
        self.raw_bytes = b""            # original body (used when skipped)
        self.jump_tables = []           # [JumpTable]
        self.frame_record = None        # original FrameRecord (or None)
        self.exec_count = 0             # profile: times called
        self.profile_match = None       # fraction of branch records matched
        self.has_profile = False
        self.is_folded = False          # ICF: replaced by ``folded_into``
        self.folded_into = None
        self.is_cold_fragment = False
        self.parent = None              # for split fragments
        self.analysis_facts = {}        # pass name -> facts for lint checkers

    # -- CFG helpers --------------------------------------------------------

    def layout(self):
        """Blocks in current layout order."""
        return list(self.blocks.values())

    def block(self, label):
        return self.blocks[label]

    def add_block(self, block):
        self.blocks[block.label] = block
        if self.entry_label is None:
            self.entry_label = block.label
        return block

    def reorder(self, labels):
        assert set(labels) == set(self.blocks), "layout must be a permutation"
        assert labels[0] == self.entry_label, "entry block must stay first"
        self.blocks = {label: self.blocks[label] for label in labels}

    def predecessors(self):
        preds = {label: [] for label in self.blocks}
        for label, block in self.blocks.items():
            for succ in block.successors:
                if succ in preds:
                    preds[succ].append(label)
            for lp in block.landing_pads:
                if lp in preds:
                    preds[lp].append(label)
        return preds

    def mark_non_simple(self, reason):
        self.is_simple = False
        self.simple_violation = reason

    def total_size(self):
        """Current code size across all blocks (post-transform)."""
        return sum(block.size for block in self.blocks.values())

    def num_instructions(self):
        return sum(len(block.insns) for block in self.blocks.values())

    def hot_blocks(self, threshold=1):
        return [b for b in self.blocks.values() if b.exec_count >= threshold]

    def cold_blocks(self, threshold=1):
        return [b for b in self.blocks.values() if b.exec_count < threshold]

    def __repr__(self):
        state = "simple" if self.is_simple else f"non-simple({self.simple_violation})"
        return (f"<BinaryFunction {self.name} @{self.address:#x} size={self.size} "
                f"{state} blocks={len(self.blocks)}>")
