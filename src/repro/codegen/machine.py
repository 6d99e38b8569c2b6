"""Machine-level function representation (post-isel, pre-assembly)."""


class MachineBlock:
    """A label plus its instruction list.

    ``align`` requests NOP padding so the block starts at a multiple of
    that value.  ``is_loop_header`` / ``is_landing_pad`` carry layout
    metadata to the assembler and debug tooling.
    """

    def __init__(self, label):
        self.label = label
        self.insns = []
        self.align = 1
        self.is_landing_pad = False
        self.is_loop_header = False
        self.count = None  # profile count carried through for layout

    def __repr__(self):
        return f"<MachineBlock {self.label} ({len(self.insns)} insns)>"


class MachineFunction:
    """One function's machine code before assembly.

    Branch instructions reference block labels through
    ``Instruction.label``; external references use ``Instruction.sym``.
    """

    def __init__(self, name, link_name, static=False):
        self.name = name
        self.link_name = link_name
        self.static = static
        self.blocks = []             # list of MachineBlock, layout order
        self.frame_size = 0
        self.saved_regs = []         # [(reg, rbp_offset)]
        self.has_frame_info = True
        self.jump_tables = []        # [(table_symbol, [block labels])]
        self.source_file = None

    def block(self, label):
        for block in self.blocks:
            if block.label == label:
                return block
        raise KeyError(label)

    def __repr__(self):
        return f"<MachineFunction {self.link_name} blocks={len(self.blocks)}>"
