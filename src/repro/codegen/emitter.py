"""Function assembly (layout, branch relaxation, encoding) and object
file emission.

The assembler performs the layout-dependent work a compiler backend
does — and that BOLT's ``fixup-branches`` pass must redo after
reordering blocks (paper Table 1, pass 12):

* drop unconditional jumps to the fall-through block;
* invert a conditional branch whose taken target is the fall-through;
* relax branches between the 2-byte short and 5/6-byte long encodings
  (x86's size quirk the paper highlights in section 3.1);
* insert multi-byte alignment NOPs before loop headers.
"""

from repro.belf import (
    Binary,
    CallSiteRecord,
    FrameRecord,
    Relocation,
    RelocType,
    Section,
    SectionFlag,
    SectionType,
    Symbol,
    SymbolBind,
    SymbolType,
)
from repro.isa import Instruction, Op, encode, instruction_size, negate_cc
from repro.isa.encoding import branch_offset_fits_short

#: Byte offset and relocation type of the relocatable operand field of
#: each opcode that can carry a symbol.
SYM_SLOT = {
    Op.CALL: (1, RelocType.PC32),
    Op.JMP_NEAR: (1, RelocType.PC32),
    Op.JCC_LONG: (2, RelocType.PC32),
    Op.MOV_RI64: (2, RelocType.ABS64),
    Op.MOV_RI32: (2, RelocType.ABS32),
    Op.CMP_RI: (2, RelocType.ABS32),    # ICP's compare-against-address

    Op.LOAD_ABS: (2, RelocType.ABS32),
    Op.STORE_ABS: (2, RelocType.ABS32),
    Op.CALL_MEM: (1, RelocType.ABS32),
    Op.JMP_MEM: (1, RelocType.ABS32),
}


class FunctionImage:
    """Result of assembling one function."""

    def __init__(self, link_name):
        self.link_name = link_name
        self.code = b""
        self.relocations = []      # (offset, RelocType, symbol, addend)
        self.labels = {}           # block label -> offset
        self.line_rows = []        # (offset, file, line)
        self.callsites = []        # CallSiteRecord (offsets func-relative)
        self.insn_offsets = []     # (offset, Instruction) for inspection


def _normalize_branches(blocks):
    """Remove jumps to fall-through; invert cond branches when useful."""
    for index, block in enumerate(blocks):
        next_label = blocks[index + 1].label if index + 1 < len(blocks) else None
        insns = block.insns
        # jcc A; jmp B with A == fallthrough  =>  j!cc B
        if (len(insns) >= 2 and insns[-1].op in (Op.JMP_NEAR, Op.JMP_SHORT)
                and insns[-1].label is not None
                and insns[-2].op in (Op.JCC_LONG, Op.JCC_SHORT)
                and insns[-2].label is not None   # not a cond. tail call
                and insns[-2].label == next_label):
            jcc = insns[-2]
            jcc.cc = negate_cc(jcc.cc)
            jcc.label = insns[-1].label
            insns.pop()
        # trailing jmp to fall-through => drop (never tail-call jumps,
        # which have a symbol instead of a label)
        if (insns and insns[-1].op in (Op.JMP_NEAR, Op.JMP_SHORT)
                and insns[-1].label is not None
                and insns[-1].label == next_label):
            insns.pop()


def assemble_function(mf, normalize=True):
    """Assemble a MachineFunction into a :class:`FunctionImage`."""
    blocks = mf.blocks
    if normalize:
        _normalize_branches(blocks)

    # Relaxation: every label-targeting branch starts short and grows.
    long_form = {}
    for block in blocks:
        for insn in block.insns:
            if insn.label is not None and insn.op in (
                    Op.JMP_SHORT, Op.JMP_NEAR, Op.JCC_SHORT, Op.JCC_LONG):
                long_form[id(insn)] = False

    def size_of(insn):
        if id(insn) in long_form:
            if insn.op in (Op.JCC_SHORT, Op.JCC_LONG):
                return 6 if long_form[id(insn)] else 2
            return 5 if long_form[id(insn)] else 2
        return instruction_size(insn)

    for _ in range(64):
        offsets = {}
        pads = {}
        pos = 0
        pending = []
        for block in blocks:
            pad = 0
            if block.align > 1:
                pad = (block.align - pos % block.align) % block.align
            pads[block.label] = pad
            pos += pad
            offsets[block.label] = pos
            for insn in block.insns:
                pending.append((pos, insn))
                pos += size_of(insn)
        changed = False
        for insn_pos, insn in pending:
            if id(insn) in long_form and not long_form[id(insn)]:
                target = offsets[insn.label]
                rel = target - (insn_pos + 2)
                if not -128 <= rel <= 127:
                    long_form[id(insn)] = True
                    changed = True
        if not changed:
            break

    image = FunctionImage(mf.link_name)
    image.labels = offsets
    code = bytearray()
    last_line = None
    for block in blocks:
        pad = pads[block.label]
        if pad == 1:
            code += encode(Instruction(Op.NOP))
        elif pad > 1:
            code += encode(Instruction(Op.NOPN, imm=pad))
        for insn in block.insns:
            offset = len(code)
            if id(insn) in long_form:
                # Emit the relaxed form as a new instruction: the caller's
                # (a BOLT CFG's) branch keeps its own op, size and target.
                if insn.op in (Op.JCC_SHORT, Op.JCC_LONG):
                    op = Op.JCC_LONG if long_form[id(insn)] else Op.JCC_SHORT
                else:
                    op = Op.JMP_NEAR if long_form[id(insn)] else Op.JMP_SHORT
                insn = insn.replace(op=op, size=size_of(insn),
                                    target=offsets[insn.label])
            image.insn_offsets.append((offset, insn))

            loc = insn.loc
            if loc is not None and loc != last_line:
                image.line_rows.append((offset, loc[0], loc[1]))
                last_line = loc

            lp = insn.lp
            if lp is not None:
                image.callsites.append(
                    CallSiteRecord(offset, offset + insn.size, offsets[lp]))

            if insn.sym is not None:
                slot, rtype = SYM_SLOT[insn.op]
                image.relocations.append(
                    (offset + slot, rtype, insn.sym.name, insn.sym.addend))
                code += encode(insn, offset)
            else:
                code += encode(insn, offset)
    image.code = bytes(code)
    # Merge adjacent call sites sharing a landing pad into ranges.
    image.callsites = _merge_callsites(image.callsites)
    return image


def _merge_callsites(callsites):
    merged = []
    for cs in sorted(callsites, key=lambda c: c.start):
        if (merged and merged[-1].landing_pad == cs.landing_pad
                and merged[-1].end == cs.start):
            merged[-1].end = cs.end
        else:
            merged.append(cs)
    return merged


def _data_bytes(values, total_words):
    data = bytearray()
    for value in values:
        data += (value & ((1 << 64) - 1)).to_bytes(8, "little")
    data += b"\x00" * (8 * (total_words - len(values)))
    return bytes(data)


def emit_object(ir_module, machine_funcs, options=None):
    """Build a relocatable BELF object from assembled functions + globals."""
    binary = Binary(kind="object", name=ir_module.name)
    module = ir_module.name

    for mf in machine_funcs:
        image = assemble_function(mf)
        section_name = f".text.{mf.link_name}"
        section = Section(section_name, flags=SectionFlag.ALLOC | SectionFlag.EXEC,
                          data=image.code, align=16)
        binary.add_section(section)
        binary.add_symbol(Symbol(
            mf.name, value=0, size=len(image.code), type=SymbolType.FUNC,
            bind=SymbolBind.LOCAL if mf.static else SymbolBind.GLOBAL,
            section=section_name, module=module if mf.static else None))
        for offset, rtype, symbol, addend in image.relocations:
            binary.relocations.append(
                Relocation(section_name, offset, rtype, symbol, addend))
        if mf.has_frame_info:
            binary.frame_records[mf.link_name] = FrameRecord(
                mf.link_name, frame_size=mf.frame_size,
                saved_regs=list(mf.saved_regs), callsites=image.callsites)
        if image.line_rows:
            binary.func_line_tables[mf.link_name] = image.line_rows

        if mf.jump_tables:
            ro_name = f".rodata.{mf.link_name}"
            ro = Section(ro_name, flags=SectionFlag.ALLOC, align=8)
            binary.add_section(ro)
            for table_sym, entries in mf.jump_tables:
                offset = len(ro.data)
                for i, label in enumerate(entries):
                    binary.relocations.append(Relocation(
                        ro_name, offset + 8 * i, RelocType.ABS64,
                        mf.link_name, addend=image.labels[label]))
                ro.data += b"\x00" * (8 * len(entries))
                binary.add_symbol(Symbol(
                    table_sym, value=offset, size=8 * len(entries),
                    type=SymbolType.OBJECT, bind=SymbolBind.LOCAL,
                    section=ro_name, module=None))

    _emit_globals(binary, ir_module)
    return binary


def _emit_globals(binary, ir_module):
    module = ir_module.name
    data = rodata = bss = None
    for name, (init, const) in ir_module.global_vars.items():
        if const:
            if rodata is None:
                rodata = binary.get_or_create_section(
                    ".rodata", flags=SectionFlag.ALLOC, align=8)
            section, payload = rodata, _data_bytes([init], 1)
        else:
            if data is None:
                data = binary.get_or_create_section(
                    ".data", flags=SectionFlag.ALLOC | SectionFlag.WRITE, align=8)
            section, payload = data, _data_bytes([init], 1)
        offset = section.append(payload)
        binary.add_symbol(Symbol(name, value=offset, size=8,
                                 type=SymbolType.OBJECT, bind=SymbolBind.LOCAL,
                                 section=section.name, module=module))
    for name, (size, init, const) in ir_module.global_arrays.items():
        if const:
            if rodata is None:
                rodata = binary.get_or_create_section(
                    ".rodata", flags=SectionFlag.ALLOC, align=8)
            section = rodata
            offset = section.append(_data_bytes(init, size))
        elif not init:
            if bss is None:
                bss = binary.get_or_create_section(
                    ".bss", type=SectionType.NOBITS,
                    flags=SectionFlag.ALLOC | SectionFlag.WRITE, align=8,
                    mem_size=0)
            section = bss
            offset = section.size
            section.size = offset + 8 * size
        else:
            if data is None:
                data = binary.get_or_create_section(
                    ".data", flags=SectionFlag.ALLOC | SectionFlag.WRITE, align=8)
            section = data
            offset = section.append(_data_bytes(init, size))
        binary.add_symbol(Symbol(name, value=offset, size=8 * size,
                                 type=SymbolType.OBJECT, bind=SymbolBind.LOCAL,
                                 section=section.name, module=module))
