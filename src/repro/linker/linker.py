"""Static linker: objects -> executable.

Feature set mirrors what the BOLT paper assumes of BFD/Gold:

* per-function input sections (``-ffunction-sections`` analog) so a
  profile-guided *function order* can be applied at link time — the
  HFSort baseline of the paper's Facebook evaluation (section 6.1);
* ``--emit-relocs``: retain (rebased) relocations in the executable,
  which is what enables BOLT's relocations mode (section 3.2).  Note
  that, exactly as the paper describes, some references are *not*
  represented: intra-function jump-table dispatch and short/near
  branches have no relocations, so a rewriter must disassemble;
* linker-level identical code folding (ICF), which BOLT's binary-level
  ICF complements (section 4);
* PLT/GOT creation for builtins and for "PIC library" objects, giving
  BOLT's ``plt`` pass its material.
"""

from repro.belf import (
    Binary,
    LineTable,
    Relocation,
    RelocationOverflow,
    RelocType,
    Section,
    SectionFlag,
    SectionType,
    Symbol,
    SymbolBind,
    SymbolType,
    TEXT_BASE,
    BUILTIN_BASE,
    FUNCTION_ALIGN,
    PAGE_SIZE,
    align_up,
    apply_relocation,
)
from repro.isa import Instruction, Op, encode

#: Simulator-native functions and their fixed addresses.
BUILTINS = {
    "__throw": BUILTIN_BASE + 0x0,
}


class LinkError(Exception):
    pass


class _InputFunc:
    def __init__(self, obj, symbol, section):
        self.obj = obj
        self.symbol = symbol
        self.section = section
        self.link_name = symbol.link_name()
        self.relocs = [r for r in obj.relocations if r.section == section.name]
        self.address = None
        self.folded_into = None

    @property
    def code(self):
        return bytes(self.section.data)

    def icf_key(self):
        return (
            self.code,
            tuple((r.offset, int(r.type), r.symbol, r.addend) for r in self.relocs),
        )


def link(
    objects,
    libs=(),
    name="a.out",
    entry="main",
    emit_relocs=False,
    function_order=None,
    icf=False,
    text_base=TEXT_BASE,
):
    """Link relocatable objects into an executable Binary.

    ``libs`` are objects whose exported functions are called through the
    PLT (PIC-archive analog).  ``function_order`` is an optional list of
    function link names defining the .text layout (HFSort at link time).
    """
    all_objects = list(objects) + list(libs)
    lib_names = set()
    for lib in libs:
        for sym in lib.symbols:
            if sym.type == SymbolType.FUNC and sym.bind == SymbolBind.GLOBAL:
                lib_names.add(sym.link_name())

    funcs, data_inputs = _collect_inputs(all_objects)
    if icf:
        _fold_identical(funcs)

    order = _layout_order(funcs, function_order)

    out = Binary(kind="exec", name=name)
    out.emit_relocs = emit_relocs

    text = Section(".text", flags=SectionFlag.ALLOC | SectionFlag.EXEC,
                   addr=text_base, align=PAGE_SIZE)
    out.add_section(text)
    out_relocs = []
    for func in order:
        text.pad_to(FUNCTION_ALIGN)
        offset = len(text.data)
        func.address = text.addr + offset
        text.data += func.section.data
        for reloc in func.relocs:
            out_relocs.append((text, offset + reloc.offset, reloc))
    for func in funcs.values():
        if func.folded_into is not None:
            func.address = func.folded_into.address

    # PLT-routed symbols: builtins plus PIC-library exports.
    plt_targets = {}
    for link_name in sorted(lib_names):
        if link_name in funcs and funcs[link_name].address is not None:
            plt_targets[link_name] = funcs[link_name].address
    for builtin, address in BUILTINS.items():
        plt_targets[builtin] = address

    got, plt_stub_addr = _build_plt(out, text, plt_targets,
                                    emit_relocs=emit_relocs)

    placement = _place_data_sections(out, data_inputs, got)

    symtab = _build_symbol_table(out, funcs, data_inputs, placement)

    resolver = _Resolver(symtab, plt_stub_addr, BUILTINS)
    _apply_relocations(out, out_relocs, data_inputs, placement, resolver,
                       keep=emit_relocs)

    _merge_metadata(out, all_objects, funcs)

    entry_addr = resolver.resolve(entry)
    if entry_addr is None:
        raise LinkError(f"undefined entry symbol {entry!r}")
    out.entry = entry_addr
    return out


def _collect_inputs(all_objects):
    funcs = {}
    data_inputs = []   # (obj, section)
    for obj in all_objects:
        for sym in obj.symbols:
            if sym.type != SymbolType.FUNC or sym.section is None:
                continue
            section = obj.get_section(sym.section)
            if not section.name.startswith(".text."):
                raise LinkError(
                    f"function {sym.name} not in a per-function section")
            func = _InputFunc(obj, sym, section)
            if func.link_name in funcs:
                raise LinkError(f"duplicate definition of {func.link_name}")
            funcs[func.link_name] = func
        for section in obj.sections.values():
            if not section.is_exec:
                data_inputs.append((obj, section))
    return funcs, data_inputs


def _fold_identical(funcs):
    """Linker ICF: deduplicate functions with identical bodies+relocs.

    The key is a function's own bytes and relocations, which folding
    changes for no function, so one sweep reaches the fixpoint and every
    ``folded_into`` is itself a survivor.
    """
    by_key = {}
    for func in funcs.values():
        survivor = by_key.setdefault(func.icf_key(), func)
        if survivor is not func:
            func.folded_into = survivor


def _layout_order(funcs, function_order):
    live = [f for f in funcs.values() if f.folded_into is None]
    if not function_order:
        return live
    rank = {name: i for i, name in enumerate(function_order)}
    fallback = len(rank)
    # Stable sort: functions absent from the order keep their input order.
    return sorted(live, key=lambda f: rank.get(f.link_name, fallback))


def _build_plt(out, text, plt_targets, emit_relocs=False):
    """Create .plt stubs and .got entries; returns the .got section and
    the stub address of each link name."""
    plt = Section(".plt", flags=SectionFlag.ALLOC | SectionFlag.EXEC,
                  addr=align_up(text.end, 16), align=16)
    got = Section(".got", flags=SectionFlag.ALLOC | SectionFlag.WRITE, align=8)
    plt_stub_addr = {}
    # .got is placed immediately after .plt so all addresses are known
    # in a single pass.
    got.addr = align_up(plt.addr + 6 * len(plt_targets), 8)
    for i, (link_name, target) in enumerate(sorted(plt_targets.items())):
        stub_offset = len(plt.data)
        stub_addr = plt.addr + stub_offset
        got_addr = got.addr + 8 * i
        insn = Instruction(Op.JMP_MEM, addr=got_addr)
        plt.data += encode(insn, stub_addr)
        got.data += target.to_bytes(8, "little")
        plt_stub_addr[link_name] = stub_addr
        if emit_relocs:
            # A post-link rewriter moving this function must be able to
            # retarget the GOT entry.
            out.relocations.append(
                Relocation(".got", 8 * i, RelocType.ABS64, link_name, 0))
    out.add_section(plt)
    out.add_section(got)
    return got, plt_stub_addr


def _place_data_sections(out, data_inputs, got):
    """Merge input data sections into .rodata/.data/.bss after .got.

    Returns the placement map: (obj id, input section name) ->
    (output section, offset).
    """
    merged = {}
    for kind, flags, stype in (
        (".rodata", SectionFlag.ALLOC, SectionType.PROGBITS),
        (".data", SectionFlag.ALLOC | SectionFlag.WRITE, SectionType.PROGBITS),
        (".bss", SectionFlag.ALLOC | SectionFlag.WRITE, SectionType.NOBITS),
    ):
        section = Section(kind, type=stype, flags=flags, align=8,
                          mem_size=0 if stype == SectionType.NOBITS else None)
        merged[kind] = section
        out.add_section(section)

    placement = {}
    for obj, section in data_inputs:
        if section.name == ".bss" or section.type == SectionType.NOBITS:
            target = merged[".bss"]
            offset = align_up(target.size, section.align)
            target.size = offset + section.size
        elif section.name.startswith(".rodata"):
            target = merged[".rodata"]
            target.pad_to(section.align)
            offset = target.append(bytes(section.data))
        else:
            target = merged[".data"]
            target.pad_to(section.align)
            offset = target.append(bytes(section.data))
        placement[(id(obj), section.name)] = (target, offset)

    addr = align_up(got.end, PAGE_SIZE)
    for kind in (".rodata", ".data", ".bss"):
        section = merged[kind]
        section.addr = addr
        addr = align_up(addr + section.size, PAGE_SIZE)
    return placement


def _build_symbol_table(out, funcs, data_inputs, placement):
    symtab = {}
    for func in funcs.values():
        address = func.address
        out.add_symbol(Symbol(
            func.symbol.name, value=address, size=func.symbol.size,
            type=SymbolType.FUNC, bind=func.symbol.bind,
            section=".text", module=func.symbol.module))
        symtab[func.link_name] = address
    for obj, section in data_inputs:
        target, base_offset = placement[(id(obj), section.name)]
        for sym in obj.symbols:
            if sym.type != SymbolType.OBJECT or sym.section != section.name:
                continue
            address = target.addr + base_offset + sym.value
            out.add_symbol(Symbol(
                sym.name, value=address, size=sym.size, type=SymbolType.OBJECT,
                bind=sym.bind, section=target.name, module=sym.module))
            symtab[sym.link_name()] = address
    return symtab


class _Resolver:
    def __init__(self, symtab, plt_stub_addr, builtins):
        self.symtab = symtab
        self.plt_stub_addr = plt_stub_addr
        self.builtins = builtins

    def resolve(self, link_name, for_call=False):
        """Address of a symbol; calls to PLT-routed names get the stub."""
        if for_call and link_name in self.plt_stub_addr:
            # Calls to builtins/PIC libraries go through the PLT.
            return self.plt_stub_addr[link_name]
        if link_name in self.symtab:
            return self.symtab[link_name]
        if link_name in self.builtins:
            return self.builtins[link_name]
        if link_name in self.plt_stub_addr:
            return self.plt_stub_addr[link_name]
        return None


def _apply_relocations(out, text_relocs, data_inputs, placement, resolver,
                       keep):
    def apply_one(section, offset, reloc):
        target = resolver.resolve(
            reloc.symbol, for_call=(reloc.type == RelocType.PC32))
        if target is None:
            raise LinkError(f"undefined symbol {reloc.symbol!r}")
        try:
            apply_relocation(section.data, offset, reloc.type,
                             target + reloc.addend, section.addr + offset)
        except RelocationOverflow as exc:
            raise LinkError(
                f"{reloc.type.name} overflow for {reloc.symbol}") from exc
        if keep:
            out.relocations.append(
                Relocation(section.name, offset, reloc.type, reloc.symbol,
                           reloc.addend))

    for section, offset, reloc in text_relocs:
        apply_one(section, offset, reloc)
    for obj, section in data_inputs:
        if section.type == SectionType.NOBITS:
            continue
        target, base_offset = placement[(id(obj), section.name)]
        for reloc in obj.relocations:
            if reloc.section != section.name:
                continue
            apply_one(target, base_offset + reloc.offset, reloc)


def _merge_metadata(out, all_objects, funcs):
    table = LineTable()
    for obj in all_objects:
        for link_name, rows in obj.func_line_tables.items():
            func = funcs.get(link_name)
            if func is None or func.folded_into is not None:
                continue
            base = func.address
            for offset, file, line in rows:
                table.add(base + offset, file, line)
        for link_name, record in obj.frame_records.items():
            func = funcs.get(link_name)
            if func is None:
                continue
            if func.folded_into is not None:
                # ICF alias: the symbol covers the survivor's bytes, and
                # the unwinder may resolve addresses to either name.  The
                # survivor's record is byte-identical by construction.
                survivor = func.folded_into
                alias = (survivor.obj.frame_records.get(survivor.link_name)
                         or record)
                clone = alias.copy()
                clone.func = link_name
                out.frame_records[link_name] = clone
                continue
            out.frame_records[link_name] = record.copy()
    out.line_table = table
