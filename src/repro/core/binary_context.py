"""BinaryContext: everything BOLT knows about the input binary."""

from repro.belf import SymbolType
from repro.core.diagnostics import Diagnostics


class BinaryContext:
    """Shared state for a rewriting session.

    Indexes the input executable's relocations (if the binary was
    linked with ``--emit-relocs``), data symbols and PLT stubs for fast
    lookup during disassembly and CFG construction; address -> function
    and address -> section lookups go to ``binary`` itself.
    """

    def __init__(self, binary, options):
        self.binary = binary
        self.options = options
        self.diagnostics = Diagnostics(strict=getattr(options, "strict", False))
        self.stale_profile = False
        self.profile_quality = None
        self.has_relocations = bool(binary.relocations)
        if options.use_relocations is None:
            self.use_relocations = self.has_relocations
        else:
            self.use_relocations = options.use_relocations and self.has_relocations

        # relocation index: (section name, offset) -> Relocation
        self.reloc_at = {}
        for reloc in binary.relocations:
            self.reloc_at[(reloc.section, reloc.offset)] = reloc

        # data symbol index for jump-table discovery
        self.object_by_addr = {
            s.value: s for s in binary.symbols if s.type == SymbolType.OBJECT}

        # PLT map: stub address -> (symbol name, final target address)
        self.plt_map = self._index_plt()

        self.functions = {}    # link name -> BinaryFunction (filled by discovery)
        self._build_id = None

    @property
    def build_id(self):
        """The input binary's ``content_hash``, computed on first use: a
        context describes one fixed code image."""
        if self._build_id is None:
            self._build_id = self.binary.content_hash()
        return self._build_id

    def detach_binary(self):
        """Drop the reference to the input binary once everything needed
        has been built from it.  The functions, relocation, data-symbol
        and PLT indexes and the build id stay; queries that read the
        binary itself (``function_entry_at``) stop working.  A
        detached context stored on its binary forms no reference cycle,
        so dropping the binary frees both at once."""
        self._build_id = self.build_id
        self.binary = None

    # -- address queries ------------------------------------------------------

    def function_entry_at(self, address):
        """The function whose entry point is exactly ``address``."""
        sym = self.binary.function_at(address)
        if sym is not None and sym.value == address:
            return sym
        return None

    # -- PLT ----------------------------------------------------------------------

    def _index_plt(self):
        """Decode .plt stubs: stub address -> (got address, target)."""
        from repro.isa import decode, DecodeError, Op

        plt = self.binary.get_section(".plt")
        if plt is None:
            return {}
        out = {}
        offset = 0
        data = bytes(plt.data)
        while offset < len(data):
            try:
                insn = decode(data, offset, plt.addr + offset)
            except DecodeError:
                break
            if insn.op == Op.JMP_MEM:
                got_addr = insn.addr
                target = self.binary.read_word(got_addr)
                out[plt.addr + offset] = (got_addr, target)
            offset += insn.size
        return out

    def is_plt_stub(self, address):
        return address in self.plt_map

    # -- function registry ------------------------------------------------------------

    def add_function(self, func):
        self.functions[func.name] = func
        return func

    def simple_functions(self):
        return [f for f in self.functions.values()
                if f.is_simple and not f.is_folded and not f.is_kept]

    def kept_functions(self):
        """The functions a lite-mode job left in place."""
        return [f for f in self.functions.values() if f.is_kept]
