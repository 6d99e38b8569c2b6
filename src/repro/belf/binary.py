"""The BELF container: sections + symbols + relocations + metadata."""

import hashlib
from bisect import bisect_right

from repro.belf.constants import SymbolType
from repro.belf.section import Section


class Binary:
    """A relocatable object or linked executable.

    Attributes:
        kind: ``"object"`` or ``"exec"``.
        sections: name -> :class:`Section` (insertion-ordered).
        symbols: list of :class:`Symbol`.
        relocations: list of :class:`Relocation`.  For executables this
            is only populated when the linker was invoked with
            ``emit_relocs=True`` (paper section 3.2).
        frame_records: func link-name -> :class:`FrameRecord`.
        line_table: :class:`LineTable` or None.
        entry: entry-point address (exec) or symbol name (object).
        emit_relocs: whether relocations were preserved post-link.

    Once a binary is in use — simulated, or matched against by the
    fleet aggregator — treat it as immutable and edit a copy instead
    (``read_binary(write_binary(binary))``): the simulator's per-binary
    trace cache never re-checks it, and the aggregator's matching
    context notices only changes that :meth:`content_hash` covers.

    The binary owns its address map, the one address -> function rule
    that CFG building, perf2bolt's sample mapping, the unwinder and the
    lint checks share: :meth:`function_symbols` is built on first use
    and :meth:`function_at` bisects it.  :meth:`add_symbol` drops it;
    whoever edits a symbol in place (its value, size or type) calls
    :meth:`invalidate_symbol_cache`.
    """

    def __init__(self, kind="object", name=""):
        self.kind = kind
        self.name = name
        self.sections = {}
        self.symbols = []
        self.relocations = []
        self.frame_records = {}
        self.line_table = None
        self.entry = None
        self.emit_relocs = False
        #: objects only: func link name -> [(offset, file, line)] rows,
        #: offsets relative to the function's section.  The linker folds
        #: these into the executable's flat ``line_table``.
        self.func_line_tables = {}
        self._symbols_by_link_name = None
        #: ``(starts, symbols)`` of :meth:`function_symbols`, or None.
        self._function_index = None
        #: ``(content hash, BinaryContext)``: the CFGs the fleet
        #: aggregator matches shards against, built on first need
        #: (``repro.profiling.aggregate``).  The context is detached
        #: from this binary, so the two are freed together.
        self._matching_context = None

    # -- sections ---------------------------------------------------------

    def add_section(self, section):
        if section.name in self.sections:
            raise ValueError(f"duplicate section {section.name}")
        self.sections[section.name] = section
        return section

    def get_or_create_section(self, name, **kwargs):
        if name in self.sections:
            return self.sections[name]
        return self.add_section(Section(name, **kwargs))

    def get_section(self, name):
        return self.sections.get(name)

    def section_at(self, address):
        """The ALLOC section mapping ``address``, or None."""
        for section in self.sections.values():
            if section.addr <= address < section.end and section.is_alloc:
                return section
        return None

    def read_word(self, address):
        """Read a little-endian 8-byte word at a mapped address."""
        section = self.section_at(address)
        if section is None:
            raise KeyError(f"address 0x{address:x} not mapped")
        return section.read_word(address)

    # -- symbols ----------------------------------------------------------

    def add_symbol(self, symbol):
        self.symbols.append(symbol)
        self.invalidate_symbol_cache()
        return symbol

    def _link_name_map(self):
        if self._symbols_by_link_name is None:
            self._symbols_by_link_name = {}
            for sym in self.symbols:
                self._symbols_by_link_name.setdefault(sym.link_name(), sym)
        return self._symbols_by_link_name

    def get_symbol(self, link_name):
        """Look up a symbol by link name (module-qualified for locals)."""
        return self._link_name_map().get(link_name)

    def invalidate_symbol_cache(self):
        """Drop the symbol indexes; call after editing a symbol in place."""
        self._symbols_by_link_name = None
        self._function_index = None

    def functions(self):
        """All FUNC symbols."""
        return [s for s in self.symbols if s.type == SymbolType.FUNC]

    def _function_map(self):
        if self._function_index is None:
            syms = tuple(sorted(
                (s for s in self.symbols
                 if s.type == SymbolType.FUNC and s.size > 0),
                key=lambda s: s.value))
            self._function_index = ([s.value for s in syms], syms)
        return self._function_index

    def function_symbols(self):
        """The FUNC symbols with a size, by address (a stable sort, so
        aliases keep their symbol-table order)."""
        return self._function_map()[1]

    def function_at(self, address):
        """The FUNC symbol whose range contains ``address``, or None:
        the last of :meth:`function_symbols` starting at or below it,
        if it reaches ``address``."""
        starts, syms = self._function_map()
        idx = bisect_right(starts, address) - 1
        if idx < 0:
            return None
        sym = syms[idx]
        return sym if sym.contains(address) else None

    # -- misc ---------------------------------------------------------------

    def content_hash(self):
        """A build id: stable hash of executable code + function symbols.

        Profiles are stamped with the id of the binary they were
        collected on; the BOLT pipeline compares it against the binary
        being optimized to detect stale (cross-build) profiles.  Only
        code-identity inputs participate: section bytes and addresses
        of executable sections, plus FUNC symbol placement.
        """
        h = hashlib.sha256()
        for section in self.sections.values():
            if not section.is_exec:
                continue
            h.update(section.name.encode())
            h.update(section.addr.to_bytes(8, "little"))
            h.update(bytes(section.data))
        for sym in sorted(self.functions(),
                          key=lambda s: (s.link_name(), s.value)):
            h.update(sym.link_name().encode())
            h.update(sym.value.to_bytes(8, "little", signed=False))
            h.update(sym.size.to_bytes(8, "little", signed=False))
        return h.hexdigest()[:16]

    @property
    def is_executable(self):
        return self.kind == "exec"

    def text_size(self):
        """Total size of executable sections."""
        return sum(s.size for s in self.sections.values() if s.is_exec)

    def __repr__(self):
        return (
            f"<Binary {self.name!r} kind={self.kind} sections={list(self.sections)} "
            f"symbols={len(self.symbols)} relocs={len(self.relocations)}>"
        )
