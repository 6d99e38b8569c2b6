"""BELF relocations: the record and the one routine that applies it."""

from repro.belf.constants import RelocType

_MASK64 = (1 << 64) - 1


class Relocation:
    """A relocation against ``section`` at ``offset``.

    ``symbol`` is a link name (see :meth:`Symbol.link_name`).  The linker
    resolves relocations when producing an executable and — when asked to
    ``--emit-relocs`` — retains them in the output so a post-link
    optimizer can re-relocate code, exactly as BFD/Gold do for BOLT's
    relocations mode (paper section 3.2).
    """

    __slots__ = ("section", "offset", "type", "symbol", "addend")

    def __init__(self, section, offset, type, symbol, addend=0):
        self.section = section
        self.offset = offset
        self.type = RelocType(type)
        self.symbol = symbol
        self.addend = addend

    def __repr__(self):
        return (
            f"<Reloc {self.section}+0x{self.offset:x} {self.type.name} "
            f"{self.symbol}+{self.addend}>"
        )

    def __eq__(self, other):
        return (
            isinstance(other, Relocation)
            and self.section == other.section
            and self.offset == other.offset
            and self.type == other.type
            and self.symbol == other.symbol
            and self.addend == other.addend
        )

    def __hash__(self):
        return hash((self.section, self.offset, self.type, self.symbol, self.addend))


class RelocationOverflow(ValueError):
    """A resolved relocation does not fit its field."""

    def __init__(self, type, place):
        super().__init__(f"{type.name} overflow at {place:#x}")
        self.type = type
        self.place = place


def apply_relocation(data, offset, type, value, place):
    """Write relocation ``type`` into ``data`` at ``offset``.

    ``value`` is S + A and ``place`` is P, the field's address.  ABS64
    writes S + A modulo 2**64; ABS32 writes S + A, which must fit 32
    unsigned bits; PC32 writes S + A - (P + 4), which must fit 32 signed
    bits.  Both the static linker and the rewriter patch through here;
    a value that does not fit raises :class:`RelocationOverflow`.
    """
    if type == RelocType.ABS64:
        data[offset:offset + 8] = (value & _MASK64).to_bytes(8, "little")
    elif type == RelocType.ABS32:
        if not 0 <= value < 1 << 32:
            raise RelocationOverflow(type, place)
        data[offset:offset + 4] = value.to_bytes(4, "little")
    elif type == RelocType.PC32:
        rel = value - (place + 4)
        if not -(1 << 31) <= rel < 1 << 31:
            raise RelocationOverflow(type, place)
        data[offset:offset + 4] = rel.to_bytes(4, "little", signed=True)
    else:
        raise TypeError(f"not a RelocType: {type!r}")
