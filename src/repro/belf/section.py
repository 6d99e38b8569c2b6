"""BELF sections."""

from repro.belf.constants import SectionType, SectionFlag


def align_up(value, alignment):
    """``value`` rounded up to a multiple of ``alignment`` (a power of 2)."""
    return (value + alignment - 1) & ~(alignment - 1)


class Section:
    """A named byte region, optionally mapped at a virtual address.

    In relocatable objects ``addr`` is 0 and offsets are section-relative;
    the linker assigns addresses.  ``data`` is a ``bytearray`` for
    PROGBITS sections; NOBITS sections carry only ``mem_size``.
    """

    def __init__(
        self,
        name,
        type=SectionType.PROGBITS,
        flags=SectionFlag.ALLOC,
        addr=0,
        data=None,
        align=8,
        mem_size=None,
    ):
        self.name = name
        self.type = SectionType(type)
        self.flags = SectionFlag(flags)
        self.addr = addr
        self.data = bytearray(data) if data is not None else bytearray()
        self.align = align
        self._mem_size = mem_size

    @property
    def size(self):
        """Size in memory (NOBITS sections have no file data)."""
        if self.type == SectionType.NOBITS:
            return self._mem_size or 0
        return len(self.data)

    @size.setter
    def size(self, value):
        if self.type == SectionType.NOBITS:
            self._mem_size = value
        else:
            raise ValueError("size of PROGBITS sections is defined by data")

    @property
    def end(self):
        return self.addr + self.size

    @property
    def is_exec(self):
        return bool(self.flags & SectionFlag.EXEC)

    @property
    def is_alloc(self):
        return bool(self.flags & SectionFlag.ALLOC)

    @property
    def is_writable(self):
        return bool(self.flags & SectionFlag.WRITE)

    def contains(self, address):
        """Whether ``address`` falls inside this section's mapping."""
        return self.addr <= address < self.end

    def read_word(self, address):
        """The little-endian unsigned 8-byte word at mapped ``address``."""
        off = address - self.addr
        return int.from_bytes(self.data[off : off + 8], "little")

    def append(self, data):
        """Append bytes, returning the offset at which they were placed."""
        offset = len(self.data)
        self.data += data
        return offset

    def pad_to(self, align):
        """Zero-pad the section so its current end is ``align``-aligned."""
        remainder = len(self.data) % align
        if remainder:
            self.data += b"\x00" * (align - remainder)

    def __repr__(self):
        return (
            f"<Section {self.name} type={self.type.name} addr=0x{self.addr:x} "
            f"size={self.size}>"
        )
