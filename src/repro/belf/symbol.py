"""BELF symbols."""

from repro.belf.constants import SymbolType, SymbolBind


class Symbol:
    """A named location.

    In relocatable objects ``value`` is an offset into ``section``; in
    executables it is a virtual address.  ``module`` disambiguates LOCAL
    symbols originating from different compilation units — the linker
    keeps local symbols separate per module, which is what makes
    cross-module references to local functions invisible to the linker,
    one of the relocation gaps the paper discusses in section 3.2.
    """

    def __init__(
        self,
        name,
        value=0,
        size=0,
        type=SymbolType.NOTYPE,
        bind=SymbolBind.GLOBAL,
        section=None,
        module=None,
    ):
        self.name = name
        self.value = value
        self.size = size
        self.type = SymbolType(type)
        self.bind = SymbolBind(bind)
        self.section = section
        self.module = module

    @property
    def is_local(self):
        return self.bind == SymbolBind.LOCAL

    @property
    def end(self):
        return self.value + self.size

    def contains(self, address):
        """Whether ``address`` lies within [value, value+size)."""
        return self.value <= address < self.value + self.size

    def link_name(self):
        """Name used for symbol resolution (locals are module-qualified)."""
        if self.is_local and self.module is not None:
            return f"{self.module}::{self.name}"
        return self.name

    def __repr__(self):
        return (
            f"<Symbol {self.link_name()} {self.type.name}/{self.bind.name} "
            f"value=0x{self.value:x} size={self.size} sec={self.section}>"
        )
