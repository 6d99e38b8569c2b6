"""Constants shared by the BELF format, the linker and the loader."""

import enum


class SectionType(enum.IntEnum):
    NULL = 0
    PROGBITS = 1   # code or initialized data
    NOBITS = 2     # .bss
    SYMTAB = 3
    RELA = 4
    FRAME = 5      # CFI-lite frame records (.eh_frame analog)
    LINES = 6      # line-number debug info (.debug_line analog)


class SectionFlag(enum.IntFlag):
    NONE = 0
    ALLOC = 1      # occupies memory at run time
    WRITE = 2
    EXEC = 4


class SymbolType(enum.IntEnum):
    NOTYPE = 0
    FUNC = 1
    OBJECT = 2
    SECTION = 3


class SymbolBind(enum.IntEnum):
    LOCAL = 0
    GLOBAL = 1


class RelocType(enum.IntEnum):
    #: 8-byte absolute: mem64[P] = S + A
    ABS64 = 0
    #: 4-byte absolute: mem32[P] = S + A
    ABS32 = 1
    #: 4-byte pc-relative: mem32[P] = S + A - (P + 4).
    #: Matches BX86 branch semantics: the rel32 field is always the last
    #: 4 bytes of the instruction, and offsets are measured from the
    #: instruction's end.
    PC32 = 2


#: Default virtual address where the linker places .text.
TEXT_BASE = 0x10000

#: Top of the runtime stack (grows down).
STACK_TOP = 0x8000000
STACK_SIZE = 0x100000

#: Base address of the simulator-native builtin functions (e.g. __throw).
BUILTIN_BASE = 0xF0000000

#: Virtual memory page size used by the TLB models.
PAGE_SIZE = 4096

#: Start alignment of every function the linker or BOLT places in text.
FUNCTION_ALIGN = 16

#: Section names with conventional roles.
TEXT = ".text"
TEXT_COLD = ".text.cold"
#: Where a lite-mode rewrite in relocations mode keeps the input's
#: ``.text``: the bodies it left in place run from here (llvm-bolt's name).
TEXT_ORG = ".bolt.org.text"
RODATA = ".rodata"
DATA = ".data"
BSS = ".bss"
PLT = ".plt"
GOT = ".got"
