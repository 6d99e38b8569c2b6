"""BELF: a simplified ELF-like object/executable container.

BELF plays the role ELF plays in the BOLT paper: it carries the machine
code plus the metadata BOLT's rewriting pipeline is driven by —
symbol tables (function discovery), relocations (``--emit-relocs``
relocations mode), frame information (CFI-lite records used for
function-boundary discovery and exception unwinding, section 3.4), and
line-number debug info (AutoFDO profile mapping and
``-update-debug-sections``).
"""

from repro.belf.constants import (
    SectionType,
    SectionFlag,
    SymbolType,
    SymbolBind,
    RelocType,
    TEXT_BASE,
    STACK_TOP,
    STACK_SIZE,
    BUILTIN_BASE,
    PAGE_SIZE,
    FUNCTION_ALIGN,
    TEXT_COLD,
    TEXT_ORG,
)
from repro.belf.section import Section, align_up
from repro.belf.symbol import Symbol
from repro.belf.relocation import (
    Relocation,
    RelocationOverflow,
    apply_relocation,
)
from repro.belf.frameinfo import FrameRecord, CallSiteRecord
from repro.belf.linetable import LineTable, LineEntry
from repro.belf.binary import Binary
from repro.belf.serialize import write_binary, read_binary, BelfFormatError

__all__ = [
    "SectionType",
    "SectionFlag",
    "SymbolType",
    "SymbolBind",
    "RelocType",
    "TEXT_BASE",
    "STACK_TOP",
    "STACK_SIZE",
    "BUILTIN_BASE",
    "PAGE_SIZE",
    "FUNCTION_ALIGN",
    "TEXT_COLD",
    "TEXT_ORG",
    "Section",
    "align_up",
    "Symbol",
    "Relocation",
    "RelocationOverflow",
    "apply_relocation",
    "FrameRecord",
    "CallSiteRecord",
    "LineTable",
    "LineEntry",
    "Binary",
    "write_binary",
    "read_binary",
    "BelfFormatError",
]
