"""Function discovery (paper Figure 3, first stage).

Binds names to address ranges using the hybrid strategy of section 3.3:
the symbol table is the primary source; frame information supplies EH
metadata, and symbol sizes missing from the table (hand-written
assembly often omits them) are recovered from the next symbol's start.
"""

from repro.core.binary_function import BinaryFunction


def discover_functions(context):
    """Populate ``context.functions`` with undisassembled shells."""
    binary = context.binary
    # Its own walk, not ``binary.function_symbols()``: size-0 symbols
    # count here.
    func_syms = sorted(binary.functions(), key=lambda s: s.value)
    for index, sym in enumerate(func_syms):
        section = binary.section_at(sym.value)
        if section is None or not section.is_exec:
            continue
        size = sym.size
        if size == 0:
            # Hybrid recovery: extend to the next function or section end.
            if index + 1 < len(func_syms):
                size = func_syms[index + 1].value - sym.value
            else:
                size = section.end - sym.value
        func = BinaryFunction(sym.link_name(), sym.value, size,
                              section=section.name)
        func.raw_bytes = bytes(
            section.data[sym.value - section.addr : sym.value - section.addr + size])
        record = binary.frame_records.get(sym.link_name())
        # Copy: passes may rewrite the record (shrink-wrapping, split-eh)
        # and the input binary must stay untouched for re-runs.
        func.frame_record = record.copy() if record is not None else None
        context.add_function(func)
    return context.functions
