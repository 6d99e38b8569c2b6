"""Pass 6: simplify-ro-loads.

Loads from statically-known read-only data become immediate moves,
trading D-cache pressure for I-cache bytes.  Per the paper's policy the
promotion is *aborted* whenever the new encoding would be larger than
the original load: on BX86 a ``LOAD_ABS`` is 6 bytes and a ``MOV_RI32``
is 6 bytes (fine), but values needing ``MOV_RI64`` (10 bytes) are
rejected.
"""

from repro.isa import Op
from repro.core.passes.base import BinaryPass

_I32_MIN, _I32_MAX = -(1 << 31), (1 << 31) - 1


class SimplifyRoLoads(BinaryPass):
    name = "simplify-ro-loads"

    def prepare(self, context):
        # Jump-table slots are collected once per pass run (they used to
        # be rescanned across every function, per function) and only
        # read by the per-function loop.
        table_addrs = set()
        for other in context.functions.values():
            for table in other.jump_tables:
                table_addrs.update(range(table.address,
                                         table.address + table.size, 8))
        self._table_addrs = table_addrs

    def run_on_function(self, context, func):
        converted = aborted = 0
        table_addrs = self._table_addrs
        for block in func.blocks.values():
            insns = block.insns
            for i, insn in enumerate(insns):
                if insn.op != Op.LOAD_ABS or insn.sym is not None:
                    continue
                section = context.binary.section_at(insn.addr)
                if (section is None or section.is_writable
                        or section.is_exec
                        or not section.name.startswith(".rodata")):
                    continue
                if insn.addr in table_addrs:
                    continue  # jump tables get rewritten; never fold them
                value = section.read_word(insn.addr)
                if value >= 1 << 63:
                    value -= 1 << 64
                if not _I32_MIN <= value <= _I32_MAX:
                    aborted += 1  # would need a 10-byte MOV_RI64
                    continue
                insns[i] = insn.replace(op=Op.MOV_RI32, imm=value, addr=None)
                converted += 1
        return {"converted": converted, "aborted": aborted}
