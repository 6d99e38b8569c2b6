"""Passes 2 & 7: identical code folding.

Complements linker ICF (paper section 4): because BOLT folds on the
*reconstructed CFG* with symbolized references, it can fold functions
the linker could not — e.g. functions with jump tables (whose table
bytes differ because they hold absolute addresses into each copy) and
functions the compiler did not place in comparable sections.
"""

from repro.core.passes.base import BinaryPass


_SELF = "__self__"


def _function_key(func, self_name):
    """A structural key: code with labels/tables normalized to indices.

    ``self_name`` (the function's own name) becomes ``"__self__"``
    wherever a name can occur, so a self-recursive function keys like
    its twin that recurses into itself: two such functions are
    identical, while a call into one of them is not.
    """
    # Every string a key can hold goes through ``own`` (even the "jt"
    # marker), so keys stay equal to renaming the finished key,
    # whatever the function is called.
    def own(value):
        return _SELF if value == self_name else value

    index = {label: i for i, label in enumerate(func.blocks)}
    table_ids = {id(t): i for i, t in enumerate(func.jump_tables)}
    # Table *addresses* appear as MOV_RI32 immediates (the dispatch base
    # materialization); normalize them so two copies of a switch-heavy
    # function compare equal even though their tables live at different
    # addresses — the folding linkers cannot do (paper section 4).
    jt = own("jt")
    table_addrs = {t.address: (jt, i) for i, t in enumerate(func.jump_tables)}
    blocks = []
    for label, block in func.blocks.items():
        insn_keys = []
        for insn in block.insns:
            table = insn.jump_table
            imm = insn.imm
            if table is not None:
                imm = None
            elif imm in table_addrs:
                imm = table_addrs[imm]
            target = insn.label
            if target is not None:
                target = index[target] if target in index else own(target)
            sym = insn.sym
            if sym is not None:
                sym = (own(sym.name), sym.addend)
            cc = insn.cc
            insn_keys.append((
                int(insn.op),
                insn.regs,
                imm,
                insn.disp,
                insn.addr,
                int(cc) if cc is not None else None,
                target,
                sym,
                table_ids.get(id(table)),
            ))
        blocks.append((
            index[label],
            tuple(insn_keys),
            tuple(index[s] if s in index else own(s)
                  for s in block.successors),
            index.get(block.fallthrough_label),
            tuple(index[lp] if lp in index else own(lp)
                  for lp in block.landing_pads),
            block.is_landing_pad,
        ))
    tables = tuple(
        tuple(index[e] if e in index else own(e) for e in t.entries)
        for t in func.jump_tables)
    record = func.frame_record
    frame = None
    if record is not None:
        frame = (record.frame_size, tuple(map(tuple, record.saved_regs)),
                 tuple((c.start, c.end, c.landing_pad, c.action)
                       for c in record.callsites))
    return (tuple(blocks), tables, frame)


def _shape(func):
    """What every key of ``func`` fixes: its block sizes and table count."""
    return (tuple(len(block.insns) for block in func.blocks.values()),
            len(func.jump_tables))


def _shape_twins(funcs):
    """The functions of ``funcs`` that share their shape with another,
    in ``funcs`` order: equal keys imply equal shapes, so no other
    function can fold or be folded into."""
    by_shape, buckets = {}, []
    for func in funcs:
        bucket = by_shape.setdefault(_shape(func), [])
        bucket.append(func)
        buckets.append(bucket)
    return [func for func, bucket in zip(funcs, buckets) if len(bucket) > 1]


class IdenticalCodeFolding(BinaryPass):
    def __init__(self, round=1):
        self.round = round
        self.name = "icf" if round == 1 else "icf-2"

    def run(self, context):
        # Folding never changes a key, so one sweep reaches the fixpoint.
        folded = 0
        saved_bytes = 0
        by_key = {}
        for func in _shape_twins(context.simple_functions()):
            key = _function_key(func, func.name)
            survivor = by_key.get(key)
            if survivor is None:
                by_key[key] = func
                continue
            func.is_folded = True
            func.folded_into = survivor
            survivor.exec_count += func.exec_count
            for label, block in func.blocks.items():
                twin = survivor.blocks.get(label)
                if twin is not None:
                    twin.exec_count += block.exec_count
                    for succ, count in block.edge_counts.items():
                        twin.edge_counts[succ] = (
                            twin.edge_counts.get(succ, 0) + count)
            folded += 1
            saved_bytes += func.size
        return {"folded": folded, "saved_bytes": saved_bytes}
