"""IR optimization passes (-O2 analog).

Profile metadata (``block.count`` / ``func.edge_counts``) is maintained
through the transformations, because the FDO builds attach the profile
*before* optimizing — mirroring real compilers, including the places
where counts degrade to approximations.
"""

from repro.ir.ir import IRInst, Imm, CMP_OPS

_MASK = (1 << 64) - 1


def _wrap(value):
    value &= _MASK
    return value - (1 << 64) if value >= 1 << 63 else value


def _divide(a, b):
    quotient = abs(a) // abs(b)
    return _wrap(-quotient if (a < 0) != (b < 0) else quotient)


def _remainder(a, b):
    quotient = abs(a) // abs(b)
    quotient = -quotient if (a < 0) != (b < 0) else quotient
    return _wrap(a - _wrap(quotient * b))


#: BC's binary operators with 64-bit wrapping semantics, shared by
#: constant folding and the BC interpreter.  ``/`` and ``%`` truncate
#: toward zero and need a nonzero divisor; ``u``-prefixed comparisons
#: (IR only) compare the unsigned view.
BINARY_OPS = {
    "+": lambda a, b: _wrap(a + b),
    "-": lambda a, b: _wrap(a - b),
    "*": lambda a, b: _wrap(a * b),
    "/": _divide,
    "%": _remainder,
    "&": lambda a, b: _wrap(a & b),
    "|": lambda a, b: _wrap(a | b),
    "^": lambda a, b: _wrap(a ^ b),
    "<<": lambda a, b: _wrap(a << (b & 63)),
    # BC's >> is an arithmetic (sign-preserving) shift.
    ">>": lambda a, b: _wrap(a >> (b & 63)),
    "==": lambda a, b: 1 if a == b else 0,
    "!=": lambda a, b: 1 if a != b else 0,
    "<": lambda a, b: 1 if a < b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    ">": lambda a, b: 1 if a > b else 0,
    ">=": lambda a, b: 1 if a >= b else 0,
    "u<": lambda a, b: 1 if (a & _MASK) < (b & _MASK) else 0,
    "u<=": lambda a, b: 1 if (a & _MASK) <= (b & _MASK) else 0,
    "u>": lambda a, b: 1 if (a & _MASK) > (b & _MASK) else 0,
    "u>=": lambda a, b: 1 if (a & _MASK) >= (b & _MASK) else 0,
}


def eval_binop(oper, a, b):
    """Constant-fold a binary operation with 64-bit wrapping semantics.

    Returns None when the result is not defined (division by zero) —
    the instruction must be kept so the trap happens at run time.
    """
    if b == 0 and oper in ("/", "%"):
        return None
    apply = BINARY_OPS.get(oper)
    if apply is None:
        raise ValueError(f"unknown operator {oper}")
    return apply(a, b)


# -- local constant/copy propagation ------------------------------------------


def _propagate_block(block):
    """Forward const/copy propagation and folding within one block."""
    consts = {}   # vreg -> int
    copies = {}   # vreg -> vreg
    changed = False

    def resolve(operand):
        if operand is None or isinstance(operand, Imm):
            return operand
        seen = set()
        while operand in copies and operand not in seen:
            seen.add(operand)
            operand = copies[operand]
        if operand in consts:
            return Imm(consts[operand])
        return operand

    def kill(vreg):
        consts.pop(vreg, None)
        copies.pop(vreg, None)
        for key in [k for k, v in copies.items() if v == vreg]:
            del copies[key]

    new_insts = []
    for inst in block.insts:
        original, a, b, args = inst, inst.a, inst.b, inst.args
        inst.a = resolve(a)
        inst.b = resolve(b)
        if args:
            inst.args = [resolve(arg) for arg in args]
        # Resolving can return an equal operand (a copy cycle); only a
        # different value, or a replaced instruction, is a change.
        if inst.a != a or inst.b != b or inst.args != args:
            changed = True

        if inst.kind == "binop" and isinstance(inst.a, Imm) and isinstance(inst.b, Imm):
            folded = eval_binop(inst.oper, inst.a.value, inst.b.value)
            if folded is not None:
                inst = IRInst("const", dst=inst.dst, value=folded, loc=inst.loc)
        elif inst.kind == "binop":
            inst = _algebraic(inst)
        elif inst.kind == "unop" and isinstance(inst.a, Imm):
            value = -inst.a.value if inst.oper == "-" else (0 if inst.a.value else 1)
            inst = IRInst("const", dst=inst.dst, value=_wrap(value), loc=inst.loc)

        if inst.dst is not None:
            kill(inst.dst)
        if inst.kind == "const":
            consts[inst.dst] = inst.value
        elif inst.kind == "mov":
            if isinstance(inst.a, Imm):
                inst = IRInst("const", dst=inst.dst, value=inst.a.value, loc=inst.loc)
                consts[inst.dst] = inst.value
            elif inst.a == inst.dst:
                changed = True
                continue  # self-move
            else:
                copies[inst.dst] = inst.a
        if inst is not original:
            changed = True
        new_insts.append(inst)

    block.insts = new_insts
    term = block.terminator
    if term is not None:
        term.a = resolve(term.a)
        term.b = resolve(term.b)
    return changed


def _algebraic(inst):
    """Strength-reduce trivial identities."""
    if isinstance(inst.b, Imm):
        b = inst.b.value
        if inst.oper in ("+", "-", "|", "^", "<<", ">>") and b == 0:
            return IRInst("mov", dst=inst.dst, a=inst.a, loc=inst.loc)
        if inst.oper == "*" and b == 1:
            return IRInst("mov", dst=inst.dst, a=inst.a, loc=inst.loc)
        if inst.oper == "*" and b == 0 and not isinstance(inst.a, Imm):
            return IRInst("const", dst=inst.dst, value=0, loc=inst.loc)
        if inst.oper == "/" and b == 1:
            return IRInst("mov", dst=inst.dst, a=inst.a, loc=inst.loc)
    return inst


# -- local common-subexpression elimination ---------------------------------------


def _local_cse(block):
    """Reuse previously computed pure values within one block.

    Expressions are keyed by (kind, oper, operands); available
    expressions are invalidated when an operand is redefined.  Loads
    from globals participate until a store or call clobbers memory.
    """
    available = {}   # key -> vreg holding the value
    by_operand = {}  # vreg -> set of keys mentioning it
    changed = False

    def invalidate_reg(vreg):
        for key in by_operand.pop(vreg, ()):
            available.pop(key, None)

    def invalidate_memory():
        for key in [k for k in available if k[0] in ("loadg", "loadidx")]:
            del available[key]

    def operand_key(operand):
        return ("i", operand.value) if isinstance(operand, Imm) else ("r", operand)

    new_insts = []
    for inst in block.insts:
        key = None
        if inst.kind == "binop" and inst.oper not in ("/", "%"):
            key = ("binop", inst.oper, operand_key(inst.a), operand_key(inst.b))
        elif inst.kind == "unop":
            key = ("unop", inst.oper, operand_key(inst.a))
        elif inst.kind == "loadg":
            key = ("loadg", inst.sym)
        elif inst.kind == "loadidx":
            key = ("loadidx", inst.sym, operand_key(inst.a))
        elif inst.kind == "funcaddr":
            key = ("funcaddr", inst.sym)

        if key is not None and key in available:
            source = available[key]
            if source != inst.dst:
                new_insts.append(IRInst("mov", dst=inst.dst, a=source,
                                        loc=inst.loc))
            changed = True
            if inst.dst is not None:
                invalidate_reg(inst.dst)
            continue

        if inst.kind in ("storeg", "storeidx") or inst.is_call:
            invalidate_memory()
        if inst.kind == "throw":
            invalidate_memory()
        if inst.dst is not None:
            invalidate_reg(inst.dst)
        if key is not None:
            available[key] = inst.dst
            for operand in (inst.a, inst.b):
                if operand is not None and not isinstance(operand, Imm):
                    by_operand.setdefault(operand, set()).add(key)
            # The destination holding the value is also a dependency.
            by_operand.setdefault(inst.dst, set()).add(key)
        new_insts.append(inst)
    block.insts = new_insts
    return changed


# -- control-flow simplification -------------------------------------------------


def _fold_const_branches(func):
    changed = False
    for block in func.blocks.values():
        term = block.terminator
        if term.kind == "cbr":
            if isinstance(term.a, Imm) and isinstance(term.b, Imm):
                taken = eval_binop(term.oper, term.a.value, term.b.value)
                target = term.targets[0] if taken else term.targets[1]
                block.terminator = IRInst("br", targets=(target,), loc=term.loc)
                changed = True
            elif term.targets[0] == term.targets[1]:
                block.terminator = IRInst("br", targets=(term.targets[0],),
                                          loc=term.loc)
                changed = True
        elif term.kind == "switch" and isinstance(term.a, Imm):
            target = term.cases.get(term.a.value, term.targets[0])
            block.terminator = IRInst("br", targets=(target,), loc=term.loc)
            changed = True
    return changed


def remove_unreachable_blocks(func):
    reachable = set()
    stack = [func.entry]
    while stack:
        name = stack.pop()
        if name in reachable:
            continue
        reachable.add(name)
        block = func.blocks[name]
        stack.extend(block.successors())
        for inst in block.insts:
            if inst.lp is not None:
                stack.append(inst.lp)
    removed = [name for name in func.blocks if name not in reachable]
    for name in removed:
        func.remove_block(name)
    func.edge_counts = {
        (a, b): c for (a, b), c in func.edge_counts.items()
        if a in reachable and b in reachable
    }
    return bool(removed)


def _thread_forwarders(func):
    """Redirect edges through empty blocks that just ``br`` elsewhere."""
    forwards = {}
    for name, block in func.blocks.items():
        if (not block.insts and block.terminator.kind == "br"
                and not block.is_landing_pad and name != func.entry):
            target = block.terminator.targets[0]
            if target != name:
                forwards[name] = target

    def final(name):
        seen = set()
        while name in forwards and name not in seen:
            seen.add(name)
            name = forwards[name]
        return name

    changed = False
    for block in func.blocks.values():
        term = block.terminator
        for succ in list(term.successor_blocks()):
            dest = final(succ)
            if dest != succ:
                term.replace_successor(succ, dest)
                count = func.edge_counts.pop((block.name, succ), None)
                if count is not None:
                    key = (block.name, dest)
                    func.edge_counts[key] = func.edge_counts.get(key, 0) + count
                changed = True
    return changed


def _merge_blocks(func):
    """Merge b into a when a->b is a's only edge and b's only entry."""
    changed = False
    while True:
        preds = func.predecessors()
        merged = False
        for name in list(func.blocks):
            block = func.blocks.get(name)
            if block is None or block.terminator.kind != "br":
                continue
            succ_name = block.terminator.targets[0]
            if succ_name == name:
                continue
            succ = func.blocks[succ_name]
            if len(preds[succ_name]) != 1 or succ_name == func.entry:
                continue
            if succ.is_landing_pad:
                continue
            block.insts.extend(succ.insts)
            block.terminator = succ.terminator
            func.edge_counts.pop((name, succ_name), None)
            for edge_succ in succ.successors():
                count = func.edge_counts.pop((succ_name, edge_succ), None)
                if count is not None:
                    func.edge_counts[(name, edge_succ)] = count
            # Landing-pad references to succ cannot exist (it would be a
            # landing pad); plain branch references were the single edge.
            func.remove_block(succ_name)
            changed = merged = True
            break
        if not merged:
            return changed


# -- dead code elimination -----------------------------------------------------------


def _dce(func):
    """Remove pure instructions whose destinations are never used."""
    changed = False
    while True:
        used = set()
        for block in func.blocks.values():
            for inst in block.insts:
                used.update(inst.uses())
            used.update(block.terminator.uses())
        removed = False
        for block in func.blocks.values():
            kept = []
            for inst in block.insts:
                if (inst.dst is not None and inst.dst not in used
                        and not inst.has_side_effects
                        and not (inst.kind == "binop" and inst.oper in ("/", "%"))):
                    removed = changed = True
                    continue
                if inst.is_call and inst.dst is not None and inst.dst not in used:
                    inst.dst = None  # call kept for side effects
                kept.append(inst)
            block.insts = kept
        if not removed:
            return changed


# -- driver ------------------------------------------------------------------------------


def optimize_function(func, level=2, max_iter=8):
    """Run the -O2 pipeline to a fixed point (bounded)."""
    if level <= 0:
        remove_unreachable_blocks(func)
        return func
    for _ in range(max_iter):
        changed = False
        for block in func.blocks.values():
            changed |= _propagate_block(block)
            changed |= _local_cse(block)
        changed |= _fold_const_branches(func)
        changed |= _thread_forwarders(func)
        changed |= remove_unreachable_blocks(func)
        changed |= _merge_blocks(func)
        changed |= _dce(func)
        if not changed:
            break
    return func


def optimize_module(module, level=2):
    for func in module.functions.values():
        optimize_function(func, level=level)
    return module


def split_critical_edges(func):
    """Split edges whose source has multiple successors and target has
    multiple predecessors.  Run before profile instrumentation/attachment
    so every edge count is derivable from block counts."""
    preds = func.predecessors()
    for name in list(func.blocks):
        block = func.blocks[name]
        succs = block.successors()
        if len(succs) < 2:
            continue
        for succ in set(succs):
            if len(preds[succ]) < 2:
                continue
            mid = func.new_block("crit")
            mid.terminator = IRInst("br", targets=(succ,))
            block.terminator.replace_successor(succ, mid.name)
    return func
