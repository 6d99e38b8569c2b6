"""Function inlining (compile-time and LTO).

Without LTO only same-module callees can be inlined — the limitation
that motivates the paper's Figure 2 discussion ("inlining cannot happen
until link time" for cross-module calls).  With ``lto=True`` the inliner
sees every module.

When profile data is attached, cloned block counts are scaled by the
*callsite's* share of the callee's total entry count — but the branch
*ratios* inside the callee remain the merged, context-insensitive ones.
This is exactly the accuracy loss of compiler-level FDO that BOLT
avoids (paper section 2.2): after inlining, both copies of Figure 2's
``foo`` get the same 50/50 layout even though each callsite is biased.
"""

from repro.ir.ir import IRInst, Imm


class InlinePolicy:
    """Inlining thresholds."""

    def __init__(self, max_size=14, hot_max_size=48, hot_min_count=64,
                 growth_factor=3.0):
        self.max_size = max_size
        self.hot_max_size = hot_max_size
        self.hot_min_count = hot_min_count
        self.growth_factor = growth_factor


def _func_size(func):
    return sum(len(b.insts) + 1 for b in func.blocks.values())


def _clone_into(caller, callee, call_inst, call_block_name, cont_name, scale):
    """Clone ``callee``'s CFG into ``caller``; returns cloned entry name."""
    vreg_base = caller.next_vreg
    caller.next_vreg += callee.next_vreg
    suffix = f"_inl{caller.next_block}"
    caller.next_block += 1
    name_map = {name: f"{name}{suffix}" for name in callee.blocks}

    def remap(operand):
        if operand is None or isinstance(operand, Imm):
            return operand
        return operand + vreg_base

    for old_name, old_block in callee.blocks.items():
        new_block = caller.blocks.setdefault(name_map[old_name], type(old_block)(name_map[old_name]))
        new_block.is_landing_pad = old_block.is_landing_pad
        if scale is not None and old_block.count is not None:
            new_block.count = int(old_block.count * scale)
        for inst in old_block.insts:
            clone = inst.copy()
            clone.dst = remap(clone.dst)
            clone.a = remap(clone.a)
            clone.b = remap(clone.b)
            if clone.args is not None:
                clone.args = [remap(arg) for arg in clone.args]
            if clone.kind in ("call", "icall", "throw"):
                if clone.lp is not None:
                    clone.lp = name_map[clone.lp]
                else:
                    clone.lp = call_inst.lp
            new_block.insts.append(clone)
        term = old_block.terminator.copy()
        if term.kind == "ret":
            movs = []
            if call_inst.dst is not None:
                value = remap(term.a)
                if value is None:
                    movs.append(IRInst("const", dst=call_inst.dst, value=0,
                                       loc=call_inst.loc))
                elif isinstance(value, Imm):
                    movs.append(IRInst("const", dst=call_inst.dst,
                                       value=value.value, loc=call_inst.loc))
                else:
                    movs.append(IRInst("mov", dst=call_inst.dst, a=value,
                                       loc=call_inst.loc))
            new_block.insts.extend(movs)
            term = IRInst("br", targets=(cont_name,), loc=call_inst.loc)
        else:
            term.a = remap(term.a)
            term.b = remap(term.b)
            if term.targets:
                term.targets = tuple(name_map[t] for t in term.targets)
            if term.cases:
                term.cases = {k: name_map[v] for k, v in term.cases.items()}
        new_block.terminator = term

    if scale is not None:
        for (src, dst), count in callee.edge_counts.items():
            caller.edge_counts[(name_map[src], name_map[dst])] = int(count * scale)
    return name_map[callee.entry], vreg_base


def _inline_at(caller, block_name, inst_index, callee, use_profile):
    """Inline a direct call; returns True on success."""
    block = caller.blocks[block_name]
    call_inst = block.insts[inst_index]
    if len(call_inst.args) != len(callee.params):
        return False

    cont = caller.new_block("inlcont")
    cont.insts = block.insts[inst_index + 1 :]
    cont.terminator = block.terminator
    cont.count = block.count
    block.insts = block.insts[:inst_index]
    for succ in cont.successors():
        count = caller.edge_counts.pop((block_name, succ), None)
        if count is not None:
            caller.edge_counts[(cont.name, succ)] = count

    scale = None
    if use_profile and block.count is not None and callee.entry_count:
        scale = block.count / callee.entry_count
    entry_name, vreg_base = _clone_into(
        caller, callee, call_inst, block_name, cont.name, scale)

    # Bind parameters in the caller block, then branch into the clone.
    for param, arg in zip((p + vreg_base for p in callee.params), call_inst.args):
        if isinstance(arg, Imm):
            block.insts.append(IRInst("const", dst=param, value=arg.value,
                                      loc=call_inst.loc))
        else:
            block.insts.append(IRInst("mov", dst=param, a=arg, loc=call_inst.loc))
    block.terminator = IRInst("br", targets=(entry_name,), loc=call_inst.loc)
    if block.count is not None:
        caller.edge_counts[(block_name, entry_name)] = block.count
    return True


def inline_module(modules, policy=None, lto=False, use_profile=False):
    """Run the inliner over a list of IR modules (in place)."""
    policy = policy or InlinePolicy()
    table = {}
    for module in modules:
        for func in module.functions.values():
            table[func.link_name()] = (module, func)

    for module in modules:
        for func in module.functions.values():
            budget = max(64, int(_func_size(func) * policy.growth_factor))
            _inline_into(func, module, table, policy, lto, use_profile, budget)
    return modules


def _eligible(caller, caller_module, callee_module, callee, policy, lto,
              use_profile, callsite_count):
    if callee is caller:
        return False
    if not lto and callee_module is not caller_module:
        return False
    size = _func_size(callee)
    if size <= policy.max_size:
        return True
    if (use_profile and callsite_count is not None
            and callsite_count >= policy.hot_min_count
            and size <= policy.hot_max_size):
        return True
    return False


def _inline_into(func, module, table, policy, lto, use_profile, budget):
    progress = True
    while progress and _func_size(func) < budget:
        progress = False
        for block_name in list(func.blocks):
            block = func.blocks.get(block_name)
            if block is None:
                continue
            for index, inst in enumerate(block.insts):
                if inst.kind != "call":
                    continue
                entry = table.get(inst.sym)
                if entry is None:
                    continue
                callee_module, callee = entry
                if not _eligible(func, module, callee_module, callee, policy,
                                 lto, use_profile, block.count):
                    continue
                if _inline_at(func, block_name, index, callee, use_profile):
                    progress = True
                    break
            if progress:
                break
