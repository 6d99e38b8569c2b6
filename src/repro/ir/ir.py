"""IR data structures."""

CMP_OPS = frozenset({"==", "!=", "<", "<=", ">", ">=", "u<", "u<=", "u>", "u>="})

ARITH_OPS = frozenset({"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"})


class Imm:
    """An immediate operand (folded constant)."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return f"${self.value}"

    def __eq__(self, other):
        return isinstance(other, Imm) and self.value == other.value

    def __hash__(self):
        return hash(("imm", self.value))


def _fmt(operand):
    if operand is None:
        return "_"
    if isinstance(operand, Imm):
        return str(operand)
    return f"%{operand}"


class IRInst:
    """One IR instruction (including block terminators).

    ``kind`` is one of:

    straight-line: ``const mov binop unop loadg storeg loadidx storeidx
    call icall funcaddr out throw landingpad profcount``

    terminators: ``br cbr switch ret unreachable``

    Field usage varies by kind; unused fields are None.  ``lp`` on
    call/icall/throw names the landing-pad block covering the site.
    """

    __slots__ = ("kind", "dst", "a", "b", "oper", "sym", "args", "lp",
                 "targets", "cases", "value", "loc")

    def __init__(self, kind, dst=None, a=None, b=None, oper=None, sym=None,
                 args=None, lp=None, targets=None, cases=None, value=None,
                 loc=None):
        self.kind = kind
        self.dst = dst
        self.a = a
        self.b = b
        self.oper = oper
        self.sym = sym
        self.args = args
        self.lp = lp
        self.targets = targets      # (then, else) for cbr; (target,) for br
        self.cases = cases          # {int: block} for switch (default in targets[0])
        self.value = value
        self.loc = loc

    # -- dataflow helpers -------------------------------------------------

    def uses(self):
        """Virtual registers read by this instruction."""
        out = []
        for operand in (self.a, self.b):
            if operand is not None and not isinstance(operand, Imm):
                out.append(operand)
        if self.args:
            out.extend(arg for arg in self.args if not isinstance(arg, Imm))
        return out

    def defs(self):
        """The virtual register written, or None."""
        return self.dst

    @property
    def is_terminator(self):
        return self.kind in ("br", "cbr", "switch", "ret", "unreachable")

    @property
    def is_call(self):
        return self.kind in ("call", "icall")

    @property
    def has_side_effects(self):
        return self.kind in (
            "storeg", "storeidx", "call", "icall", "out", "throw",
            "profcount", "landingpad",
        )

    def successor_blocks(self):
        """Names of CFG successors (for terminators)."""
        if self.kind == "br":
            return [self.targets[0]]
        if self.kind == "cbr":
            return list(self.targets)
        if self.kind == "switch":
            seen = []
            for block in list(self.cases.values()) + [self.targets[0]]:
                if block not in seen:
                    seen.append(block)
            return seen
        return []

    def replace_successor(self, old, new):
        """Rewrite a successor block name (used by CFG transforms)."""
        if self.targets:
            self.targets = tuple(new if t == old else t for t in self.targets)
        if self.cases:
            self.cases = {k: (new if v == old else v) for k, v in self.cases.items()}

    def copy(self):
        return IRInst(
            self.kind, dst=self.dst, a=self.a, b=self.b, oper=self.oper,
            sym=self.sym, args=list(self.args) if self.args is not None else None,
            lp=self.lp, targets=tuple(self.targets) if self.targets else None,
            cases=dict(self.cases) if self.cases else None, value=self.value,
            loc=self.loc,
        )

    def __repr__(self):
        k = self.kind
        if k == "const":
            return f"{_fmt(self.dst)} = const {self.value}"
        if k == "mov":
            return f"{_fmt(self.dst)} = {_fmt(self.a)}"
        if k == "binop":
            return f"{_fmt(self.dst)} = {_fmt(self.a)} {self.oper} {_fmt(self.b)}"
        if k == "unop":
            return f"{_fmt(self.dst)} = {self.oper}{_fmt(self.a)}"
        if k == "loadg":
            return f"{_fmt(self.dst)} = loadg @{self.sym}"
        if k == "storeg":
            return f"storeg @{self.sym} = {_fmt(self.a)}"
        if k == "loadidx":
            return f"{_fmt(self.dst)} = @{self.sym}[{_fmt(self.a)}]"
        if k == "storeidx":
            return f"@{self.sym}[{_fmt(self.a)}] = {_fmt(self.b)}"
        if k == "call":
            args = ", ".join(_fmt(a) for a in self.args)
            lp = f" lp={self.lp}" if self.lp else ""
            head = f"{_fmt(self.dst)} = " if self.dst is not None else ""
            return f"{head}call @{self.sym}({args}){lp}"
        if k == "icall":
            args = ", ".join(_fmt(a) for a in self.args)
            lp = f" lp={self.lp}" if self.lp else ""
            head = f"{_fmt(self.dst)} = " if self.dst is not None else ""
            return f"{head}icall {_fmt(self.a)}({args}){lp}"
        if k == "funcaddr":
            return f"{_fmt(self.dst)} = &@{self.sym}"
        if k == "out":
            return f"out {_fmt(self.a)}"
        if k == "throw":
            lp = f" lp={self.lp}" if self.lp else ""
            return f"throw {_fmt(self.a)}{lp}"
        if k == "landingpad":
            return f"{_fmt(self.dst)} = landingpad"
        if k == "profcount":
            return f"profcount #{self.value}"
        if k == "br":
            return f"br {self.targets[0]}"
        if k == "cbr":
            return (f"cbr {_fmt(self.a)} {self.oper} {_fmt(self.b)}, "
                    f"{self.targets[0]}, {self.targets[1]}")
        if k == "switch":
            cases = ", ".join(f"{v}->{b}" for v, b in sorted(self.cases.items()))
            return f"switch {_fmt(self.a)} [{cases}] default {self.targets[0]}"
        if k == "ret":
            return f"ret {_fmt(self.a)}" if self.a is not None else "ret"
        if k == "unreachable":
            return "unreachable"
        return f"<{k}>"


class IRBlock:
    """A basic block: straight-line instructions plus one terminator."""

    __slots__ = ("name", "insts", "terminator", "count", "is_landing_pad")

    def __init__(self, name):
        self.name = name
        self.insts = []
        self.terminator = None
        self.count = None           # profile execution count (or None)
        self.is_landing_pad = False

    def successors(self):
        if self.terminator is None:
            return []
        return self.terminator.successor_blocks()

    def __repr__(self):
        return f"<IRBlock {self.name} ({len(self.insts)} insts)>"


class IRFunction:
    """A function: ordered blocks, entry first."""

    def __init__(self, name, params, static=False, module=None, loc=None):
        self.name = name
        self.params = params          # list of param vregs
        self.param_names = []
        self.static = static
        self.module = module
        self.loc = loc
        self.blocks = {}              # name -> IRBlock, insertion-ordered
        self.entry = None
        self.next_vreg = 0
        self.next_block = 0
        self.edge_counts = {}         # (from, to) -> count (profile)
        self.entry_count = None       # profile entry count

    def new_vreg(self):
        vreg = self.next_vreg
        self.next_vreg += 1
        return vreg

    def new_block(self, hint="bb"):
        name = f"{hint}{self.next_block}"
        self.next_block += 1
        block = IRBlock(name)
        self.blocks[name] = block
        if self.entry is None:
            self.entry = name
        return block

    def remove_block(self, name):
        del self.blocks[name]

    def predecessors(self):
        """Map block name -> list of predecessor block names."""
        preds = {name: [] for name in self.blocks}
        for name, block in self.blocks.items():
            for succ in block.successors():
                preds[succ].append(name)
        return preds

    def reorder(self, order):
        """Set a new block order; must be a permutation with entry first."""
        assert set(order) == set(self.blocks), "order must cover all blocks"
        assert order[0] == self.entry, "entry must stay first"
        self.blocks = {name: self.blocks[name] for name in order}

    def link_name(self):
        if self.static and self.module is not None:
            return f"{self.module}::{self.name}"
        return self.name

    def dump(self):
        lines = [f"func {self.name}({', '.join('%' + str(p) for p in self.params)}):"]
        for block in self.blocks.values():
            suffix = " [lp]" if block.is_landing_pad else ""
            count = f" !count={block.count}" if block.count is not None else ""
            lines.append(f"  {block.name}:{suffix}{count}")
            for inst in block.insts:
                lines.append(f"    {inst!r}")
            lines.append(f"    {block.terminator!r}")
        return "\n".join(lines)

    def __repr__(self):
        return f"<IRFunction {self.name} blocks={len(self.blocks)}>"


class IRModule:
    """One compilation unit's IR plus its global data."""

    def __init__(self, name):
        self.name = name
        self.functions = {}       # name -> IRFunction
        self.global_vars = {}     # name -> (init, const)
        self.global_arrays = {}   # name -> (size, init_list, const)
        self.source_files = []

    def add_function(self, func):
        self.functions[func.name] = func
        return func

    def __repr__(self):
        return f"<IRModule {self.name} funcs={list(self.functions)}>"
