"""Translation validation: prove the emitted bytes match the optimized IR.

The structural gate (PR 1) checks that the output binary is *well
formed*; this module checks that it is *the right binary*: for every
simple function the rewrite emitted, the bytes actually placed in the
output are decoded again and matched block-by-block against the
optimized CFG — CFG isomorphism modulo layout:

* every IR block must appear at its fragment label's address
  (``BL204`` otherwise);
* each block's decoded instruction sequence must semantically match
  the IR sequence (``BL201``): opcodes and operands are normalized so
  branch relaxation (short/near forms), alignment NOPs, cross-fragment
  branch symbolization, and jump-table relocation all compare equal,
  while any real divergence — a flipped opcode, a branch bent to the
  wrong block, a lost instruction — does not;
* fall-through edges must be physically honored by the emitted layout,
  and the decoded edge set must equal the IR edge set (``BL202``);
* every jump-table slot must hold the entry block's final address
  (``BL203``).

The comparison anchors on the emission fragments (``result.fragments``)
rather than a blind re-disassembly: split functions transfer between
their hot and cold fragments in ways a from-scratch CFG reconstruction
cannot always re-prove, but the fragment label tables are exactly the
correspondence witness the rewriter used to patch addresses.
"""

from repro.analysis.rules import Finding
from repro.isa import Op
from repro.isa.decoding import DecodeError, decode_stream

_JMP_OPS = (Op.JMP_SHORT, Op.JMP_NEAR)


def validate_translation(context, out, fragments, skip=()):
    """Match every emitted function against its IR; returns Findings."""
    if not fragments:
        return []
    from repro.core.emitter import COLD_SUFFIX, SymbolResolver

    resolver = SymbolResolver(context, fragments)
    findings = []
    for name, func in context.functions.items():
        if name in skip or func.is_folded or not func.is_simple \
                or not func.blocks:
            continue
        hot = fragments.get(name)
        if hot is None or hot.raw:
            continue  # raw bytes are validated by the structural tier
        cold = fragments.get(name + COLD_SUFFIX)
        findings.extend(
            _validate_function(func, out, hot, cold, resolver))
        if len(findings) > 100:
            break  # enough evidence; don't drown the report
    return findings


def _validate_function(func, out, hot, cold, resolver):
    findings = []
    name = func.name

    # The correspondence witness: block label -> emitted address.
    label_addr = {}
    for frag in (hot, cold):
        if frag is None:
            continue
        for label, offset in frag.image.labels.items():
            label_addr[label] = frag.address + offset
    addr_label = {v: k for k, v in label_addr.items()}

    for block in func.blocks.values():
        if block.label not in label_addr:
            findings.append(Finding(
                "BL204",
                f"block {block.label} exists in the IR but was never "
                f"emitted", function=name, block=block.label))
    if findings:
        return findings

    # Decode each fragment's bytes from the *output* sections.
    chunks = {}   # block label -> decoded insns
    order = {}    # frag -> [labels in emitted order]
    for frag in (hot, cold):
        if frag is None:
            continue
        section = out.section_at(frag.address)
        if section is None:
            findings.append(Finding(
                "BL204",
                f"fragment {frag.name} at {frag.address:#x} landed "
                f"outside every output section", function=name))
            return findings
        start = frag.address - section.addr
        try:
            insns = decode_stream(section.data, start, start + frag.size,
                                  base_address=frag.address)
        except DecodeError as exc:
            findings.append(Finding(
                "BL201", f"emitted bytes do not decode: {exc}",
                function=name))
            return findings
        # Sort by offset only (stable): empty blocks share an offset
        # with their successor and must keep their emission order, or
        # the successor's instructions would be attributed to them.
        cuts = sorted(((offset, label)
                       for label, offset in frag.image.labels.items()),
                      key=lambda cut: cut[0])
        order[frag] = [label for _, label in cuts]
        bounds = [offset for offset, _ in cuts] + [frag.size]
        for (lo, label), hi in zip(cuts, bounds[1:]):
            chunks[label] = [
                i for i in insns
                if lo <= i.address - frag.address < hi
            ]

    ir_norm = _IRNormalizer(func, label_addr, resolver)
    canon = _empty_block_canonicalizer(func)
    for block in func.blocks.values():
        findings.extend(_match_block(
            func, block, chunks.get(block.label, []), ir_norm,
            addr_label, canon))
        if findings:
            return findings  # first divergence per function is enough

    findings.extend(_check_layout(func, hot, cold, order))
    findings.extend(_check_tables(func, out, label_addr))
    return findings


def _empty_block_canonicalizer(func):
    """Collapse instruction-less blocks onto their fall-through target.

    An empty block is emitted at the same address as the block after
    it, so a decoded branch to that address is ambiguous between the
    two labels; comparing edges modulo empty-block chains removes the
    ambiguity without weakening the check (an empty block transfers
    control unconditionally to its fall-through).
    """
    cache = {}

    def canon(label):
        chain = []
        current = label
        while current not in cache:
            block = func.blocks.get(current)
            if (block is None or current in chain
                    or block.fallthrough_label is None
                    or any(not insn.is_nop for insn in block.insns)):
                cache[current] = current
                break
            chain.append(current)
            current = block.fallthrough_label
        result = cache[current]
        for seen in chain:
            cache[seen] = result
        return result

    return canon


def _match_block(func, block, emitted, ir_norm, addr_label, canon):
    expect = [i for i in block.insns if not i.is_nop]
    got = [i for i in emitted if not i.is_nop]
    name = func.name
    if len(expect) != len(got):
        return [Finding(
            "BL201",
            f"block {block.label}: IR has {len(expect)} "
            f"instruction(s), output has {len(got)}",
            function=name, block=block.label)]
    findings = []
    for index, (e, g) in enumerate(zip(expect, got)):
        ne = ir_norm.normalize(e)
        ng = _norm_decoded(g)
        if ne != ng:
            findings.append(Finding(
                "BL201",
                f"block {block.label} instruction {index}: IR says "
                f"{e}, output bytes say {g}",
                function=name, block=block.label, address=g.address))
            return findings

    # Edge-count conservation: the decoded edge set must equal the
    # IR successor set (intra-function edges only).
    derived = set()
    for g in got:
        if g.is_branch and g.target in addr_label:
            derived.add(addr_label[g.target])
        if g.op == Op.JMP_REG:
            derived = derived | set(block.successors)  # via BL203/BL006
    if block.fallthrough_label is not None:
        derived.add(block.fallthrough_label)
    derived = {canon(label) for label in derived}
    if derived != {canon(label) for label in block.successors}:
        findings.append(Finding(
            "BL202",
            f"block {block.label}: decoded edges {sorted(derived)} != "
            f"IR edges {sorted(set(block.successors))}",
            function=name, block=block.label))
    return findings


def _check_layout(func, hot, cold, order):
    """BL202: fall-through adjacency in the emitted fragment layout."""
    findings = []
    for frag in (hot, cold):
        if frag is None:
            continue
        labels = order.get(frag, [])
        for index, label in enumerate(labels):
            block = func.blocks.get(label)
            if block is None:
                continue
            last = next((i for i in reversed(block.insns)
                         if not i.is_nop), None)
            if last is not None and last.is_terminator:
                continue
            ft = block.fallthrough_label
            if ft is None:
                continue  # BL005's business (IR-side defect)
            nxt = labels[index + 1] if index + 1 < len(labels) else None
            if nxt != ft:
                findings.append(Finding(
                    "BL202",
                    f"block {label} falls through to {ft} but the "
                    f"emitted layout places "
                    f"{nxt or 'the fragment end'} next",
                    function=func.name, block=label))
    return findings


def _check_tables(func, out, label_addr):
    """BL203: emitted jump-table slots point at the final addresses."""
    findings = []
    for table in func.jump_tables:
        base = getattr(table, "moved_to", None) or table.address
        section = out.section_at(base)
        if section is None:
            findings.append(Finding(
                "BL203",
                f"jump table at {base:#x} is outside every output "
                f"section", function=func.name))
            continue
        for index, label in enumerate(table.entries):
            want = label_addr.get(label)
            offset = base + 8 * index - section.addr
            raw = bytes(section.data[offset : offset + 8])
            have = int.from_bytes(raw, "little") if len(raw) == 8 else None
            if want is None or have != want:
                findings.append(Finding(
                    "BL203",
                    f"jump table at {base:#x} slot {index} holds "
                    f"{have:#x} but {label} was emitted at "
                    f"{want if want is not None else 0:#x}",
                    function=func.name, address=base + 8 * index))
                break
    return findings


# ---------------------------------------------------------------------------
# Instruction normalization
# ---------------------------------------------------------------------------

_MISSING = object()   # never equal to any resolved address


class _IRNormalizer:
    def __init__(self, func, label_addr, resolver):
        self.label_addr = label_addr
        self.resolver = resolver
        self.moved_tables = {
            t.address: t.moved_to for t in func.jump_tables
            if getattr(t, "moved_to", None) is not None
        }

    def _sym_value(self, sym):
        value = self.resolver.address(sym.name)
        if value is None:
            return _MISSING
        addend = sym.addend
        if isinstance(addend, tuple) and addend and addend[0] == "label":
            target = self.resolver.fragments.get(sym.name)
            if target is None or addend[1] not in target.image.labels:
                return _MISSING
            return value + target.image.labels[addend[1]]
        return value + addend

    def _branch_target(self, insn):
        if insn.label is not None:
            return self.label_addr.get(insn.label, _MISSING)
        if insn.sym is not None:
            return self._sym_value(insn.sym)
        return insn.target

    def normalize(self, insn):
        op = insn.op
        if insn.is_cond_branch:
            return ("jcc", insn.cc, self._branch_target(insn))
        if op in _JMP_OPS:
            return ("jmp", self._branch_target(insn))
        if op == Op.CALL:
            return ("call", self._branch_target(insn))
        if op in (Op.CALL_MEM, Op.JMP_MEM, Op.LOAD_ABS, Op.STORE_ABS):
            addr = self._sym_value(insn.sym) if insn.sym is not None \
                else insn.addr
            return (op, insn.regs, addr)
        if op == Op.MOV_RI64:
            imm = self._sym_value(insn.sym) if insn.sym is not None \
                else insn.imm
            return (op, insn.regs, imm)
        if op == Op.MOV_RI32:
            if insn.sym is not None:
                imm = self._sym_value(insn.sym)
            else:
                imm = self.moved_tables.get(insn.imm, insn.imm)
            return (op, insn.regs, imm)
        if insn.sym is not None:
            # Generic symbolic immediate (e.g. cmp against an address
            # constant): the output bytes hold the resolved value.
            return (op, insn.regs, self._sym_value(insn.sym), insn.disp)
        return _norm_plain(insn)


def _norm_decoded(insn):
    op = insn.op
    if insn.is_cond_branch:
        return ("jcc", insn.cc, insn.target)
    if op in _JMP_OPS:
        return ("jmp", insn.target)
    if op == Op.CALL:
        return ("call", insn.target)
    if op in (Op.CALL_MEM, Op.JMP_MEM, Op.LOAD_ABS, Op.STORE_ABS):
        return (op, insn.regs, insn.addr)
    if op in (Op.MOV_RI64, Op.MOV_RI32):
        return (op, insn.regs, insn.imm)
    return _norm_plain(insn)


def _norm_plain(insn):
    return (insn.op, insn.regs, insn.imm, insn.disp)
