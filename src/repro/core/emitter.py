"""Emit-and-link-functions stage (paper Figure 3): turn optimized CFGs
back into machine code fragments with relocations.

Reuses the backend assembler (branch relaxation, alignment) and plays
the role of LLVM's runtime dynamic linker in real BOLT: cross-fragment
references (hot part <-> split cold part) are kept symbolic and
resolved once every fragment has an address.
"""

from repro.belf import SymbolType
from repro.codegen.emitter import SYM_SLOT, FunctionImage, assemble_function
from repro.codegen.machine import MachineBlock, MachineFunction
from repro.core.cfg_builder import ABS_SYMBOL
from repro.isa import Op, SymRef
from repro.linker import BUILTINS

COLD_SUFFIX = ".cold.0"


class Fragment:
    """One assembled piece of a function (hot part, cold part, or a
    byte-identical non-simple body)."""

    def __init__(self, name, func, image, is_cold=False, raw=False):
        self.name = name
        self.func = func          # owning BinaryFunction
        self.image = image        # codegen FunctionImage
        self.is_cold = is_cold
        self.raw = raw
        self.address = None

    @property
    def size(self):
        return len(self.image.code)


class SymbolResolver:
    """Symbol addresses once every fragment is placed: a fragment's
    address, an ICF-folded function's survivor, a function lite mode
    kept in place, a data symbol of the input binary, or a simulator
    builtin."""

    def __init__(self, context, fragments):
        self.context = context
        self.fragments = fragments
        self.data_symbols = {
            sym.link_name(): sym.value
            for sym in context.binary.symbols
            if sym.type != SymbolType.FUNC
        }

    def address(self, name):
        """The address of ``name``, or None when nothing defines it."""
        if name == ABS_SYMBOL:
            return 0
        frag = self.fragments.get(name)
        if frag is not None:
            return frag.address
        func = self.context.functions.get(name)
        if func is not None and func.is_folded:
            return self.fragments[func.survivor().name].address
        if func is not None and func.is_kept:
            return func.address
        if name in self.data_symbols:
            return self.data_symbols[name]
        return BUILTINS.get(name)


def emit_function(func, options):
    """Assemble a function into one or two fragments."""
    if not func.is_simple:
        return [_emit_raw(func)]

    hot_blocks = [b for b in func.layout() if not b.is_cold]
    cold_blocks = [b for b in func.layout() if b.is_cold]
    if not cold_blocks:
        return [_emit_fragment(func, func.name, hot_blocks, options,
                               is_cold=False)]
    return [
        _emit_fragment(func, func.name, hot_blocks, options, is_cold=False,
                       other=(func.name + COLD_SUFFIX, cold_blocks)),
        _emit_fragment(func, func.name + COLD_SUFFIX, cold_blocks, options,
                       is_cold=True, other=(func.name, hot_blocks)),
    ]


def _emit_raw(func):
    """Byte-identical emission for non-simple functions.

    External control transfers were symbolized at disassembly; they are
    re-emitted as relocations (field and type from the assembler's
    ``SYM_SLOT``) against the new addresses.  Everything else keeps its
    original bytes (so intra-function offsets — which unresolved
    indirect jumps may depend on — are preserved).
    """
    image = FunctionImage(func.name)
    image.code = func.raw_bytes
    block = next(iter(func.blocks.values()), None)
    insns = block.insns if block is not None else []
    for insn in insns:
        if insn.sym is None or insn.op not in SYM_SLOT:
            continue
        slot, rtype = SYM_SLOT[insn.op]
        image.relocations.append((insn.address - func.address + slot, rtype,
                                  insn.sym.name, insn.sym.addend))
    return Fragment(func.name, func, image, raw=True)


def _emit_fragment(func, name, blocks, options, is_cold, other=None):
    """Assemble a subset of a function's blocks as one fragment."""
    other_name = other[0] if other else None
    other_labels = {b.label for b in other[1]} if other else set()
    # id of an emitted call -> its landing pad in the other fragment.
    extern_lps = {}

    mf = MachineFunction(func.name, name)
    for block in blocks:
        mblock = MachineBlock(block.label)
        mblock.align = block.alignment
        mblock.is_landing_pad = block.is_landing_pad
        mblock.count = block.exec_count
        for insn in block.insns:
            # Cross-fragment branches become symbolic with a
            # label-addend placeholder, resolved after placement.
            if insn.label is not None and insn.label in other_labels:
                insn = insn.copy()
                insn.sym = SymRef(other_name, addend=("label", insn.label))
                insn.label = None
                if insn.op == Op.JMP_SHORT:
                    insn.op = Op.JMP_NEAR
                    insn.size = 5
                elif insn.op == Op.JCC_SHORT:
                    insn.op = Op.JCC_LONG
                    insn.size = 6
            lp = insn.lp
            if lp is not None and lp in other_labels:
                insn = insn.replace(lp=None)
                extern_lps[id(insn)] = lp
            mblock.insns.append(insn)
        mf.blocks.append(mblock)

    # fixup-branches already normalized terminators; keep them verbatim.
    image = assemble_function(mf, normalize=False)

    # Cross-fragment landing pads: collect for post-placement fixup.
    extern_callsites = []
    for offset, insn in image.insn_offsets:
        lp = extern_lps.get(id(insn))
        if lp is not None:
            extern_callsites.append((offset, offset + insn.size, other_name,
                                     lp))
    fragment = Fragment(name, func, image, is_cold=is_cold)
    fragment.extern_callsites = extern_callsites
    return fragment
