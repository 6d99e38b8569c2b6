"""Dataflow framework tests: use/def tables, liveness, dominators,
reachability, stack-slot analysis."""

from hypothesis import given, settings, strategies as st

from repro.compiler import BuildOptions, build_executable
from repro.core import BinaryContext, BoltOptions
from repro.core.binary_function import BinaryBasicBlock, BinaryFunction
from repro.core.cfg_builder import build_all_functions
from repro.core.discovery import discover_functions
from repro.core.dataflow import (
    FLAGS,
    dominators,
    insn_uses_defs,
    liveness,
    reachable_from,
    stack_slot_accesses,
)
from repro.ir import InlinePolicy
from repro.isa import Instruction, Op, RAX, RBP, RBX, RCX, RDI, RSP, SymRef
from repro.isa.registers import CALLEE_SAVED


def test_uses_defs_table_consistency():
    cases = [
        (Instruction(Op.MOV_RR, (RAX, RBX)), {RBX}, {RAX}),
        (Instruction(Op.ADD_RR, (RAX, RBX)), {RAX, RBX}, {RAX}),
        (Instruction(Op.ADD_RI, (RAX,), imm=1), {RAX}, {RAX}),
        (Instruction(Op.LOAD, (RAX, RBP), disp=-8), {RBP}, {RAX}),
        (Instruction(Op.STORE, (RBP, RBX), disp=-8), {RBP, RBX}, set()),
        (Instruction(Op.CMP_RR, (RAX, RBX)), {RAX, RBX}, {FLAGS}),
        (Instruction(Op.SETCC, (RCX,), imm=0), {FLAGS}, {RCX}),
        (Instruction(Op.PUSH, (RBX,)), {RBX, RSP}, {RSP}),
        (Instruction(Op.POP, (RBX,)), {RSP}, {RBX, RSP}),
        (Instruction(Op.LOADIDX, (RAX, RBX, RCX)), {RBX, RCX}, {RAX}),
        (Instruction(Op.JCC_SHORT, cc=0, target=0), {FLAGS}, set()),
        (Instruction(Op.JMP_REG, (RAX,)), {RAX}, set()),
        (Instruction(Op.RET), {RAX, RSP}, {RSP}),
    ]
    for insn, uses, defs in cases:
        got_uses, got_defs = insn_uses_defs(insn)
        assert got_uses == uses, insn
        assert got_defs == defs, insn


def test_call_clobbers_caller_saved():
    from repro.isa import SymRef
    from repro.isa.registers import CALLER_SAVED

    uses, defs = insn_uses_defs(Instruction(Op.CALL, sym=SymRef("f")))
    assert set(CALLER_SAVED) <= defs
    assert RBX not in defs  # callee-saved survive


def _func_from_source(text, name="f"):
    exe, _ = build_executable(
        [("m", text)], BuildOptions(inline=InlinePolicy(max_size=0)),
        emit_relocs=True)
    context = BinaryContext(exe, BoltOptions())
    discover_functions(context)
    build_all_functions(context)
    return context.functions[name]


def test_liveness_param_live_into_use():
    func = _func_from_source("""
func f(a) {
  var x = a + 1;
  if (x > 2) { return x; }
  return a;
}
func main() { return f(1); }
""")
    live_in, live_out = liveness(func)
    # rdi (the argument register) is live into the entry block.
    assert 7 in live_in[func.entry_label]


def test_liveness_callee_saved_live_at_exit():
    func = _func_from_source("""
func f(a) {
  var s = 0;
  var i = 0;
  while (i < a) { s = s + i; i = i + 1; }
  return s;
}
func main() { return f(3); }
""")
    live_in, live_out = liveness(func)
    for label, block in func.blocks.items():
        term = block.terminator()
        if term is not None and term.is_return:
            assert RBX in live_out[label]
            assert RAX in live_out[label]


def test_dominators_diamond():
    func = BinaryFunction("d", 0, 10)
    for label in ("e", "a", "b", "j"):
        func.add_block(BinaryBasicBlock(label))
    func.blocks["e"].set_edge("a")
    func.blocks["e"].set_edge("b")
    func.blocks["a"].set_edge("j")
    func.blocks["b"].set_edge("j")
    dom = dominators(func)
    assert dom["j"] == {"e", "j"}
    assert dom["a"] == {"e", "a"}


def test_dominators_ignore_unreachable():
    func = BinaryFunction("d", 0, 10)
    for label in ("e", "a", "dead"):
        func.add_block(BinaryBasicBlock(label))
    func.blocks["e"].set_edge("a")
    func.blocks["dead"].set_edge("a")  # unreachable predecessor
    dom = dominators(func)
    assert "e" in dom["a"]  # not polluted by the unreachable block


def test_reachability_includes_landing_pads():
    func = BinaryFunction("d", 0, 10)
    for label in ("e", "lp"):
        func.add_block(BinaryBasicBlock(label))
    func.blocks["e"].landing_pads.append("lp")
    assert reachable_from(func, "e") == {"e", "lp"}


def test_reachability_skips_dangling_successor():
    func = BinaryFunction("d", 0, 10)
    for label in ("e", "a"):
        func.add_block(BinaryBasicBlock(label))
    func.blocks["e"].set_edge("a")
    func.blocks["a"].set_edge("gone")
    func.blocks["a"].landing_pads.append("also-gone")
    assert reachable_from(func, "e") == {"e", "a"}


def test_stack_slot_analysis():
    func = BinaryFunction("d", 0, 10)
    block = func.add_block(BinaryBasicBlock("e"))
    block.insns = [
        Instruction(Op.STORE, (RBP, RBX), disp=-8),
        Instruction(Op.LOAD, (RAX, RBP), disp=-16),
        Instruction(Op.STORE, (RBP, RCX), disp=-24),
    ]
    loads, stores, escapes = stack_slot_accesses(func)
    assert stores == {-8, -24}
    assert loads == {-16}
    assert not escapes


def test_stack_slot_escape_detection():
    func = BinaryFunction("d", 0, 10)
    block = func.add_block(BinaryBasicBlock("e"))
    block.insns = [Instruction(Op.MOV_RR, (RCX, RBP))]
    _, _, escapes = stack_slot_accesses(func)
    assert escapes
    block.insns = [Instruction(Op.LEA, (RCX, RBP), disp=-8)]
    _, _, escapes = stack_slot_accesses(func)
    assert escapes
    # The epilogue's mov rsp, rbp is not an escape.
    block.insns = [Instruction(Op.MOV_RR, (RSP, RBP))]
    _, _, escapes = stack_slot_accesses(func)
    assert not escapes


@given(ops=st.lists(st.sampled_from([
    Op.MOV_RR, Op.ADD_RR, Op.CMP_RR, Op.PUSH, Op.POP, Op.NEG,
]), min_size=1, max_size=10))
def test_prop_liveness_converges(ops):
    """Liveness terminates and produces consistent in/out sets."""
    func = BinaryFunction("p", 0, 10)
    block = func.add_block(BinaryBasicBlock("e"))
    for op in ops:
        nregs = len(__import__("repro.isa.opcodes", fromlist=["OPERAND_FORMATS"])
                    .OPERAND_FORMATS[op])
        regs = tuple(range(min(2, max(1, nregs))))[:2]
        if op in (Op.PUSH, Op.POP, Op.NEG):
            block.insns.append(Instruction(op, (1,)))
        else:
            block.insns.append(Instruction(op, (1, 2)))
    live_in, live_out = liveness(func)
    assert set(live_in) == {"e"}


def test_dominators_irreducible_loop():
    # e -> a, e -> b, a <-> b: neither cycle node dominates the other.
    func = BinaryFunction("d", 0, 10)
    for label in ("e", "a", "b"):
        func.add_block(BinaryBasicBlock(label))
    func.blocks["e"].set_edge("a")
    func.blocks["e"].set_edge("b")
    func.blocks["a"].set_edge("b")
    func.blocks["b"].set_edge("a")
    dom = dominators(func)
    assert dom["a"] == {"e", "a"}
    assert dom["b"] == {"e", "b"}


def test_dominators_single_block():
    func = BinaryFunction("d", 0, 10)
    func.add_block(BinaryBasicBlock("e"))
    assert dominators(func) == {"e": {"e"}}


def test_liveness_irreducible_loop():
    # The use of rbx in block b must be live around the whole cycle.
    func = BinaryFunction("d", 0, 10)
    for label in ("e", "a", "b"):
        func.add_block(BinaryBasicBlock(label))
    func.blocks["e"].set_edge("a")
    func.blocks["e"].set_edge("b")
    func.blocks["a"].set_edge("b")
    func.blocks["b"].set_edge("a")
    func.blocks["b"].insns = [Instruction(Op.MOV_RR, (RCX, RBX))]
    live_in, live_out = liveness(func)
    assert RBX in live_in["e"]
    assert RBX in live_in["a"] and RBX in live_out["a"]


def test_liveness_single_block():
    func = BinaryFunction("d", 0, 10)
    block = func.add_block(BinaryBasicBlock("e"))
    block.insns = [Instruction(Op.MOV_RR, (RAX, RBX)),
                   Instruction(Op.RET)]
    live_in, live_out = liveness(func)
    assert RBX in live_in["e"]
    assert RAX in live_out["e"]  # the return value is live at exit


def test_unmodeled_opcode_raises_diagnostic():
    import pytest

    from repro.core.dataflow import UnmodeledOpcodeError

    insn = Instruction(Op.NOP)
    insn.op = "not-an-opcode"
    with pytest.raises(UnmodeledOpcodeError) as exc:
        insn_uses_defs(insn)
    assert "no use/def model" in str(exc.value)
    assert "insn_uses_defs" in str(exc.value)


def test_every_opcode_is_modeled():
    """The full Op enum must have a use/def model (or a deliberate
    no-effect entry) so no analysis can hit UnmodeledOpcodeError on
    real code."""
    from repro.isa.opcodes import OPERAND_FORMATS

    for op in Op:
        if op == Op.PREFIX_0F:
            continue  # encoding artifact, never carried by decoded insns
        nregs = len(OPERAND_FORMATS.get(op, ""))
        insn = Instruction(Op.NOP)
        insn.op = op
        insn.regs = tuple(range(nregs))
        insn_uses_defs(insn)  # must not raise


# ---------------------------------------------------------------------------
# Properties against the definitions, on random small CFGs
# ---------------------------------------------------------------------------

_G = SymRef("g")
_INSNS = [
    Instruction(Op.MOV_RR, (RAX, RBX)),
    Instruction(Op.MOV_RR, (RCX, RDI)),
    Instruction(Op.ADD_RR, (RBX, RCX)),
    Instruction(Op.MOV_RI32, (RBX,), imm=1),
    Instruction(Op.CMP_RR, (RAX, RCX)),
    Instruction(Op.SETCC, (RDI,), imm=0),
    Instruction(Op.CALL, sym=_G),
    Instruction(Op.RET),
    Instruction(Op.JMP_NEAR, sym=_G).replace(tailcall=True),
]

# Edges and landing pads are arbitrary, so the graphs include
# unreachable blocks, self loops and cycles no exit is reachable from.
cfgs = st.integers(min_value=1, max_value=6).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
             max_size=10),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
             max_size=3),
    st.lists(st.lists(st.sampled_from(_INSNS), max_size=4),
             min_size=n, max_size=n),
))


def _make_cfg(cfg):
    edges, pads, bodies = cfg
    func = BinaryFunction("p", 0, 10)
    for i, insns in enumerate(bodies):
        func.add_block(BinaryBasicBlock(f"b{i}")).insns = list(insns)
    for a, b in edges:
        func.blocks[f"b{a}"].set_edge(f"b{b}")
    for a, b in pads:
        if f"b{b}" not in func.blocks[f"b{a}"].landing_pads:
            func.blocks[f"b{a}"].landing_pads.append(f"b{b}")
            func.blocks[f"b{b}"].is_landing_pad = True
    return func


def _succs(block):
    return block.successors + block.landing_pads


def _reach(func, removed=None):
    seen = set()
    stack = [func.entry_label]
    while stack:
        label = stack.pop()
        if label not in seen and label != removed:
            seen.add(label)
            stack.extend(_succs(func.blocks[label]))
    return seen


@settings(max_examples=150, deadline=None)
@given(cfgs)
def test_prop_dominators_match_definition(cfg):
    """d dominates a reachable n exactly when removing d cuts n off
    from the entry; an unreachable block gets every label."""
    func = _make_cfg(cfg)
    dom = dominators(func)
    reachable = _reach(func)
    assert set(dom) == set(func.blocks)
    for n in func.blocks:
        if n not in reachable:
            assert dom[n] == set(func.blocks)
        else:
            assert dom[n] == {d for d in func.blocks
                              if n not in _reach(func, removed=d)}


@settings(max_examples=150, deadline=None)
@given(cfgs)
def test_prop_liveness_matches_per_register_search(cfg):
    """A register is live into a block exactly when some path from the
    block's top reaches a use of it, or the end of an exit block with
    the register in the ABI exit set, before any def of it."""
    func = _make_cfg(cfg)
    live_in, live_out = liveness(func)

    exit_live = set(CALLEE_SAVED) | {RAX, RSP, RBP}
    preds = {label: [] for label in func.blocks}
    for label, block in func.blocks.items():
        for succ in _succs(block):
            preds[succ].append(label)
    exits = set()
    for label, block in func.blocks.items():
        last = block.insns[-1] if block.insns else None
        if not _succs(block) or (last is not None and (
                last.is_return or last.tailcall)):
            exits.add(label)

    for reg in range(FLAGS + 1):
        first = {}   # label -> "use", "def" or None: reg's first event
        for label, block in func.blocks.items():
            first[label] = None
            for insn in block.insns:
                uses, defs = insn_uses_defs(insn)
                if reg in uses or reg in defs:
                    first[label] = "use" if reg in uses else "def"
                    break
        ends_live = exits if reg in exit_live else set()
        live_top = {label for label in func.blocks
                    if first[label] == "use"
                    or (first[label] is None and label in ends_live)}
        stack = list(live_top)
        while stack:
            for pred in preds[stack.pop()]:
                if pred not in live_top and first[pred] is None:
                    live_top.add(pred)
                    stack.append(pred)
        for label, block in func.blocks.items():
            assert (reg in live_in[label]) == (label in live_top), \
                (reg, label)
            out = label in ends_live or any(
                succ in live_top for succ in _succs(block))
            assert (reg in live_out[label]) == out, (reg, label)
