"""Instruction value semantics on the rewrite's hot path: the per-opcode
size and use/def tables against the pre-table reference kernels, the
allocation-free ``defines`` query, one-walk ICF keys, passes that never
mutate an instruction in place, and pass-failure containment."""

import pytest
from hypothesis import given, strategies as st

from repro.compiler import BuildOptions, build_executable
from repro.core import BinaryContext, BoltOptions, optimize_binary
from repro.core import rewriter
from tests.oracles.reference_kernels import (
    format_size_reference,
    insn_uses_defs_reference,
    normalize_self_reference,
)
from repro.core.cfg_builder import build_all_functions
from repro.core.dataflow import (
    FLAGS,
    UnmodeledOpcodeError,
    defines,
    insn_uses_defs,
)
from repro.core.discovery import discover_functions
from repro.core.emitter import emit_function
from repro.core.passes.base import BinaryPass, PassManager, build_pipeline
from repro.core.passes.icf import _function_key
from repro.core.profile_attach import attach_profile
from repro.harness import build_workload, sample_profile
from repro.ir import InlinePolicy
from repro.isa import Instruction, Op
from repro.isa.opcodes import FORMAT_SIZES, OPERAND_FORMATS, format_size
from repro.uarch import run_binary
from repro.workloads import make_workload

_MODELED = [op for op in Op if op != Op.PREFIX_0F]


def _with_regs(op, regs):
    nregs = OPERAND_FORMATS[op].count("reg")
    return Instruction(op, tuple(regs[:nregs]), imm=4)


# -- per-opcode tables --------------------------------------------------------


def test_size_table_matches_atom_sum():
    for op in OPERAND_FORMATS:
        assert FORMAT_SIZES[op] == format_size_reference(op), op
        assert format_size(op) == format_size_reference(op), op
    assert Instruction(Op.NOPN, imm=7).size == 7


@given(st.permutations(range(16)))
def test_use_def_table_matches_reference_chain(perm):
    for op in _MODELED:
        insn = _with_regs(op, perm)
        assert insn_uses_defs(insn) == insn_uses_defs_reference(insn), op


@given(st.permutations(range(16)))
def test_defines_matches_def_sets(perm):
    for op in _MODELED:
        insn = _with_regs(op, perm)
        _, defs = insn_uses_defs_reference(insn)
        for reg in (*range(16), FLAGS):
            assert defines(insn, reg) == (reg in defs), (op, reg)


def test_unmodeled_opcodes_raise_from_every_query():
    insn = Instruction(Op.NOP)
    insn.op = Op.PREFIX_0F
    with pytest.raises(UnmodeledOpcodeError):
        insn_uses_defs(insn)
    with pytest.raises(UnmodeledOpcodeError):
        defines(insn, FLAGS)


# -- corpora ------------------------------------------------------------------


def _context(exe, profile=None):
    context = BinaryContext(exe, BoltOptions())
    discover_functions(context)
    build_all_functions(context)
    if profile is not None:
        attach_profile(context, profile)
    return context


@pytest.fixture(scope="module")
def mini():
    """The ``tests/test_pass_invariants.py`` corpus."""
    built = build_workload(make_workload("mini"))
    profile, _ = sample_profile(built)
    return built.exe, profile


RECURSIVE = ("rec", """
const array lut[4] = {7, 1, 8, 2};

func fact(n) { if (n < 2) { return 1; } return n * fact(n - 1); }
func fact2(n) { if (n < 2) { return 1; } return n * fact2(n - 1); }
func caller(n) { return fact(n) + 1; }
func caller2(n) { return fact(n) + 1; }

func pick(x) {
  switch (x % 8) {
    case 0: { return lut[x % 4]; } case 1: { return 11; }
    case 2: { return 12; } case 3: { return 13; }
    case 4: { return 14; } case 5: { return 15; }
    default: { return 0; }
  }
}

func main() {
  var i = 0;
  var total = 0;
  while (i < 200) {
    total = total + fact(i % 6) + fact2(i % 5) + caller(i % 4)
          + caller2(i % 3) + pick(i);
    i = i + 1;
  }
  out total;
  return 0;
}
""")


@pytest.fixture(scope="module")
def recursive():
    exe, _ = build_executable([RECURSIVE], BuildOptions(
        inline=InlinePolicy(max_size=0)), emit_relocs=True)
    return exe


# -- ICF keys -----------------------------------------------------------------


def _assert_keys_match(context):
    functions = context.simple_functions()
    assert functions
    for func in functions:
        assert _function_key(func, func.name) == \
            normalize_self_reference(func), func.name


def test_icf_keys_match_reference_on_pass_invariants_corpus(mini):
    exe, profile = mini
    context = _context(exe, profile)
    _assert_keys_match(context)
    # And on the fully optimized CFGs (ICP blocks, split, sctc'd).
    build_pipeline(context.options).run(context)
    _assert_keys_match(context)


def test_icf_keys_match_reference_for_self_recursion(recursive):
    context = _context(recursive)
    _assert_keys_match(context)
    fact, fact2 = context.functions["fact"], context.functions["fact2"]
    assert "__self__" in repr(_function_key(fact, "fact"))
    # Two self-recursive twins key alike; two callers of one of them
    # key alike too, and unlike the recursive functions themselves.
    assert _function_key(fact, "fact") == _function_key(fact2, "fact2")
    caller, caller2 = context.functions["caller"], context.functions["caller2"]
    assert _function_key(caller, "caller") == _function_key(caller2, "caller2")
    assert _function_key(caller, "caller") != _function_key(fact, "fact")


# -- no pass mutates an instruction in place ----------------------------------


def _freeze(value):
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _fingerprint(insn):
    sym = insn.sym
    return (insn.op, insn.regs, insn.imm, insn.disp, insn.addr, insn.cc,
            insn.target, insn.label,
            None if sym is None else (sym.name, sym.addend),
            insn.address, insn.size,
            _freeze((insn.loc, insn.lp, insn.jump_table, insn.tailcall,
                     insn.plt, insn.call_targets, insn.call_mispreds)))


def test_passes_never_mutate_instructions_in_place(mini, monkeypatch):
    exe, profile = mini
    context = _context(exe, profile)
    original = BinaryPass._attempt
    checked, mutated = set(), []

    def attempt(self, context, func):
        before = [(insn, _fingerprint(insn))
                  for block in func.blocks.values() for insn in block.insns]
        result = original(self, context, func)
        mutated.extend(f"{self.name}: {insn!r} in {func.name}"
                       for insn, fingerprint in before
                       if _fingerprint(insn) != fingerprint)
        checked.add(self.name)
        return result

    monkeypatch.setattr(BinaryPass, "_attempt", attempt)
    stats = build_pipeline(context.options).run(context)
    assert not mutated, mutated[:5]
    # The corpus exercises every pass that used to mutate in place.
    for name, key in [("strip-rep-ret", "stripped"), ("icp", "promoted"),
                      ("peepholes", "push-pop"), ("plt", "optimized"),
                      ("simplify-ro-loads", "converted"),
                      ("fixup-branches", "inverted"), ("sctc", "simplified")]:
        assert stats[name][key] > 0, name
        assert name in checked


def test_emission_never_mutates_cfg_instructions(mini, monkeypatch):
    """Emission works on new instructions: a call whose landing pad sits
    in the other fragment is emitted without it, and a relaxed label
    branch is emitted with its final op, size and target, while the
    CFG's own instructions keep theirs."""
    exe, profile = mini
    calls, branches = [], []

    def emit(func, options):
        for block in func.blocks.values():
            for insn in block.insns:
                if insn.is_call:
                    calls.append((insn, insn.lp))
                if insn.label is not None and insn.op in _LABEL_BRANCHES:
                    branches.append((insn, _branch_fields(insn)))
        return emit_function(func, options)

    monkeypatch.setattr(rewriter, "emit_function", emit)
    result = optimize_binary(exe, profile)
    # The corpus splits a call away from its landing pad.
    assert any(fragment.extern_callsites
               for fragment in result.fragments.values()
               if not fragment.raw)
    assert [(insn, lp) for insn, lp in calls if insn.lp != lp] == []
    assert branches
    assert [insn for insn, fields in branches
            if _branch_fields(insn) != fields] == []
    # The emitted copies are relaxed: each resolves its label.
    emitted = list(_emitted_label_branches(result))
    assert emitted and all(insn.target == target for insn, target in emitted)


_LABEL_BRANCHES = (Op.JMP_SHORT, Op.JMP_NEAR, Op.JCC_SHORT, Op.JCC_LONG)


def _branch_fields(insn):
    return (insn.op, insn.size, insn.target, insn.label, insn.cc)


def _emitted_label_branches(result):
    for fragment in result.fragments.values():
        if fragment.raw:
            continue
        labels = fragment.image.labels
        for _, insn in fragment.image.insn_offsets:
            if insn.label is not None and insn.op in _LABEL_BRANCHES:
                yield insn, labels[insn.label]


# -- containment --------------------------------------------------------------


class _ReplaceThenRaise(BinaryPass):
    """On ``pick``: replaces instructions, edits blocks and a jump table,
    then raises."""

    name = "replace-then-raise"

    def run_on_function(self, context, func):
        if func.name != "pick":
            return {}
        for block in func.blocks.values():
            for i, insn in enumerate(block.insns):
                block.insns[i] = insn.replace(loc=("touched", 0))
            block.insns.append(Instruction(Op.NOP))
            block.successors.append(".nowhere")
            block.edge_counts[".nowhere"] = 5
            block.exec_count += 1
        for table in func.jump_tables:
            table.entries.reverse()
            table.entries.append(".nowhere")
        func.jump_tables.append(func.jump_tables[0])
        func.analysis_facts.setdefault("sctc", []).append(".nowhere")
        del func.blocks[next(reversed(func.blocks))]
        raise RuntimeError("boom")


def _body(binary, name):
    sym = next(s for s in binary.symbols
               if s.link_name() == name and s.size)
    section = binary.section_at(sym.value)
    start = sym.value - section.addr
    return bytes(section.data[start:start + sym.size])


def test_containment_ships_the_failed_function_verbatim(recursive,
                                                         monkeypatch):
    """A pass that corrupts ``pick`` (blocks, tables, facts) and then
    raises leaves it non-simple with one diagnostic, and the job emits
    its input bytes: no snapshot is needed to undo the corruption."""
    build = rewriter.build_pipeline
    monkeypatch.setattr(rewriter, "build_pipeline", lambda options:
                        PassManager([_ReplaceThenRaise()]
                                    + build(options).passes))
    result = optimize_binary(recursive, None, BoltOptions())
    assert result.degraded is None
    assert not result.context.functions["pick"].is_simple
    contained = [d.render() for d in result.diagnostics
                 if d.component == "pass:replace-then-raise"]
    assert len(contained) == 1
    assert "[pick]" in contained[0] and "RuntimeError: boom" in contained[0]
    assert _body(result.binary, "pick") == _body(recursive, "pick")
    assert run_binary(result.binary).output == run_binary(recursive).output
