"""The summary-walk dataflow checkers (BL001/BL002/BL003) against the
per-instruction reference checkers they replaced.

Both run on ``mini``-corpus functions under random mutations that break
the invariants the checkers prove: a dropped restore, an extra push, a
deleted compare, a clobbered saved register, and a moved shrink-wrap
save.  The findings must be equal in rule, message, function, block,
address and order.
"""

import copy
import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import checkers
from repro.core import BinaryContext, BoltOptions
from tests.oracles.reference_kernels import (
    check_callee_saved_reference,
    check_flags_reference,
    check_stack_height_reference,
)
from repro.core.cfg_builder import build_all_functions
from repro.core.discovery import discover_functions
from repro.harness import build_workload
from repro.isa import CALLEE_SAVED, Instruction, Op, RBP
from repro.workloads import make_workload

pytestmark = pytest.mark.analysis

_COMPARES = (Op.CMP_RR, Op.CMP_RI, Op.TEST_RR, Op.TEST_RI)


@pytest.fixture(scope="module")
def corpus():
    exe = build_workload(make_workload("mini")).exe
    context = BinaryContext(exe, BoltOptions())
    discover_functions(context)
    build_all_functions(context)
    return context.simple_functions()


def _key(findings):
    return [(f.rule, f.message, f.function, f.block, f.address)
            for f in findings]


def _summary_findings(func):
    summary = checkers._summarize(func)
    return _key(checkers._check_stack_height(func, summary)
                + checkers._check_callee_saved(func, summary)
                + checkers._check_flags(func, summary))


def _reference_findings(func):
    return _key(check_stack_height_reference(func)
                + check_callee_saved_reference(func)
                + check_flags_reference(func))


# -- mutations: each takes the function and a ``pick(n)`` -> [0, n) -------


def _sites(func, match):
    return [(block, i) for block in func.blocks.values()
            for i, insn in enumerate(block.insns) if match(insn)]


def _remove_one(func, pick, match):
    sites = _sites(func, match)
    if sites:
        block, i = sites[pick(len(sites))]
        del block.insns[i]


def _insert(func, pick, insn):
    blocks = list(func.blocks.values())
    block = blocks[pick(len(blocks))]
    block.insns.insert(pick(len(block.insns) + 1), insn)


def _is_save_slot_access(func, insn, op, regs_of):
    record = func.frame_record
    return (record is not None and insn.op == op and any(
        insn.regs == regs_of(reg) and insn.disp == -offset
        for reg, offset in record.saved_regs))


def drop_restore(func, pick):
    _remove_one(func, pick, lambda insn: _is_save_slot_access(
        func, insn, Op.LOAD, lambda reg: (reg, RBP)))


def extra_push(func, pick):
    _insert(func, pick, Instruction(
        Op.PUSH, (CALLEE_SAVED[pick(len(CALLEE_SAVED))],)))


def delete_compare(func, pick):
    _remove_one(func, pick, lambda insn: insn.op in _COMPARES)


def clobber_saved(func, pick):
    record = func.frame_record
    regs = [reg for reg, _ in record.saved_regs] if record else []
    regs = regs or CALLEE_SAVED
    _insert(func, pick, Instruction(Op.MOV_RI32, (regs[pick(len(regs))],),
                                    imm=1))


def move_shrink_wrap_save(func, pick):
    sites = _sites(func, lambda insn: _is_save_slot_access(
        func, insn, Op.STORE, lambda reg: (RBP, reg)))
    if not sites:
        return
    block, i = sites[pick(len(sites))]
    save = block.insns.pop(i)
    labels = list(func.blocks)
    home = labels[pick(len(labels))]
    target = func.blocks[home]
    target.insns.insert(pick(len(target.insns) + 1), save)
    # Usually the fact names the new home; sometimes a block without
    # the save, which BL002 must catch.
    claimed = home if pick(3) else labels[pick(len(labels))]
    func.analysis_facts.setdefault("shrink-wrap", {})[save.regs[1]] = claimed


MUTATIONS = (drop_restore, extra_push, delete_compare, clobber_saved,
             move_shrink_wrap_save)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_summary_checkers_match_reference(corpus, data):
    func = copy.deepcopy(data.draw(st.sampled_from(corpus)))

    def pick(n):
        return data.draw(st.integers(0, n - 1)) if n > 1 else 0

    for _ in range(data.draw(st.integers(0, 3))):
        data.draw(st.sampled_from(MUTATIONS))(func, pick)
    assert _summary_findings(func) == _reference_findings(func)


def test_every_mutation_pair_is_caught_identically(corpus):
    """A seeded sweep: every ordered pair of mutation kinds on every
    corpus function.  The sweep must produce BL001, BL002 and BL003
    findings, and several BL002 findings in one function, so the
    equality above is not vacuous."""
    rng = random.Random(12)
    seen = set()
    most_bl002 = 0
    for func in corpus:
        for first, second in itertools.product(MUTATIONS, repeat=2):
            mutated = copy.deepcopy(func)
            first(mutated, rng.randrange)
            second(mutated, rng.randrange)
            found = _summary_findings(mutated)
            assert found == _reference_findings(mutated), (
                func.name, first.__name__, second.__name__)
            seen.update(rule for rule, *_ in found)
            most_bl002 = max(most_bl002, sum(
                rule == "BL002" for rule, *_ in found))
    assert {"BL001", "BL002", "BL003"} <= seen
    assert most_bl002 > 1


def test_clean_corpus_has_no_dataflow_findings(corpus):
    for func in corpus:
        assert _summary_findings(func) == [] == _reference_findings(func)
