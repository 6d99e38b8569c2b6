"""Abstract-interpretation engine tests: lattices, fixpoint, direction,
landing-pad edge states, and hypothesis properties (the solution is a
fixpoint; the solver is monotone in its boundary)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    BOTTOM,
    TOP,
    AnalysisError,
    BlockResult,
    FlatLattice,
    SetLattice,
    TupleLattice,
    solve,
)
from repro.core.binary_function import BinaryBasicBlock, BinaryFunction

pytestmark = pytest.mark.analysis


def make_func(n, edges):
    func = BinaryFunction("t", 0, 0)
    for i in range(n):
        func.add_block(BinaryBasicBlock(f"b{i}"))
    for a, b in edges:
        func.blocks[f"b{a}"].set_edge(f"b{b}")
    return func


# ---------------------------------------------------------------------------
# Lattice unit tests
# ---------------------------------------------------------------------------


def test_flat_lattice_join():
    lat = FlatLattice()
    assert lat.join(BOTTOM, 5) == 5
    assert lat.join(5, BOTTOM) == 5
    assert lat.join(5, 5) == 5
    assert lat.join(5, 6) is TOP
    assert lat.join(TOP, 5) is TOP
    assert lat.leq(BOTTOM, 5) and lat.leq(5, TOP) and lat.leq(5, 5)
    assert not lat.leq(5, 6) and not lat.leq(TOP, 5)


def test_set_lattice_join_is_union():
    lat = SetLattice()
    assert lat.bottom() == frozenset()
    assert lat.join({1}, {2}) == {1, 2}
    assert lat.leq({1}, {1, 2}) and not lat.leq({3}, {1, 2})


def test_tuple_lattice_pointwise():
    lat = TupleLattice(FlatLattice(), SetLattice())
    assert lat.bottom() == (BOTTOM, frozenset())
    assert lat.join((1, frozenset({1})), (2, frozenset({2}))) \
        == (TOP, frozenset({1, 2}))
    assert lat.leq((BOTTOM, frozenset()), (1, frozenset({9})))


# ---------------------------------------------------------------------------
# Solver behavior
# ---------------------------------------------------------------------------


def test_diamond_join_conflicting_values():
    # b0 -> b1 -> b3, b0 -> b2 -> b3; branches assign different values.
    func = make_func(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    values = {"b1": 10, "b2": 20}

    def transfer(block, state):
        return values.get(block.label, state)

    in_states, out_states = solve(func, FlatLattice(), transfer, boundary=0)
    assert in_states["b0"] == 0
    assert out_states["b1"] == 10 and out_states["b2"] == 20
    assert in_states["b3"] is TOP


def test_diamond_join_agreeing_values():
    func = make_func(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    in_states, _ = solve(func, FlatLattice(), lambda b, s: s, boundary=7)
    assert in_states["b3"] == 7  # same concrete value survives the join


def test_unreachable_block_stays_bottom():
    func = make_func(3, [(0, 1)])  # b2 has no in-edges
    in_states, out_states = solve(func, FlatLattice(),
                                  lambda b, s: s, boundary=1)
    assert in_states["b2"] is BOTTOM
    assert out_states["b2"] is BOTTOM


def test_single_block_function():
    func = make_func(1, [])
    in_states, out_states = solve(func, FlatLattice(),
                                  lambda b, s: s, boundary=42)
    assert in_states["b0"] == 42 and out_states["b0"] == 42


def test_irreducible_cfg_converges():
    # Two entries into a two-node cycle: e -> a, e -> b, a <-> b.
    func = make_func(3, [(0, 1), (0, 2), (1, 2), (2, 1)])
    values = {"b1": 1, "b2": 2}
    in_states, _ = solve(func, FlatLattice(),
                         lambda b, s: values.get(b.label, s), boundary=0)
    # Each cycle node receives both the entry value and the other
    # node's value: conflicting -> TOP, and the solver terminates.
    assert in_states["b1"] is TOP and in_states["b2"] is TOP


def test_backward_direction_accumulates():
    # Chain b0 -> b1 -> b2; each block contributes its label backward.
    func = make_func(3, [(0, 1), (1, 2)])

    def transfer(block, state):
        return frozenset(state) | {block.label}

    _, out_states = solve(func, SetLattice(), transfer,
                          direction="backward")
    assert out_states["b0"] == {"b0", "b1", "b2"}
    assert out_states["b2"] == {"b2"}


def test_landing_pad_edge_states():
    # b0's normal successor is b2; b1 is its landing pad, which must
    # receive the mid-block (call-site) state, not the fall-off state.
    func = make_func(3, [(0, 2)])
    func.blocks["b0"].landing_pads.append("b1")
    func.blocks["b1"].is_landing_pad = True

    def transfer(block, state):
        if block.label == "b0":
            return BlockResult("normal", {"b1": "unwound"})
        return state

    in_states, _ = solve(func, FlatLattice(), transfer, boundary="entry")
    assert in_states["b1"] == "unwound"
    assert in_states["b2"] == "normal"


def test_non_monotone_transfer_raises():
    class Unbounded:
        def bottom(self):
            return 0

        def join(self, a, b):
            return max(a, b)

    func = make_func(2, [(0, 1), (1, 0)])  # cycle keeps feeding itself
    with pytest.raises(AnalysisError):
        solve(func, Unbounded(), lambda b, s: s + 1)


def test_empty_function():
    func = BinaryFunction("t", 0, 0)
    assert solve(func, FlatLattice(), lambda b, s: s) == ({}, {})


# ---------------------------------------------------------------------------
# Hypothesis properties
# ---------------------------------------------------------------------------

graphs = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                 max_size=12),
    ))

flat_values = st.sampled_from([BOTTOM, 1, 2, TOP])


def _block_transfer(values):
    def transfer(block, state):
        return values.get(block.label, state)
    return transfer


@settings(max_examples=60, deadline=None)
@given(graphs, st.dictionaries(st.integers(0, 5), st.integers(0, 3),
                               max_size=6))
def test_solution_is_a_fixpoint(graph, assigns):
    """Re-applying the transfer functions changes nothing: for every
    edge, the predecessor's out-state flows into the successor, and the
    in-state is exactly the join over predecessor contributions."""
    n, edges = graph
    func = make_func(n, edges)
    lat = FlatLattice()
    values = {f"b{i}": v for i, v in assigns.items() if i < n}
    transfer = _block_transfer(values)

    in_states, out_states = solve(func, lat, transfer, boundary=0)

    for label, block in func.blocks.items():
        # out is the transfer applied to in.
        if in_states[label] is not BOTTOM:
            assert out_states[label] == transfer(block, in_states[label])
        # in is the join of predecessor outs (plus boundary at entry).
        expect = 0 if label == func.entry_label else BOTTOM
        for pred, pblock in func.blocks.items():
            if label in pblock.successors and out_states[pred] is not BOTTOM:
                expect = lat.join(expect, out_states[pred])
        assert in_states[label] == expect

    # Determinism: a second run reproduces the result exactly.
    again = solve(func, lat, transfer, boundary=0)
    assert again == (in_states, out_states)


@settings(max_examples=60, deadline=None)
@given(graphs, flat_values, flat_values,
       st.dictionaries(st.integers(0, 5), st.integers(0, 3), max_size=6))
def test_solver_is_monotone_in_boundary(graph, b1, b2, assigns):
    """A weaker (higher) boundary can only weaken the solution."""
    lat = FlatLattice()
    if not lat.leq(b1, b2):
        b1, b2 = b2, b1
    if not lat.leq(b1, b2):
        return  # incomparable concrete values
    n, edges = graph
    func = make_func(n, edges)
    values = {f"b{i}": v for i, v in assigns.items() if i < n}
    transfer = _block_transfer(values)

    lo_in, lo_out = solve(func, lat, transfer, boundary=b1)
    hi_in, hi_out = solve(func, lat, transfer, boundary=b2)
    for label in func.blocks:
        assert lat.leq(lo_in[label], hi_in[label])
        assert lat.leq(lo_out[label], hi_out[label])
