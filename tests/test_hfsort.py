"""HFSort/HFSort+ and block-layout algorithm tests.

The fast kernels (reverse-adjacency HFSort, incremental HFSort+ and
ext-TSP) must produce *identical* orders to the pre-PR reference
implementations kept in ``tests.oracles.reference_kernels`` — the
equivalence properties at the bottom pin that down on random graphs.
"""

import pytest
from hypothesis import given, strategies as st

from tests.oracles.reference_kernels import (
    hfsort_plus_reference,
    hfsort_reference,
    order_blocks_reference,
)
from repro.core.binary_function import BinaryBasicBlock, BinaryFunction
from repro.core.hfsort import (
    CallGraph,
    OrderingError,
    _check_permutation,
    hfsort,
    hfsort_plus,
)
from repro.core.layout_algos import order_blocks


def graph_of(nodes, arcs):
    graph = CallGraph()
    for name, weight, size in nodes:
        graph.add_function(name, weight, size)
    for caller, callee, weight in arcs:
        graph.add_arc(caller, callee, weight)
    return graph


def test_hfsort_clusters_call_chain():
    graph = graph_of(
        [("a", 100, 64), ("b", 90, 64), ("c", 80, 64), ("x", 1, 64)],
        [("a", "b", 50), ("b", "c", 40)],
    )
    order = hfsort(graph)
    # The a->b->c chain stays contiguous, in call order.
    ia, ib, ic = order.index("a"), order.index("b"), order.index("c")
    assert ib == ia + 1 and ic == ib + 1
    assert order.index("x") > ic


def test_hfsort_respects_merge_cap():
    graph = graph_of(
        [("a", 100, 5000), ("b", 90, 5000)],
        [("a", "b", 50)],
    )
    order = hfsort(graph, merge_cap=6000)   # merge would exceed the cap
    assert set(order) == {"a", "b"}
    # Order by density, not by chain.
    assert order.index("a") < order.index("b")


def test_hfsort_cold_functions_last():
    graph = graph_of(
        [("hot", 100, 10), ("cold1", 0, 10), ("cold2", 0, 10)],
        [],
    )
    order = hfsort(graph)
    assert order[0] == "hot"
    assert set(order[1:]) == {"cold1", "cold2"}


def test_hfsort_heaviest_caller_wins():
    graph = graph_of(
        [("h1", 100, 16), ("h2", 100, 16), ("shared", 90, 16)],
        [("h1", "shared", 10), ("h2", "shared", 80)],
    )
    order = hfsort(graph)
    # shared joins h2 (the heavier caller) and follows it.
    assert order.index("shared") == order.index("h2") + 1


def test_hfsort_plus_groups_hot_arcs():
    graph = graph_of(
        [("a", 100, 32), ("b", 80, 32), ("c", 60, 32), ("d", 1, 32)],
        [("a", "b", 70), ("b", "c", 60), ("c", "a", 10)],
    )
    order = hfsort_plus(graph)
    hot_positions = [order.index(n) for n in ("a", "b", "c")]
    assert max(hot_positions) - min(hot_positions) == 2  # contiguous
    assert order.index("d") > max(hot_positions)


@given(
    weights=st.lists(st.integers(0, 1000), min_size=1, max_size=12),
)
def test_prop_hfsort_is_permutation(weights):
    graph = CallGraph()
    names = [f"f{i}" for i in range(len(weights))]
    for name, weight in zip(names, weights):
        graph.add_function(name, weight, 16)
    for i in range(len(names) - 1):
        graph.add_arc(names[i], names[i + 1], weights[i])
    for flavor in (hfsort, hfsort_plus):
        order = flavor(graph)
        assert sorted(order) == sorted(names)


# -- block layout algorithms -------------------------------------------------


def _make_func(edges, counts, entry="e"):
    func = BinaryFunction("f", 0x1000, 100)
    labels = sorted({entry} | {x for e in edges for x in e} | set(counts))
    labels.remove(entry)
    labels.insert(0, entry)
    for label in labels:
        block = BinaryBasicBlock(label)
        block.exec_count = counts.get(label, 0)
        from repro.isa import Instruction, Op

        block.insns = [Instruction(Op.NOPN, imm=8)]
        func.add_block(block)
    for (src, dst), count in edges.items():
        func.blocks[src].set_edge(dst, count)
    return func


def test_order_blocks_none_and_reverse():
    func = _make_func({("e", "a"): 1, ("a", "b"): 1},
                      {"e": 1, "a": 1, "b": 1})
    assert order_blocks(func, "none") == list(func.blocks)
    rev = order_blocks(func, "reverse")
    assert rev[0] == "e" and rev[1:] == list(func.blocks)[1:][::-1]


def test_order_blocks_cache_chains_hot_path():
    func = _make_func(
        {("e", "hot"): 90, ("e", "cold"): 10, ("hot", "exit"): 90,
         ("cold", "exit"): 10},
        {"e": 100, "hot": 90, "cold": 10, "exit": 100},
    )
    order = order_blocks(func, "cache")
    assert order[0] == "e"
    assert order.index("hot") < order.index("cold")


def test_order_blocks_cache_plus_prefers_fallthrough():
    func = _make_func(
        {("e", "a"): 60, ("e", "b"): 40, ("a", "x"): 60, ("b", "x"): 40},
        {"e": 100, "a": 60, "b": 40, "x": 100},
    )
    order = order_blocks(func, "cache+")
    assert order[0] == "e"
    assert order.index("a") < order.index("b")


def test_order_blocks_entry_stays_first_always():
    func = _make_func(
        {("e", "a"): 1, ("a", "e2"): 100, ("e2", "a"): 100},
        {"e": 1, "a": 101, "e2": 100},
    )
    for algo in ("cache", "cache+", "reverse", "none"):
        order = order_blocks(func, algo)
        assert order[0] == "e", algo
        assert sorted(order) == sorted(func.blocks)


@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 1000),
)
def test_prop_layouts_are_permutations(n, seed):
    import random

    rng = random.Random(seed)
    labels = ["e"] + [f"b{i}" for i in range(n)]
    edges = {}
    counts = {label: rng.randrange(0, 100) for label in labels}
    for i, src in enumerate(labels):
        for dst in rng.sample(labels[1:], min(2, n)):
            edges[(src, dst)] = rng.randrange(0, 50)
    func = _make_func(edges, counts)
    for algo in ("cache", "cache+"):
        order = order_blocks(func, algo, hot_threshold=1)
        assert sorted(order) == sorted(func.blocks), algo
        assert order[0] == "e"


# -- permutation guard and cold-tail regression ------------------------------


def test_check_permutation_raises_on_dropped_function():
    with pytest.raises(OrderingError, match="missing"):
        _check_permutation("hfsort", ["a", "b"], ["a", "b", "c"])
    with pytest.raises(OrderingError, match="extra"):
        _check_permutation("hfsort", ["a", "b", "x"], ["a", "b", "c"])
    _check_permutation("hfsort", ["b", "a"], ["a", "b"])  # permutation: fine


def test_hfsort_plus_cold_tail_complete_and_in_input_order():
    """Regression: the cold tail must carry *every* unprofiled function
    through, in hfsort's (natural input) order — nothing silently
    dropped even when hot clusters churn through many merges."""
    nodes = [(f"hot{i}", 100 - i, 64) for i in range(8)]
    nodes += [(f"cold{i}", 0, 64) for i in range(8)]
    arcs = [(f"hot{i}", f"hot{i + 1}", 50 + i) for i in range(7)]
    graph = graph_of(nodes, arcs)
    order = hfsort_plus(graph)
    assert sorted(order) == sorted(graph.weights)
    tail = order[-8:]
    assert tail == [f"cold{i}" for i in range(8)]  # input order preserved


def test_hfsort_plus_handles_duplicate_registration():
    graph = graph_of(
        [("a", 50, 32), ("a", 50, 32), ("b", 10, 32), ("z", 0, 32)],
        [("a", "b", 30)],
    )
    assert graph.weights["a"] == 100  # weights accumulate
    order = hfsort_plus(graph)
    assert sorted(order) == ["a", "b", "z"]


# -- equivalence with the pre-PR reference kernels ---------------------------


def _random_graph(rng, n):
    graph = CallGraph()
    names = [f"f{i}" for i in range(n)]
    for name in names:
        graph.add_function(name, rng.choice([0, 0, rng.randrange(1, 500)]),
                           rng.randrange(1, 9000))
    for _ in range(rng.randrange(0, 3 * n)):
        graph.add_arc(rng.choice(names), rng.choice(names),
                      rng.randrange(0, 100))
    return graph


@given(n=st.integers(1, 14), seed=st.integers(0, 10_000))
def test_prop_hfsort_matches_reference(n, seed):
    import random

    graph = _random_graph(random.Random(seed), n)
    assert hfsort(graph) == hfsort_reference(graph)
    assert hfsort_plus(graph) == hfsort_plus_reference(graph)


@given(n=st.integers(2, 10), seed=st.integers(0, 10_000))
def test_prop_order_blocks_matches_reference(n, seed):
    import random

    rng = random.Random(seed)
    labels = ["e"] + [f"b{i}" for i in range(n)]
    counts = {label: rng.choice([0, rng.randrange(0, 200)])
              for label in labels}
    edges = {}
    for src in labels:
        for dst in rng.sample(labels[1:], min(rng.randrange(0, 4), n)):
            edges[(src, dst)] = rng.randrange(0, 80)
    func = _make_func(edges, counts)
    for algo in ("none", "reverse", "cache", "cache+"):
        assert (order_blocks(func, algo)
                == order_blocks_reference(func, algo)), algo
