"""The reference non-LBR edge-count recovery: networkx, preserved verbatim.

This is :func:`repro.profiling.mcf.min_cost_flow_edges` before the
package got its own successive-shortest-paths solver: the same
network solved with ``networkx.max_flow_min_cost``.  It is kept as the
oracle for that solver, which must reach the same minimum cost (edge
flows may differ where optima tie).  networkx is a test-only
dependency (the ``dev`` extra); only tests import this module.
"""


def min_cost_flow_edges(blocks, edges, counts, entry, exits):
    """Recover edge flows from block counts.

    Args:
        blocks: iterable of block names.
        edges: iterable of (src, dst) CFG edges.
        counts: {block: sampled count}.
        entry: entry block name.
        exits: blocks whose flow leaves the function (returns/tail
            calls/throws).

    Returns {edge: flow}.
    """
    import networkx as nx

    blocks = list(blocks)
    edges = list(edges)
    graph = nx.DiGraph()
    source, sink = "__source", "__sink"

    # Node split: measurement arc v_in -> v_out.
    # Piecewise cost: the first w(v) units are free (matching the
    # measurement), additional units cost 2 each (we would rather route
    # along measured-hot paths), and we allow deficits implicitly by
    # not forcing flow through.
    total = sum(max(0, counts.get(b, 0)) for b in blocks) or 1
    cap = max(total * 4, 16)
    for block in blocks:
        weight = max(0, counts.get(block, 0))
        v_in, v_out = ("in", block), ("out", block)
        if weight:
            # DiGraph cannot hold parallel arcs: route the free
            # (measured) capacity through an intermediate node.
            mid = ("m", block)
            graph.add_edge(v_in, mid, capacity=weight, weight=0)
            graph.add_edge(mid, v_out, capacity=weight, weight=0)
        graph.add_edge(v_in, v_out, capacity=cap, weight=2)

    # CFG arcs cost 1 per unit so flow prefers short explanations.
    for src, dst in edges:
        graph.add_edge(("out", src), ("in", dst), capacity=cap, weight=1)

    demand = max(counts.get(entry, 0), 1)
    # Entry receives all flow from the source; exit blocks drain to sink.
    graph.add_edge(source, ("in", entry), capacity=demand, weight=0)
    for block in exits:
        graph.add_edge(("out", block), sink, capacity=cap, weight=0)
    # Escape hatch so the problem is always feasible even with
    # inconsistent measurements (e.g. sampled noreturn paths).
    graph.add_edge(source, sink, capacity=cap, weight=50)

    graph.add_node(source, demand=-demand)
    graph.add_node(sink, demand=demand)
    flow = nx.max_flow_min_cost(graph, source, sink)

    out = {}
    for src, dst in edges:
        out[(src, dst)] = flow.get(("out", src), {}).get(("in", dst), 0)
    return out
