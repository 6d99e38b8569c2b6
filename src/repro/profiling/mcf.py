"""Minimum-cost-flow edge-count recovery for non-LBR profiles.

Without LBRs, only per-block sample counts exist; recovering edge
counts that satisfy the flow equations is the classic MCF formulation
(Levin 2007, used in IBM FDPR — paper section 5.2).

Network: each block v is split into v_in -> v_out.  A measurement arc
carries the first w(v) units (the block's sample count) at cost 0 and
a parallel arc any extra flow at 2 per unit, so flow prefers
measured-hot paths; a block may also carry less than w(v).  Each CFG
edge is an arc out(src) -> in(dst) at 1 per unit, so flow prefers
short explanations.  The source feeds max(w(entry), 1) units into the
entry and every exit drains to the sink.  No arc can carry more than
the entry's units, so that is the capacity of the extra-flow, CFG and
exit arcs.

Solver: successive shortest paths.  From zero flow, Bellman-Ford finds
the cheapest source-to-sink path in the residual network and the
path's bottleneck is pushed along it, until no path is left.  Each
augmentation along a cheapest path keeps the flow minimum-cost for its
value, so the result is a minimum-cost maximum flow.  Reverse arcs
have negative costs, hence Bellman-Ford rather than Dijkstra.

The networkx formulation this replaced also had node demands (which
``max_flow_min_cost`` overwrites with its own), a source -> sink escape
arc (it shares no arc with the CFG network, so every maximum flow
saturated it, adding only a constant) and a middle node per measured
block (``nx.DiGraph`` cannot hold parallel arcs); none is needed.
Without an exit reachable from the entry every flow is 0, as before.
"""

import math

_SOURCE, _SINK = 0, 1


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
    edges = list(dict.fromkeys(edges))
    demand = max(counts.get(entry, 0), 1)
    nodes = {}

    def node(side, block):
        return nodes.setdefault((side, block), len(nodes) + 2)

    arcs = []  # (tail, head, capacity, cost)
    for block in dict.fromkeys(blocks):
        weight = max(0, counts.get(block, 0))
        if weight:
            arcs.append((node("in", block), node("out", block), weight, 0))
        arcs.append((node("in", block), node("out", block), demand, 2))
    first_edge = len(arcs)
    arcs += [(node("out", src), node("in", dst), demand, 1)
             for src, dst in edges]
    arcs.append((_SOURCE, node("in", entry), demand, 0))
    arcs += [(node("out", block), _SINK, demand, 0) for block in exits]

    flow = _min_cost_max_flow(len(nodes) + 2, arcs)
    return {edge: flow[first_edge + i] for i, edge in enumerate(edges)}


def _min_cost_max_flow(size, arcs):
    """Flow on each of ``arcs`` in a minimum-cost maximum flow from
    node 0 to node 1.  Residual arc ``a`` is stored next to its reverse
    arc ``a ^ 1``, so ``head[a ^ 1]`` is the tail of ``a``."""
    head, residual, cost = [], [], []
    for tail, to, capacity, price in arcs:
        head += (to, tail)
        residual += (capacity, 0)
        cost += (price, -price)

    while True:
        # Bellman-Ford: relax every arc until no distance improves.  The
        # arc order picks among equal-cost optima.
        dist = [math.inf] * size
        via = [None] * size
        dist[_SOURCE] = 0
        changed = True
        while changed:
            changed = False
            for a, v in enumerate(head):
                through = dist[head[a ^ 1]] + cost[a]
                if residual[a] and through < dist[v]:
                    dist[v] = through
                    via[v] = a
                    changed = True
        if via[_SINK] is None:
            break
        path = []
        v = _SINK
        while v != _SOURCE:
            path.append(via[v])
            v = head[via[v] ^ 1]
        push = min(residual[a] for a in path)
        for a in path:
            residual[a] -= push
            residual[a ^ 1] += push
    return residual[1::2]
