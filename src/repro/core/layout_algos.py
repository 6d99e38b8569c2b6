"""Basic-block layout algorithms for reorder-bbs (paper Table 1 pass 9).

Two profile-guided algorithms, matching BOLT's ``-reorder-blocks``
modes used in the paper's evaluation:

* ``cache`` — Pettis & Hansen bottom-up chaining (the classic).
* ``cache+`` — an ext-TSP-style score maximizer (the improved layout
  credited to Sergey Pupyrev in the paper's acknowledgments): chains
  are merged greedily by the gain in a locality score that rewards
  fall-throughs fully and short jumps partially.

Both operate on the hot sub-CFG; cold blocks keep their relative order
and are appended at the end (to be split off by ``split-functions``).

The ext-TSP merge loop keeps per-chain edge lists and an incrementally
maintained inter-chain weight map, so candidate scoring touches only
the two chains' own edges instead of rescanning the whole function's
edge set per chain pair (the pre-PR kernels did the latter; they are
preserved in :mod:`tests.oracles.reference_kernels` and the fast path is
tested to produce identical layouts).  Per-chain edge lists are kept in
global edge-insertion order and merged like sorted runs, so the
floating-point score accumulates in exactly the reference's order.
"""

# ext-TSP-style distance weights.
_FALLTHROUGH_WEIGHT = 1.0
_FORWARD_WEIGHT = 0.1
_BACKWARD_WEIGHT = 0.1
_FORWARD_DISTANCE = 1024
_BACKWARD_DISTANCE = 640


def order_blocks(func, algorithm, hot_threshold=1):
    """Compute a new layout (list of labels) for a simple function."""
    labels = list(func.blocks)
    if algorithm == "none" or len(labels) <= 2:
        return labels
    if algorithm == "reverse":
        return [labels[0]] + list(reversed(labels[1:]))

    hot = [l for l in labels
           if func.blocks[l].exec_count >= hot_threshold or l == func.entry_label]
    hot_set = set(hot)
    cold = [l for l in labels if l not in hot_set]
    if algorithm == "cache":
        ordered_hot = _pettis_hansen(func, hot)
    elif algorithm == "cache+":
        ordered_hot = _ext_tsp(func, hot)
    else:
        raise ValueError(f"unknown block layout algorithm {algorithm!r}")
    return ordered_hot + cold


def _edges_between(func, labels):
    allowed = set(labels)
    edges = []
    for label in labels:
        block = func.blocks[label]
        for succ, count in block.edge_counts.items():
            if succ in allowed and count > 0 and succ != func.entry_label:
                edges.append(((label, succ), count))
    edges.sort(key=lambda e: (-e[1], e[0]))
    return edges


def _pettis_hansen(func, labels):
    """Bottom-up chaining along the heaviest edges."""
    chains = {label: [label] for label in labels}
    chain_of = {label: label for label in labels}
    for (src, dst), count in _edges_between(func, labels):
        a, b = chain_of[src], chain_of[dst]
        if a == b:
            continue
        if chains[a][-1] != src or chains[b][0] != dst:
            continue
        chains[a].extend(chains[b])
        for label in chains[b]:
            chain_of[label] = a
        del chains[b]

    entry_chain = chain_of[func.entry_label]

    def weight(chain_id):
        return max(func.blocks[l].exec_count for l in chains[chain_id])

    rest = sorted((cid for cid in chains if cid != entry_chain),
                  key=lambda cid: (-weight(cid), chains[cid][0]))
    order = list(chains[entry_chain])
    for cid in rest:
        order.extend(chains[cid])
    return order


def _merge_runs(left, right):
    """Merge two ascending edge-index runs, preserving global order."""
    out = []
    i = j = 0
    nl, nr = len(left), len(right)
    while i < nl and j < nr:
        if left[i] < right[j]:
            out.append(left[i])
            i += 1
        else:
            out.append(right[j])
            j += 1
    out.extend(left[i:])
    out.extend(right[j:])
    return out


def _ext_tsp(func, labels):
    """Greedy chain merging maximizing the ext-TSP locality score."""
    allowed = set(labels)
    sizes = {l: max(1, func.blocks[l].size) for l in labels}
    edges = {}
    for label in labels:
        block = func.blocks[label]
        for succ, count in block.edge_counts.items():
            if succ in allowed and count > 0:
                edges[(label, succ)] = edges.get((label, succ), 0) + count
    # Frozen edge list in dict-insertion order; per-chain lists hold
    # indices into it so merged chains still sum scores in this order.
    edge_list = [(src, dst, count) for (src, dst), count in edges.items()]

    chains = {i: [l] for i, l in enumerate(labels)}
    chain_of = {l: i for i, l in enumerate(labels)}
    entry_chain = chain_of[func.entry_label]

    src_edges = {cid: [] for cid in chains}
    for idx, (src, dst, count) in enumerate(edge_list):
        src_edges[chain_of[src]].append(idx)

    def chain_score(seq, edge_indices):
        """Score of intra-chain edges given a concrete order.

        ``edge_indices`` lists (in global insertion order) every edge
        whose source lies in ``seq``; edges leaving the chain score 0.
        """
        pos = {}
        offset = 0
        for label in seq:
            pos[label] = offset
            offset += sizes[label]
        score = 0.0
        for idx in edge_indices:
            src, dst, count = edge_list[idx]
            if dst not in pos:
                continue
            src_end = pos[src] + sizes[src]
            dist = pos[dst] - src_end
            if dist == 0:
                score += count * _FALLTHROUGH_WEIGHT
            elif 0 < dist <= _FORWARD_DISTANCE:
                score += count * _FORWARD_WEIGHT * (1 - dist / _FORWARD_DISTANCE)
            elif -_BACKWARD_DISTANCE <= dist < 0:
                score += count * _BACKWARD_WEIGHT * (1 + dist / _BACKWARD_DISTANCE)
        return score

    current_scores = {cid: chain_score(seq, src_edges[cid])
                      for cid, seq in chains.items()}

    # Inter-chain weight map (both directions folded) and neighbor sets,
    # maintained incrementally across merges.  Pair keys are (lo, hi).
    cross = {}
    neighbors = {cid: set() for cid in chains}
    for src, dst, count in edge_list:
        a, b = chain_of[src], chain_of[dst]
        if a == b:
            continue
        pair = (a, b) if a < b else (b, a)
        cross[pair] = cross.get(pair, 0) + count
        neighbors[a].add(b)
        neighbors[b].add(a)

    # Best (gain, seq) per connected pair, dropped when either side
    # changes.  Values are identical to recomputation, so caching does
    # not disturb the reference's first-strict-max tie-breaking.
    gain_cache = {}

    def pair_best(a, b):
        merged_edges = None
        best = None
        for seq in (chains[a] + chains[b], chains[b] + chains[a]):
            # The entry block can never move off the front.
            if entry_chain in (a, b) and seq[0] != func.entry_label:
                continue
            if merged_edges is None:
                merged_edges = _merge_runs(src_edges[a], src_edges[b])
            gain = (chain_score(seq, merged_edges)
                    - current_scores[a] - current_scores[b])
            if best is None or gain > best[0]:
                best = (gain, seq)
        return best

    while len(chains) > 1:
        best = None
        chain_ids = list(chains)
        for i, a in enumerate(chain_ids):
            for b in chain_ids[i + 1 :]:
                if (a, b) not in cross:
                    continue
                cached = gain_cache.get((a, b), False)
                if cached is False:
                    cached = gain_cache[(a, b)] = pair_best(a, b)
                if cached is None:
                    continue
                gain, seq = cached
                if best is None or gain > best[0]:
                    best = (gain, a, b, seq)
        if best is None or best[0] <= 0:
            break
        _, a, b, seq = best
        chains[a] = seq
        src_edges[a] = _merge_runs(src_edges[a], src_edges[b])
        current_scores[a] = chain_score(seq, src_edges[a])
        for label in chains[b]:
            chain_of[label] = a
        if b == entry_chain:
            entry_chain = a
        del chains[b]
        del current_scores[b]
        del src_edges[b]
        # Fold b's cross weights into a's; drop stale cached gains.
        cross.pop((a, b) if a < b else (b, a), None)
        neighbors[a].discard(b)
        for n in neighbors.pop(b):
            if n == a:
                continue
            old = cross.pop((b, n) if b < n else (n, b))
            pair = (a, n) if a < n else (n, a)
            cross[pair] = cross.get(pair, 0) + old
            neighbors[n].discard(b)
            neighbors[n].add(a)
            neighbors[a].add(n)
        for key in [k for k in gain_cache if a in k or b in k]:
            del gain_cache[key]

    def weight(cid):
        return max(func.blocks[l].exec_count for l in chains[cid])

    rest = sorted((cid for cid in chains if cid != entry_chain),
                  key=lambda cid: (-weight(cid), chains[cid][0]))
    order = list(chains[entry_chain])
    for cid in rest:
        order.extend(chains[cid])
    return order
