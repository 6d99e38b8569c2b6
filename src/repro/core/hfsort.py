"""HFSort and HFSort+ function ordering (Ottoni & Maher, CGO'17),
used by BOLT's reorder-functions pass (paper Table 1 pass 13) and by
the linker baseline in the paper's Facebook evaluation (section 6.1).

HFSort is the C3 ("Call-Chain Clustering") heuristic: process functions
from hottest to coldest, appending each to the cluster of its heaviest
caller unless the merged cluster would exceed the merge cap (in the
original, sized to huge pages; scaled down here to the simulator's
page size).  Final clusters are sorted by density (heat per byte).

HFSort+ refines the result with a gain-driven cluster merging phase
that models expected page-boundary crossings, improving I-TLB behavior
further.

Complexity: ``CallGraph`` maintains a reverse-adjacency index so
``callers_of`` is a dictionary lookup instead of an all-arcs scan, and
``hfsort_plus`` keeps an incrementally-updated inter-cluster weight map
and, per merge iteration, visits only the cluster pairs an arc joins
instead of every pair.
Both orderings are asserted to be permutations of the input functions
(``tests/test_hfsort.py`` checks them against the pre-PR reference
implementations in :mod:`tests.oracles.reference_kernels`).
"""


class OrderingError(AssertionError):
    """An ordering kernel produced something other than a permutation."""


def _check_permutation(kernel, out, expected):
    if len(out) != len(expected) or set(out) != set(expected):
        missing = sorted(set(expected) - set(out))[:5]
        extra = sorted(set(out) - set(expected))[:5]
        raise OrderingError(
            f"{kernel} output is not a permutation of the input: "
            f"{len(out)}/{len(expected)} functions"
            + (f", missing {missing}" if missing else "")
            + (f", extra {extra}" if extra else ""))


class CallGraph:
    """A weighted dynamic call graph."""

    def __init__(self):
        self.weights = {}    # func -> sample weight (hotness)
        self.sizes = {}      # func -> code size in bytes
        self.arcs = {}       # (caller, callee) -> weight
        self._callers = {}   # callee -> {caller: weight} (reverse adjacency)

    def add_function(self, name, weight, size):
        self.weights[name] = self.weights.get(name, 0) + weight
        self.sizes[name] = max(1, size)

    def add_arc(self, caller, callee, weight):
        if weight <= 0:
            return
        key = (caller, callee)
        self.arcs[key] = self.arcs.get(key, 0) + weight
        callers = self._callers.setdefault(callee, {})
        callers[caller] = callers.get(caller, 0) + weight

    def callers_of(self, callee):
        """Callers of ``callee`` with arc weights — O(in-degree)."""
        return dict(self._callers.get(callee, ()))

    @classmethod
    def from_profile(cls, context, profile):
        """Build from LBR call records, or — without LBRs — from static
        direct calls weighted by containing-block counts (section 5.3:
        'BOLT is still able to build an incomplete call graph by looking
        at the direct calls in the binary', missing indirect calls)."""
        graph = cls()
        for func in context.functions.values():
            graph.add_function(func.name, func.exec_count, func.size)
        if profile is not None and profile.lbr:
            for (caller, callee), weight in profile.calls_between().items():
                if caller in graph.weights and callee in graph.weights:
                    graph.add_arc(caller, callee, weight)
        else:
            for func in context.functions.values():
                if not func.is_simple:
                    continue
                for block in func.blocks.values():
                    for insn in block.insns:
                        if (insn.is_call and not insn.is_indirect
                                and insn.sym is not None
                                and insn.sym.name in graph.weights):
                            graph.add_arc(func.name, insn.sym.name,
                                          block.exec_count)
        return graph


class _Cluster:
    __slots__ = ("funcs", "size", "samples")

    def __init__(self, func, size, samples):
        self.funcs = [func]
        self.size = size
        self.samples = samples

    @property
    def density(self):
        return self.samples / self.size

    def merge(self, other):
        self.funcs.extend(other.funcs)
        self.size += other.size
        self.samples += other.samples


def hfsort(graph, merge_cap=4096 * 8):
    """C3 clustering; returns the ordered list of function names.

    Functions without samples keep their natural (input) order at the
    end — BOLT likewise only reorders functions with profile heat.
    """
    hot = [f for f, w in graph.weights.items() if w > 0]
    cold = [f for f, w in graph.weights.items() if w <= 0]
    clusters = {f: _Cluster(f, graph.sizes[f], graph.weights[f]) for f in hot}
    cluster_of = {f: f for f in hot}

    for func in sorted(hot, key=lambda f: (-graph.weights[f], f)):
        callers = {
            caller: weight for caller, weight in graph.callers_of(func).items()
            if caller in cluster_of
        }
        if not callers:
            continue
        best_caller = max(sorted(callers), key=lambda c: callers[c])
        src = cluster_of[func]
        dst = cluster_of[best_caller]
        if src == dst:
            continue
        # C3 condition: only append when `func` heads its own cluster
        # (call-chain order preserved) and the merge stays under the cap.
        if clusters[src].funcs[0] != func:
            continue
        if clusters[dst].size + clusters[src].size > merge_cap:
            continue
        clusters[dst].merge(clusters[src])
        for moved in clusters[src].funcs:
            cluster_of[moved] = dst
        del clusters[src]

    ordered = sorted(clusters.values(), key=lambda c: (-c.density, c.funcs[0]))
    out = []
    for cluster in ordered:
        out.extend(cluster.funcs)
    out.extend(cold)
    _check_permutation("hfsort", out, graph.weights)
    return out


def hfsort_plus(graph, merge_cap=4096 * 8, page_size=4096):
    """HFSort+ : C3 clusters refined by expected-TLB-gain merging.

    After the C3 phase, clusters are greedily merged when doing so
    reduces the expected number of page crossings along hot arcs:
    gain = (arc weight between clusters) / (pages spanned by merge).

    The inter-cluster arc weights are computed once from the arc list
    and folded together as clusters merge, and each merge iteration
    visits only the cluster pairs an arc joins: O(arcs log arcs) per
    merge, where scanning every cluster pair cost O(clusters^2) and
    rescanning the arcs per pair O(clusters^2 x arcs).
    """
    base_order = hfsort(graph, merge_cap)
    # Rebuild cluster list from the hfsort result (hot clusters only).
    # Ids count up in list order, and merging keeps the survivor's id
    # and drops the other's, so ``clusters`` iterates in list-position
    # order and a later position is always a larger id.
    hot = {f for f, w in graph.weights.items() if w > 0}
    clusters = {}       # stable id -> _Cluster
    cluster_of = {}     # func -> stable id
    for func in base_order:
        if func not in hot:
            continue
        cid = len(clusters)
        clusters[cid] = _Cluster(func, graph.sizes[func], graph.weights[func])
        cluster_of[func] = cid

    # Inter-cluster weights, both directions folded: {a: {b: weight}}.
    inter = {cid: {} for cid in clusters}
    for (a, b), w in graph.arcs.items():
        ca, cb = cluster_of.get(a), cluster_of.get(b)
        if ca is None or cb is None or ca == cb:
            continue
        inter[ca][cb] = inter[ca].get(cb, 0) + w
        inter[cb][ca] = inter[cb].get(ca, 0) + w

    improved = True
    while improved and len(clusters) > 1:
        improved = False
        best = None
        # Pairs in list-position order, exactly like the reference's
        # nested index loops, but only the pairs an arc joins.
        for a, ca in clusters.items():
            for b, weight in sorted(inter[a].items()):
                if b < a or weight == 0:
                    continue
                merged_size = ca.size + clusters[b].size
                if merged_size > merge_cap * 2:
                    continue
                pages = max(1, (merged_size + page_size - 1) // page_size)
                gain = weight / pages
                if best is None or gain > best[0]:
                    best = (gain, a, b)
        if best is not None:
            _, a, b = best
            clusters[a].merge(clusters.pop(b))
            # Fold b's adjacency into a's; the (a, b) pair goes away.
            for n, w in inter.pop(b).items():
                if n == a:
                    continue
                inter[a][n] = inter[a].get(n, 0) + w
                nbrs = inter[n]
                nbrs.pop(b, None)
                nbrs[a] = nbrs.get(a, 0) + w
            inter[a].pop(b, None)
            improved = True

    final = sorted(clusters.values(), key=lambda c: (-c.density, c.funcs[0]))
    out = []
    for cluster in final:
        out.extend(cluster.funcs)
    out.extend(f for f in base_order if f not in hot)
    _check_permutation("hfsort+", out, graph.weights)
    return out
