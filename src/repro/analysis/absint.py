"""Generic abstract-interpretation engine over reconstructed CFGs.

A thin, classic worklist solver over reconstructed CFGs: join-
semilattice state, one transfer function per block, forward or backward
propagation, fixpoint by monotone iteration.  It is the repository's one
fixpoint engine: ``core/dataflow.py``'s liveness and dominators run on
it as well as the lint checkers.  The concrete analyses in
:mod:`repro.analysis.checkers` are deliberately *flat* (constant
propagation over a handful of facts), so the checkers only report
violations they can prove on every path — ``TOP`` (conflicting or
unknown information) is always silent.

Design notes:

* States are ordinary immutable Python values; the lattice object only
  supplies ``bottom()``, ``join()`` and (optionally) ``leq()``.
* Landing pads: exceptional edges do not leave from the end of a
  block but from each call site inside it.  A transfer function that
  cares returns a :class:`BlockResult` carrying per-successor edge
  states; plain returns mean "the block's out-state flows on every
  edge".
* Unreachable blocks keep the bottom state, which every checker treats
  as "cannot happen" — dead code never produces findings here
  (``BL004`` reports it separately).
"""

import collections


class AnalysisError(Exception):
    """The solver did not converge (non-monotone transfer function)."""


class _Top:
    """Unique ⊤ sentinel: conflicting/unknown information."""

    __slots__ = ()

    def __repr__(self):
        return "TOP"


class _Bottom:
    """Unique ⊥ sentinel: no information has reached this point."""

    __slots__ = ()

    def __repr__(self):
        return "BOTTOM"


TOP = _Top()
BOTTOM = _Bottom()


class Lattice:
    """Join-semilattice interface; subclasses define the state space."""

    def bottom(self):
        raise NotImplementedError

    def join(self, a, b):
        raise NotImplementedError

    def leq(self, a, b):
        """Partial order; default derives it from join (needs __eq__)."""
        return self.join(a, b) == b


class FlatLattice(Lattice):
    """BOTTOM < any concrete value < TOP (constant propagation shape)."""

    def bottom(self):
        return BOTTOM

    def join(self, a, b):
        if a is BOTTOM:
            return b
        if b is BOTTOM:
            return a
        if a is TOP or b is TOP:
            return TOP
        return a if a == b else TOP

    def leq(self, a, b):
        if a is BOTTOM or b is TOP:
            return True
        return a == b


class SetLattice(Lattice):
    """Finite powerset lattice: join is union."""

    def bottom(self):
        return frozenset()

    def join(self, a, b):
        return frozenset(a) | frozenset(b)

    def leq(self, a, b):
        return frozenset(a) <= frozenset(b)


class TupleLattice(Lattice):
    """Pointwise product of component lattices."""

    def __init__(self, *parts):
        self.parts = parts

    def bottom(self):
        return tuple(p.bottom() for p in self.parts)

    def join(self, a, b):
        return tuple(p.join(x, y) for p, x, y in zip(self.parts, a, b))

    def leq(self, a, b):
        return all(p.leq(x, y) for p, x, y in zip(self.parts, a, b))


class BlockResult:
    """Transfer-function return value with per-edge state overrides.

    ``edge_states`` maps successor label -> state for edges whose state
    differs from the block's fall-off ``out`` state (landing-pad edges
    leave from mid-block call sites, not from the terminator).
    """

    __slots__ = ("out", "edge_states")

    def __init__(self, out, edge_states=None):
        self.out = out
        self.edge_states = edge_states or {}


def solve(func, lattice, transfer, direction="forward", boundary=None):
    """Run ``transfer`` to fixpoint; returns (in_states, out_states).

    ``transfer(block, state)`` maps the state at block entry (forward)
    or block exit (backward) across the block; it may return a plain
    state or a :class:`BlockResult`.  ``boundary`` seeds the entry
    block (forward) or every exit block (backward).  Edges follow
    successors and landing pads; labels missing from ``func.blocks``
    are ignored.

    A forward solve starts from the entry alone, so an unreached block
    keeps the bottom state.  A backward solve starts from every block:
    a loop with no path to an exit still contributes its own effects
    (liveness of a register used inside an endless loop).

    Raises :class:`AnalysisError` after ``64 * len(blocks)`` block
    visits — only possible for non-monotone transfer functions or
    unbounded-height lattices.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"bad direction {direction!r}")
    labels = list(func.blocks)
    if not labels:
        return {}, {}
    if boundary is None:
        boundary = lattice.bottom()

    edges_out = {}   # label -> [successor labels] in propagation direction
    for label, block in func.blocks.items():
        succs = list(block.successors)
        succs += [lp for lp in block.landing_pads if lp not in succs]
        edges_out[label] = [s for s in succs if s in func.blocks]
    if direction == "backward":
        reversed_edges = {label: [] for label in labels}
        for label, succs in edges_out.items():
            for succ in succs:
                reversed_edges[succ].append(label)
        roots = [label for label in labels if not edges_out[label]]
        edges_out = reversed_edges
    else:
        roots = [func.entry_label] if func.entry_label in func.blocks else []

    edges_in = {label: [] for label in labels}
    for label, succs in edges_out.items():
        for succ in succs:
            edges_in[succ].append(label)

    bottom = lattice.bottom()
    in_states = dict.fromkeys(labels, bottom)
    out_states = dict.fromkeys(labels, bottom)
    # Per-edge contributions (landing-pad edges carry call-site states).
    edge_states = {}

    for label in roots:
        in_states[label] = boundary
    if direction == "backward":
        # Last block first: layout order mostly ends at the exits.
        worklist = collections.deque(reversed(labels))
    else:
        worklist = collections.deque(roots)
    queued = set(worklist)

    limit = 64 * len(labels)
    steps = 0
    while worklist:
        steps += 1
        if steps > limit:
            raise AnalysisError(
                f"{func.name}: no fixpoint after {limit} iterations "
                f"(non-monotone transfer function?)")
        label = worklist.popleft()
        queued.discard(label)
        block = func.blocks[label]

        result = transfer(block, in_states[label])
        if not isinstance(result, BlockResult):
            result = BlockResult(result)
        out_states[label] = result.out

        for succ in edges_out[label]:
            contributed = result.edge_states.get(succ, result.out)
            if edge_states.get((label, succ)) == contributed:
                continue
            edge_states[(label, succ)] = contributed
            new_in = boundary if succ in roots else bottom
            for pred in edges_in[succ]:
                if (pred, succ) in edge_states:
                    new_in = lattice.join(new_in, edge_states[(pred, succ)])
            if new_in != in_states[succ]:
                in_states[succ] = new_in
                if succ not in queued:
                    worklist.append(succ)
                    queued.add(succ)
    return in_states, out_states
