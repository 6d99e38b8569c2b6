"""Attaching a sampled BinaryProfile to reconstructed CFGs.

Implements the paper's section 5.2 semantics:

* **LBR mode** — taken-branch records map directly onto CFG edges;
  fall-through counts are *inferred* by attributing each block's surplus
  out-flow to its not-taken successor ("BOLT satisfies the flow
  equation by attributing all surplus flow to the non-taken path ...
  trusting the original layout done by the static compiler").
* **non-LBR mode** — only per-address sample counts exist; block counts
  are summed samples and edge counts are recovered with min-cost flow
  (Levin/FDPR) or a proportional heuristic.

Each function is stamped with a profile-match score (the "Profile Acc"
of the paper's Figure 4 dump): the fraction of branch records that
landed on recognizable (branch-site, target) pairs.

**Stale profiles** (Ayupov/Panchenko/Pupyrev, arXiv:2401.17168): real
deployments routinely feed BOLT a profile collected on a *different*
build.  A build-id stamp (``Binary.content_hash``) detects the
mismatch; instead of mis-attributing counts or crashing, attachment
switches to fuzzy matching — profile-only functions are re-matched by
name and CFG similarity, out-of-range samples are dropped, and the
counts of exactly-matched records are rescaled so hot paths keep
their sampled magnitude.  Intra-function records that no longer land
on real (branch site, block entry) pairs are *not* guessed at: a
wrong edge bias is worse than none, so they only lower the reported
match-quality percentage while function-level hotness (cross-function
call records, which match by name) still guides function reordering.
"""

import bisect

from repro.profiling.mcf import min_cost_flow_edges

#: Cap on stale-profile count rescaling: a function whose records
#: mostly failed to match should not have the few survivors blown up
#: into fake certainty.
MAX_RESCALE = 8.0


def attach_profile(context, profile):
    """Annotate every simple function; returns per-function match rates."""
    diags = context.diagnostics
    dropped = _sanitize(profile, diags)
    stale, reason = detect_stale(context, profile)
    remap = {}
    if stale:
        context.stale_profile = True
        if context.options.stale_matching:
            remap = _match_stale_functions(context, profile)
    source_of = {fname: pname for pname, fname in remap.items()}

    entry_counts = _function_entry_counts(profile, remap)
    within = profile.branches_by_function()
    calls = profile.calls_by_function() if profile.lbr else {}
    rates = {}
    totals = _MatchTotals()
    for func in context.functions.values():
        func.exec_count = max(0, entry_counts.get(func.name, 0))
        if not func.is_simple:
            continue
        source = source_of.get(func.name, func.name)
        if profile.lbr:
            rates[func.name] = _attach_lbr(context, func,
                                           within.get(source, {}),
                                           calls.get(source, ()),
                                           fuzzy=stale, totals=totals)
        else:
            rates[func.name] = _attach_nolbr(context, func, profile,
                                             source=source, totals=totals)
        func.has_profile = any(
            b.exec_count for b in func.blocks.values()) or func.exec_count > 0

    quality = totals.quality()
    if stale:
        context.profile_quality = quality
        recovered = (f"fuzzy matching recovered {quality:.1%} of branch "
                     f"records" if quality is not None
                     else "no branch records to match")
        remapped = f", {len(remap)} function(s) re-matched" if remap else ""
        out_of_range = (f", {totals.dropped} out-of-range record(s) dropped"
                        if totals.dropped else "")
        diags.warning("profile",
                      f"stale profile detected ({reason}); {recovered}"
                      f"{remapped}{out_of_range}")
        if (quality is not None
                and quality < context.options.stale_min_quality):
            diags.warning(
                "profile",
                f"match quality {quality:.1%} below threshold "
                f"{context.options.stale_min_quality:.1%}; profile ignored")
            _strip_profile(context)
            return {}
    elif quality is not None:
        context.profile_quality = quality
    if dropped:
        diags.warning("profile",
                      f"dropped {dropped} malformed profile record(s) "
                      f"(negative counts)")
    return rates


def _sanitize(profile, diags):
    """Drop structurally-invalid records (fault-injected or corrupt
    producers): negative counts never attach."""
    bad_branches = [key for key, (count, mispreds) in profile.branches.items()
                    if count < 0 or mispreds < 0]
    for key in bad_branches:
        del profile.branches[key]
    bad_samples = [loc for loc, count in profile.ip_samples.items()
                   if count < 0]
    for loc in bad_samples:
        del profile.ip_samples[loc]
    return len(bad_branches) + len(bad_samples)


class _MatchTotals:
    """Aggregate match accounting across all functions."""

    def __init__(self):
        self.matched = 0
        self.total = 0
        self.dropped = 0

    def quality(self):
        return (self.matched / self.total) if self.total else None


# ---------------------------------------------------------------------------
# Stale-profile detection and function re-matching
# ---------------------------------------------------------------------------


def detect_stale(context, profile):
    """Is this profile from a different build of the binary?

    Returns ``(stale, reason)`` from the build-id stamp, or from a
    structural heuristic for unstamped profiles.  :func:`attach_profile`
    applies it, and the fleet aggregator calls it per shard before
    deciding whether to reconcile the shard.
    """
    actual = context.build_id
    if profile.build_id:
        if profile.build_id != actual:
            return True, (f"build id mismatch: profile {profile.build_id}, "
                          f"binary {actual}")
        return False, None
    # Unstamped profile: structural heuristic.  Count intra-function
    # branch records whose endpoints miss instruction boundaries.
    total = bad = 0
    within = profile.branches_by_function()
    for func in context.functions.values():
        records = within.get(func.name)
        if not records or not func.blocks:
            continue
        boundaries = {insn.address - func.address
                      for block in func.blocks.values()
                      for insn in block.insns}
        for (f_off, t_off) in records:
            total += 1
            if (not 0 <= f_off < func.size or not 0 <= t_off < func.size
                    or f_off not in boundaries or t_off not in boundaries):
                bad += 1
    if total >= 8 and bad > total // 4:
        return True, (f"{bad}/{total} branch records off instruction "
                      f"boundaries (unstamped profile)")
    return False, None


def _name_stem(name):
    """Normalized identity for cross-build name matching: module
    qualifiers, duplicate suffixes, and trailing digits stripped."""
    stem = name.rsplit("::", 1)[-1].lower()
    return stem.rstrip("0123456789._")


def _match_stale_functions(context, profile):
    """Re-match profile-only function names to unprofiled binary
    functions by name stem + CFG-shape similarity.

    Returns {profile name -> binary function name}.
    """
    profiled_names = profile.functions()
    orphans = sorted(n for n in profiled_names if n not in context.functions)
    if not orphans:
        return {}
    candidates = [func for name, func in context.functions.items()
                  if name not in profiled_names and func.is_simple]
    remap = {}
    taken = set()
    for orphan in orphans:
        sig = _profile_signature(profile, orphan)
        best, best_score = None, 0.0
        for func in candidates:
            if func.name in taken:
                continue
            score = _similarity(func, orphan, sig)
            if score > best_score:
                best, best_score = func, score
        if best is not None and best_score >= 0.5:
            remap[orphan] = best.name
            taken.add(best.name)
    return remap


def _profile_signature(profile, name):
    """(distinct branch sites, max offset seen) for a profile function."""
    sites = set()
    max_off = 0
    for (f, t) in profile.branches:
        if f[0] == name:
            sites.add(f[1])
            max_off = max(max_off, f[1])
        if t[0] == name:
            max_off = max(max_off, t[1])
    for loc in profile.ip_samples:
        if loc[0] == name:
            max_off = max(max_off, loc[1])
    return len(sites), max_off


def _similarity(func, orphan_name, signature):
    """0..1 score: name-stem equality plus CFG-shape agreement."""
    sites, max_off = signature
    score = 0.0
    if _name_stem(func.name) == _name_stem(orphan_name):
        score += 0.6
    branch_sites = sum(
        1 for block in func.blocks.values() for insn in block.insns
        if insn.is_branch or insn.is_call)
    denom = max(sites, branch_sites, 1)
    score += 0.25 * (min(sites, branch_sites) / denom)
    if func.size > 0:
        score += 0.15 * (1.0 if max_off < func.size else
                         max(0.0, 1.0 - (max_off - func.size) / func.size))
    return score


def reconcile_shard(context, profile):
    """Fuzzy-match one stale shard against a binary's CFGs.

    Returns ``(remap, match_stats)`` where ``remap`` is {profile name
    -> binary function name} and ``match_stats`` is the per-shard
    match-quality accounting previously only computed (and reported)
    for the single-profile attach path.
    """
    remap = _match_stale_functions(context, profile)
    return remap, measure_match_quality(context, profile, remap)


def measure_match_quality(context, profile, remap=None):
    """Non-mutating per-shard match-quality measurement.

    Walks every intra-function branch record through
    :func:`_match_record`, the exact-match rule :func:`_attach_lbr`
    attaches by, without annotating any CFG, so the aggregation
    pipeline can report match quality per shard.

    Returns ``{"matched", "total", "out_of_range", "quality",
    "remapped"}`` with counts in record-count mass (quality is None
    when the shard has no intra-function records).
    """
    remap = remap or {}
    source_of = {}
    for pname, fname in remap.items():
        source_of.setdefault(fname, pname)

    total = sum(count for (f, t), (count, _) in profile.branches.items()
                if f[0] == t[0])
    matched = out_of_range = 0
    within = profile.branches_by_function()
    for func in context.functions.values():
        if not func.is_simple:
            continue
        records = within.get(source_of.get(func.name, func.name))
        if not records:
            continue
        index = _OffsetIndex(func)
        for (from_off, to_off), (count, _) in records.items():
            edge = _match_record(func, index, from_off, to_off)
            if edge is _OUT_OF_RANGE:
                out_of_range += count
            elif edge is not None:
                matched += count
    return {
        "matched": matched,
        "total": total,
        "out_of_range": out_of_range,
        "quality": (matched / total) if total else None,
        "remapped": len(remap),
    }


def _strip_profile(context):
    """Unusable profile: leave every function unannotated."""
    for func in context.functions.values():
        func.exec_count = 0
        func.has_profile = False
        func.profile_match = None
        for block in func.blocks.values():
            block.exec_count = 0
            block.edge_counts = {}
            block.edge_mispreds = {}


# ---------------------------------------------------------------------------


def _function_entry_counts(profile, remap=None):
    remap = remap or {}

    def resolve(name):
        return remap.get(name, name)

    counts = {}
    for (f, t), (count, _) in profile.branches.items():
        if t[1] == 0 and f[0] != t[0]:
            name = resolve(t[0])
            counts[name] = counts.get(name, 0) + count
    if not counts:
        # non-LBR: approximate via samples at function entry blocks is
        # meaningless; use total samples as a hotness proxy instead.
        for (name, _), count in profile.ip_samples.items():
            name = resolve(name)
            counts[name] = counts.get(name, 0) + count
    return counts


class _OffsetIndex:
    """offset -> block containing it (blocks sorted by original offset)."""

    def __init__(self, func):
        blocks = sorted(func.blocks.values(), key=lambda b: b.offset)
        self.starts = [b.offset for b in blocks]
        self.blocks = blocks
        self.by_offset = {b.offset: b for b in blocks}

    def containing(self, offset):
        idx = bisect.bisect_right(self.starts, offset) - 1
        if idx < 0:
            return None
        return self.blocks[idx]

    def at(self, offset):
        return self.by_offset.get(offset)


#: :func:`_match_record`'s verdict for a record outside the function.
_OUT_OF_RANGE = "out-of-range"


def _match_record(func, index, from_off, to_off):
    """The CFG edge an intra-function branch record lands on.

    Returns ``(from_block, to_block)``, None when the record does not
    match, or ``_OUT_OF_RANGE`` when an offset lies beyond the function
    body (corrupted or cross-build offsets never attach).  Both
    endpoints must land *exactly* — a real branch site and a real
    successor's block entry.  Snapping shifted offsets to the nearest
    plausible branch assigns counts to essentially arbitrary
    successors, which can invert branch biases and make the layout
    worse than no profile at all; a record that does not match exactly
    stays unmatched and is absorbed into the match-quality figure
    instead.
    """
    if not (0 <= from_off < func.size and 0 <= to_off < func.size):
        return _OUT_OF_RANGE
    from_block = index.containing(from_off)
    to_block = index.at(to_off)
    if from_block is None or to_block is None:
        return None
    if _branch_at(from_block, func.address + from_off) is None:
        return None
    if to_block.label not in from_block.successors:
        return None
    return from_block, to_block


def _attach_lbr(context, func, records, calls, fuzzy=False, totals=None):
    """Annotate ``func`` from ``records`` and ``calls``, the
    intra-function branch records and the calls out of its profile name
    (its entries of :meth:`BinaryProfile.branches_by_function` and
    :meth:`BinaryProfile.calls_by_function`)."""
    index = _OffsetIndex(func)
    matched = total = dropped = 0

    # Reset profile annotations.
    for block in func.blocks.values():
        block.exec_count = 0
        for succ in block.successors:
            block.edge_counts[succ] = 0
            block.edge_mispreds[succ] = 0

    taken_in = {label: 0 for label in func.blocks}
    taken_out = {label: 0 for label in func.blocks}

    for (from_off, to_off), (count, mispreds) in records.items():
        total += count
        edge = _match_record(func, index, from_off, to_off)
        if edge is _OUT_OF_RANGE:
            dropped += count
            continue
        if edge is None:
            continue
        from_block, to_block = edge
        from_block.edge_counts[to_block.label] = (
            from_block.edge_counts.get(to_block.label, 0) + count)
        from_block.edge_mispreds[to_block.label] = (
            from_block.edge_mispreds.get(to_block.label, 0) + mispreds)
        taken_in[to_block.label] += count
        taken_out[from_block.label] += count
        matched += count

    # Stale-profile count rescaling: the matched subset keeps the
    # sampled aggregate magnitude (arXiv:2401.17168 section 4).
    if fuzzy and matched and matched < total:
        factor = min(total / matched, MAX_RESCALE)
        if factor > 1.0:
            for block in func.blocks.values():
                for succ, count in block.edge_counts.items():
                    if count:
                        block.edge_counts[succ] = max(1, round(count * factor))
            for label in taken_in:
                taken_in[label] = round(taken_in[label] * factor)
                taken_out[label] = round(taken_out[label] * factor)

    # Indirect call targets (ICP fodder, section 5.3), with the LBR
    # mispredict bits so ICP can target BTB-hostile call sites.
    for from_off, callee, count, mispreds in calls:
        if not 0 <= from_off < func.size:
            continue
        block = index.containing(from_off)
        if block is None:
            continue
        insn = _insn_at(block, func.address + from_off)
        if insn is not None and insn.is_call and insn.is_indirect:
            targets = insn.get_annotation("call-targets") or {}
            targets[callee] = targets.get(callee, 0) + count
            insn.set_annotation("call-targets", targets)
            insn.set_annotation(
                "call-mispreds",
                (insn.get_annotation("call-mispreds") or 0) + mispreds)

    # Block counts via the trust-the-fall-through flow repair.
    trust = context.options.trust_fall_through
    layout = func.layout()
    for i, block in enumerate(layout):
        count = taken_in[block.label]
        if block.label == func.entry_label:
            count += func.exec_count
        if i > 0:
            prev = layout[i - 1]
            if prev.fallthrough_label == block.label:
                if trust:
                    surplus = max(0, prev.exec_count - taken_out[prev.label])
                else:
                    surplus = 0
                prev.edge_counts[block.label] = (
                    prev.edge_counts.get(block.label, 0) + surplus)
                count += surplus
        block.exec_count = count

    if totals is not None:
        totals.matched += matched
        totals.total += total
        totals.dropped += dropped
    func.profile_match = (matched / total) if total else None
    return func.profile_match


def _attach_nolbr(context, func, profile, source=None, totals=None):
    samples = profile.samples_within(source or func.name)
    index = _OffsetIndex(func)
    for block in func.blocks.values():
        block.exec_count = 0
    for offset, count in samples.items():
        if not 0 <= offset < func.size:
            if totals is not None:
                totals.dropped += count
            continue
        block = index.containing(offset)
        if block is not None:
            block.exec_count += count

    counts = {label: block.exec_count for label, block in func.blocks.items()}
    edges = []
    exits = []
    for label, block in func.blocks.items():
        for succ in block.successors:
            edges.append((label, succ))
        term = block.terminator()
        if (term is None and block.fallthrough_label is None) or (
                term is not None and (term.is_return or term.op.name in
                                      ("HALT", "TRAP", "JMP_MEM")
                                      or term.get_annotation("tailcall", "x") != "x")):
            exits.append(label)
    if not exits:
        exits = [label for label, b in func.blocks.items() if not b.successors]

    if context.options.use_mcf and edges:
        flows = min_cost_flow_edges(list(func.blocks), edges, counts,
                                    func.entry_label, exits or [func.entry_label])
    else:
        flows = _proportional_edges(func, counts)
    for (src, dst), flow in flows.items():
        func.blocks[src].edge_counts[dst] = flow
    func.profile_match = None
    return None


def _proportional_edges(func, counts):
    flows = {}
    for label, block in func.blocks.items():
        succs = block.successors
        if not succs:
            continue
        weights = [counts.get(s, 0) for s in succs]
        total = sum(weights)
        src = counts.get(label, 0)
        for succ, weight in zip(succs, weights):
            flows[(label, succ)] = (src * weight // total) if total else 0
    return flows


def _branch_at(block, address):
    for insn in block.insns:
        if insn.address == address and (insn.is_branch or insn.is_call
                                        or insn.is_return or
                                        insn.is_indirect_branch):
            return insn
    return None


def _insn_at(block, address):
    for insn in block.insns:
        if insn.address == address:
            return insn
    return None
