"""perf2bolt analog: raw samples -> symbolized BinaryProfile, plus the
fleet-scale shard aggregation pipeline (the ``merge-fdata`` analog).

The first half of the module turns one host's raw ``(pc, lbr)`` samples
into a symbolized :class:`BinaryProfile`.  The second half —
:func:`aggregate_shards` — is the data-center step the paper assumes
before the rewrite (sections 2, 5.1): many hosts' ``.fdata`` shards,
possibly collected on *different builds* of the binary, are parsed,
grouped by build-id, reconciled through PR 1's fuzzy stale-profile
matcher, merged with explicit weighting and deterministic
normalization, and summarized in a per-shard quality report.  An
on-disk cache keyed by ``Binary.content_hash`` + shard content hash
lets repeated aggregation runs skip re-parsing and re-reconciling
unchanged shards, and the CFG-bearing context shards are matched
against is built once per binary, on the first shard that needs it.
"""

import json
import os
import pathlib
import tempfile
from collections import Counter
from itertools import chain
from operator import itemgetter

from repro.profiling.events import Sampler, SamplingConfig
from repro.profiling.merge import (
    ShardStats,
    _emit,
    is_flat_profile,
    merge_profiles,
    normalize_profile,
    parse_fdata_shard,
    profile_from_dict,
    profile_to_dict,
    remap_profile_names,
    shard_content_hash,
    shard_divergence,
)
from repro.profiling.profile import BinaryProfile


class AddressMapper:
    """Maps virtual addresses to (function link name, offset) through
    the binary's own address map (``Binary.function_at``)."""

    def __init__(self, binary):
        self._function_at = binary.function_at
        # A sampled run maps hundreds of thousands of LBR endpoints but
        # only a few thousand distinct addresses; the memo lives and
        # dies with the mapper.
        self._memo = {}

    def map(self, addr):
        try:
            return self._memo[addr]
        except KeyError:
            pass
        sym = self._function_at(addr)
        loc = None if sym is None else (sym.link_name(), addr - sym.value)
        self._memo[addr] = loc
        return loc


def aggregate_samples(samples, mapper, event="cycles", lbr=True,
                      build_id=None):
    """Aggregate (pc, lbr_snapshot) samples into a BinaryProfile.

    Each snapshot is a list of ``(from_pc, to_pc, mispred)`` tuples.
    Branch records with either endpoint outside known functions (PLT
    stubs, builtins) are dropped, as perf2bolt does for unmapped
    addresses.

    Raw sample pcs and LBR records are counted before symbolizing, so
    each distinct address is mapped once per record kind, not once per
    occurrence.  Counters keep first-seen order, so every profile record
    lands where adding the samples one by one would have put it.
    """
    profile = BinaryProfile(event=event, lbr=lbr, build_id=build_id)
    locate = mapper.map
    for pc, count in Counter(map(itemgetter(0), samples)).items():
        loc = locate(pc)
        if loc is not None:
            profile.add_sample(loc, count)
    if not lbr:
        return profile
    records = Counter(chain.from_iterable(
        snapshot for _, snapshot in samples if snapshot))
    for (from_pc, to_pc, mispred), count in records.items():
        from_loc = locate(from_pc)
        to_loc = locate(to_pc)
        if from_loc is None or to_loc is None:
            continue
        profile.add_branch(from_loc, to_loc, mispred=count * mispred,
                           count=count)
    return profile


def profile_binary(binary, inputs=None, config=None, sampling=None,
                   max_instructions=50_000_000):
    """Run a binary under the sampler and aggregate the profile.

    Returns (BinaryProfile, cpu) — the cpu gives access to true
    counters for comparison with the sampled view.
    """
    from repro.uarch.cpu import run_binary

    sampling = sampling or SamplingConfig()
    sampler = Sampler(sampling)
    cpu = run_binary(binary, inputs=inputs, config=config, sampler=sampler,
                     max_instructions=max_instructions)
    mapper = AddressMapper(binary)
    profile = aggregate_samples(sampler.samples, mapper,
                                event=sampling.event, lbr=sampling.use_lbr,
                                build_id=binary.content_hash())
    return profile, cpu


# ---------------------------------------------------------------------------
# Fleet-scale shard aggregation (merge-fdata)
# ---------------------------------------------------------------------------

#: Shard-cache on-disk format version; bumping invalidates old entries.
CACHE_VERSION = 1


#: The fields of one shard-cache payload.
_PAYLOAD_KEYS = frozenset(
    ("version", "profile", "stats", "match", "stale", "remap", "diags"))


class ShardCache:
    """On-disk cache of parsed + reconciled shards.

    Keyed by ``sha256(version : shard content hash : binary build id)``
    so a shard re-parses only when its bytes change, the target binary
    changes, or the cache format changes.  Values are JSON (no pickle).
    :meth:`load` returns a payload object of this cache version or
    None; :func:`aggregate_shards` also treats a payload it cannot
    decode into a profile, stats and diagnostics as a miss, so any
    corrupt entry is re-parsed and overwritten.
    """

    def __init__(self, root):
        self.root = pathlib.Path(root)

    def _path(self, shard_sha, binary_hash):
        import hashlib

        key = f"{CACHE_VERSION}:{shard_sha}:{binary_hash or '-'}"
        return self.root / (hashlib.sha256(key.encode()).hexdigest()
                            + ".shard.json")

    def load(self, shard_sha, binary_hash):
        path = self._path(shard_sha, binary_hash)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if (not isinstance(payload, dict)
                or payload.get("version") != CACHE_VERSION
                or not _PAYLOAD_KEYS <= payload.keys()):
            return None
        return payload

    def store(self, shard_sha, binary_hash, payload):
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(shard_sha, binary_hash)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(payload))
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass


class ShardReport:
    """Everything the quality report knows about one shard."""

    def __init__(self, name, sha):
        self.name = name
        self.sha = sha
        self.build_id = None
        self.weight = 1.0
        self.effective_weight = 1.0
        self.stale = False
        self.cache = "off"          # "off" | "miss" | "hit"
        self.stats = ShardStats()
        self.match = None           # measure_match_quality dict, or None
        self.flat = False
        self.empty = False
        self.divergence = None
        self.coverage = None        # fraction of merged functions covered
        self.profile = None         # reconciled BinaryProfile (not scaled)

    def as_dict(self):
        return {
            "name": self.name,
            "sha": self.sha[:12],
            "build_id": self.build_id,
            "weight": self.weight,
            "effective_weight": round(self.effective_weight, 6),
            "stale": self.stale,
            "cache": self.cache,
            "branch_records": len(self.profile.branches),
            "sample_records": len(self.profile.ip_samples),
            "branch_count": self.profile.total_branch_count(),
            "parse": self.stats.as_dict(),
            "match": self.match,
            "flat": self.flat,
            "empty": self.empty,
            "divergence": (round(self.divergence, 4)
                           if self.divergence is not None else None),
            "coverage": (round(self.coverage, 4)
                         if self.coverage is not None else None),
        }


class AggregationResult:
    """Merged profile + per-shard quality report + diagnostics."""

    def __init__(self, profile, shards, diagnostics):
        self.profile = profile
        self.shards = shards
        self.diagnostics = diagnostics

    def report(self):
        merged = self.profile
        merged_funcs = merged.functions()
        coverages = [s.coverage for s in self.shards
                     if s.coverage is not None]
        return {
            "shards": [s.as_dict() for s in self.shards],
            "merged": {
                "event": merged.event,
                "lbr": merged.lbr,
                "build_id": merged.build_id,
                "branch_records": len(merged.branches),
                "sample_records": len(merged.ip_samples),
                "branch_count": merged.total_branch_count(),
                "functions": len(merged_funcs),
            },
            "coverage": {
                "shard_count": len(self.shards),
                "functions_union": len(merged_funcs),
                "functions_common": self._common_functions(),
                "mean_shard_coverage": (round(sum(coverages)
                                              / len(coverages), 4)
                                        if coverages else None),
            },
            "stale_shards": sum(1 for s in self.shards if s.stale),
            "cache_hits": sum(1 for s in self.shards if s.cache == "hit"),
            "dropped_lines": sum(s.stats.dropped_total for s in self.shards),
            "diagnostics": {
                "warnings": len(self.diagnostics.warnings),
                "errors": len(self.diagnostics.errors),
            },
        }

    def _common_functions(self):
        common = None
        for shard in self.shards:
            funcs = shard.profile.functions()
            common = funcs if common is None else (common & funcs)
        return len(common) if common else 0

    def to_json(self):
        return json.dumps(self.report(), indent=2)


def load_shard_files(paths):
    """Read shard files into the [(name, text)] shape aggregate_shards
    expects.  Missing files raise FileNotFoundError (a fleet input list
    naming a nonexistent shard is an operator error, not a bad host)."""
    shards = []
    for path in paths:
        p = pathlib.Path(path)
        shards.append((p.name, p.read_text()))
    return shards


def _as_named_shards(shards):
    out = []
    for i, item in enumerate(shards):
        if isinstance(item, str):
            out.append((f"shard{i}", item))
        else:
            name, text = item
            out.append((str(name), text))
    return out


def _resolve_weights(shards, weights, diags):
    if weights is None:
        return [1.0] * len(shards)
    try:
        weights = [float(w) for w in weights]
    except (TypeError, ValueError):
        weights = [float(weights)]
    if len(weights) == 1 and len(shards) > 1:
        weights = weights * len(shards)
    if len(weights) != len(shards):
        raise ValueError(
            f"{len(weights)} weight(s) for {len(shards)} shard(s)")
    cleaned = []
    for (name, _), weight in zip(shards, weights):
        if not (weight > 0) or weight != weight or weight == float("inf"):
            _emit(diags, "FD011",
                  f"weight {weight!r} is not a positive finite number; "
                  f"shard excluded", shard=name)
            weight = 0.0
        cleaned.append(weight)
    return cleaned


def _build_attach_context(binary):
    """A CFG-bearing context for fuzzy reconciliation, detached from
    ``binary``: matching reads only its functions and build id (lazy
    core import to keep the profiling package import-light)."""
    from repro.core import BinaryContext, BoltOptions
    from repro.core.cfg_builder import build_all_functions
    from repro.core.discovery import discover_functions

    context = BinaryContext(binary, BoltOptions())
    discover_functions(context)
    build_all_functions(context)
    context.detach_binary()
    return context


def _matching_context(binary, binary_hash):
    """The context shards are matched against: built once per binary
    and reused by every later :func:`aggregate_shards` call.

    The memo sits on the binary itself, tagged with the
    ``content_hash`` it was built for, so a binary whose code or
    function symbols changed gets a fresh context.  The context holds
    no reference back to the binary, so dropping the binary frees it,
    its context and its simulator traces at once, without waiting for
    the cycle collector.  What the hash does not cover (data sections,
    relocations, frame records) falls under the contract the
    simulator's per-binary trace cache (``repro.uarch.cpu``) already
    relies on: a Binary is not edited once it is in use.  Matching only
    reads the context, so sharing it is safe.
    """
    memo = binary._matching_context
    if memo is None or memo[0] != binary_hash:
        memo = binary._matching_context = (binary_hash,
                                           _build_attach_context(binary))
    return memo[1]


def _decode_payload(payload):
    """A cache payload as ``(profile, stats, match, stale, remap,
    diags)``, or None when it does not decode into them."""
    match, stale, remap = payload["match"], payload["stale"], payload["remap"]
    try:
        profile = profile_from_dict(payload["profile"])
        stats = ShardStats.from_dict(payload["stats"])
        diags = [(severity, message)
                 for severity, message in payload["diags"]]
    except (KeyError, TypeError, ValueError):
        return None
    quality = match.get("quality") if isinstance(match, dict) else None
    well_formed = (
        (match is None or isinstance(match, dict))
        and type(quality) in (type(None), int, float)
        and type(stale) is bool
        and isinstance(remap, dict)
        and all(type(target) is str for target in remap.values())
        and all(severity in ("error", "warning") and type(message) is str
                for severity, message in diags))
    if not well_formed:
        return None
    return profile, stats, match, stale, remap, diags


def _parse_one_shard(name, text, sha, binary, binary_hash, cache):
    """Parse + (if stale) reconcile one shard.  Returns a ShardReport
    plus the shard's local diagnostics (cached with it), which the
    caller replays in shard order."""
    from repro.core.diagnostics import Diagnostics
    from repro.core.profile_attach import (
        detect_stale,
        measure_match_quality,
        reconcile_shard,
    )

    local = Diagnostics(strict=False)
    report = ShardReport(name, sha)
    payload = cache.load(sha, binary_hash) if cache else None
    cached = _decode_payload(payload) if payload is not None else None
    if cached is not None:
        report.cache = "hit"
        (report.profile, report.stats, report.match, report.stale, remap,
         diags) = cached
        for severity, message in diags:
            (local.error if severity == "error" else local.warning)(
                "merge-fdata", message, function=name)
    else:
        report.cache = "miss" if cache else "off"
        profile, stats = parse_fdata_shard(text, local, shard=name)
        report.profile = profile
        report.stats = stats
        remap = {}
        if binary is not None:
            context = _matching_context(binary, binary_hash)
            report.stale, _reason = detect_stale(context, profile)
            if report.stale:
                remap, report.match = reconcile_shard(context, profile)
            else:
                # The satellite fix: match-quality counters used to
                # exist only for the single-profile attach path; the
                # per-shard report carries them for fresh shards too.
                report.match = measure_match_quality(context, profile)
        if cache:
            cache.store(sha, binary_hash, {
                "version": CACHE_VERSION,
                "profile": profile_to_dict(profile),
                "stats": stats.as_dict(),
                "match": report.match,
                "stale": report.stale,
                "remap": remap,
                "diags": [["error" if d.severity.name == "ERROR"
                           else "warning", d.message] for d in local],
            })
    report.build_id = report.profile.build_id
    if remap:
        report.profile = remap_profile_names(report.profile, remap)
    report.empty = len(report.profile) == 0
    report.flat = (not report.empty) and is_flat_profile(report.profile)
    return report, list(local)


def aggregate_shards(shards, weights=None, binary=None, cache_dir=None,
                     stale_downweight=0.5, min_match_quality=0.0,
                     diagnostics=None):
    """Aggregate many ``.fdata`` shards into one profile.

    Args:
        shards: list of fdata texts, or of ``(name, text)`` pairs.
        weights: per-shard weights (one value broadcasts); default 1.
        binary: the target Binary.  When given, shards whose build-id
            differs are reconciled through the PR 1 fuzzy stale-profile
            matcher and downweighted by their measured match quality.
            The CFGs they are matched against are built once per
            binary, on the first shard that misses the cache, and
            reused by later calls with the same binary (rebuilt if its
            ``content_hash`` changes); a batch of cache hits builds
            none.  Without it, the fleet-majority build-id group is the
            reference and off-reference shards get
            ``stale_downweight``, which must lie in [0, 1].
        cache_dir: on-disk shard cache directory (None = no cache).  An
            entry that does not decode reads as a miss and is
            overwritten.
        min_match_quality: stale shards matching below this fraction
            are excluded entirely (FD013).

    Returns an :class:`AggregationResult`.
    """
    from repro.core.diagnostics import Diagnostics

    if not 0 <= stale_downweight <= 1:
        raise ValueError(
            f"stale downweight {stale_downweight!r} is not in [0, 1]")
    diags = diagnostics
    if diags is None:
        diags = Diagnostics(strict=False)
    shards = _as_named_shards(shards)
    weights = _resolve_weights(shards, weights, diags)
    binary_hash = binary.content_hash() if binary is not None else None
    cache = ShardCache(cache_dir) if cache_dir else None

    # Each shard is parsed against its own Diagnostics (the local list
    # is what the shard cache stores); replay them in shard order.
    reports = []
    for name, text in shards:
        report, local = _parse_one_shard(name, text,
                                         shard_content_hash(text),
                                         binary, binary_hash, cache)
        diags.extend(local)
        reports.append(report)

    # Staleness + downweighting.  With a target binary the shard parse
    # already decided staleness per shard (build-id stamp + structural
    # heuristic); without one, the fleet-majority build-id group is
    # the reference and everything off-reference is stale.
    reference = binary_hash or _majority_build_id(reports)
    for report, weight in zip(reports, weights):
        report.weight = weight
        report.effective_weight = weight
        if report.empty:
            _emit(diags, "FD010", "shard contains no records",
                  shard=report.name)
            continue
        if report.flat:
            _emit(diags, "FD009",
                  "LBR shard has no branch records (flat profile)",
                  shard=report.name)
        if (binary_hash is None and reference is not None
                and report.build_id is not None
                and report.build_id != reference):
            report.stale = True
        if not report.stale:
            continue
        quality = (report.match or {}).get("quality")
        if quality is not None:
            if quality < min_match_quality:
                report.effective_weight = 0.0
                _emit(diags, "FD013",
                      f"match quality {quality:.1%} below floor "
                      f"{min_match_quality:.1%}; shard excluded",
                      shard=report.name)
                continue
            factor = quality
        else:
            factor = stale_downweight
        report.effective_weight = weight * factor
        _emit(diags, "FD008",
              f"build-id {report.build_id or '<unstamped>'} does not "
              f"match {'target binary' if binary_hash else 'fleet majority'}"
              f" {reference}; downweighted to "
              f"{report.effective_weight:.3g}", shard=report.name)

    merged = merge_profiles([r.profile for r in reports],
                            [r.effective_weight for r in reports],
                            diags=diags)
    merged.build_id = binary_hash or reference

    merged_funcs = merged.functions()
    for report in reports:
        report.divergence = shard_divergence(merged, report.profile)
        if merged_funcs:
            report.coverage = (len(report.profile.functions()
                                   & merged_funcs) / len(merged_funcs))
    return AggregationResult(merged, reports, diags)


def _majority_build_id(reports):
    """The fleet-reference build-id: most record mass wins, ties break
    lexicographically (permutation-safe)."""
    mass = {}
    for report in reports:
        if report.build_id is None:
            continue
        total = (report.profile.total_branch_count()
                 + sum(report.profile.ip_samples.values()))
        mass[report.build_id] = mass.get(report.build_id, 0) + total
    if not mass:
        return None
    return min(sorted(mass), key=lambda b: (-mass[b], b))
