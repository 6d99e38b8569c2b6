"""Fleet-profile merge algebra (the ``merge-fdata`` analog).

BOLT's data-center deployment (paper sections 2 and 5.1) samples
production hosts continuously; the per-host LBR collections become one
``.fdata`` via ``merge-fdata`` before the rewrite ever runs.  This
module is the algebra underneath that tool:

* the one ``.fdata`` reader: a **tolerant shard parser** that turns
  malformed lines into stable-rule-ID diagnostics (``FD0xx``) instead
  of exceptions — a fleet always contains a truncated upload or a
  corrupt writer, and one bad host must never sink the aggregation —
  plus :func:`parse_fdata`, its strict front end for a single trusted
  profile, which refuses the first line the grammar would drop;
* a deterministic **normal form** for profiles (sorted records,
  zero-mass records dropped);
* a weighted **merge** that is commutative and associative *by
  construction*: record counts are integers summed exactly, and every
  metadata resolution rule (event, lbr, build-id) is an order-free
  function of the input multiset — so shard arrival order provably
  cannot change the merged output.

Weights are applied per shard *before* summation by integer rounding
(``round(count * weight)``), keeping the accumulator in exact integer
arithmetic; ``weight == 1`` is an exact identity.
"""

import hashlib
from urllib.parse import unquote

from repro.core.diagnostics import Rule, Severity
from repro.profiling.profile import BinaryProfile

#: Cap on per-rule, per-shard individual line diagnostics; the
#: remainder is folded into one summary line so a fuzzer-sized shard
#: cannot flood the collector.
MAX_LINE_DIAGS = 8

_E = Severity.ERROR
_W = Severity.WARNING

FDATA_RULES = {r.id: r for r in [
    Rule("FD001", "branch-line-malformed", _W,
         "a branch record does not have the 8-field "
         "'1 from off 1 to off mispreds count' shape"),
    Rule("FD002", "sample-line-malformed", _W,
         "a sample record does not have the 4-field "
         "'S func off count' shape"),
    Rule("FD003", "unknown-record", _W,
         "a line starts with an unknown record discriminator"),
    Rule("FD004", "bad-integer-field", _W,
         "an offset/count field is not a parseable integer"),
    Rule("FD005", "negative-count", _W,
         "a record carries a negative count or mispredict total"),
    Rule("FD006", "header-conflict", _W,
         "a shard repeats a header line with a conflicting value "
         "(e.g. two different build-ids); the first value wins"),
    Rule("FD007", "shard-event-mismatch", _W,
         "shards disagree on sampling event or LBR mode; the "
         "merge proceeds but counts are not strictly comparable"),
    Rule("FD008", "stale-shard", _W,
         "a shard's build-id does not match the target binary "
         "(or the fleet majority); it is reconciled/downweighted"),
    Rule("FD009", "flat-profile", _W,
         "an LBR shard contains no usable branch records; it "
         "contributes nothing to edge counts"),
    Rule("FD010", "empty-shard", _W,
         "a shard contains no records at all"),
    Rule("FD011", "bad-weight", _E,
         "a shard weight is not a positive finite number; the "
         "shard is excluded from the merge"),
    Rule("FD012", "shard-unreadable", _E,
         "a shard could not be read/decoded; it is excluded"),
    Rule("FD013", "low-match-quality", _W,
         "a stale shard's fuzzy match quality is below the "
         "floor; the shard is excluded from the merge"),
]}


def _emit(diags, rule_id, message, shard=None):
    """Record one FD-rule diagnostic on a Diagnostics collector."""
    if diags is None:
        return
    rule = FDATA_RULES[rule_id]
    record = diags.error if rule.severity >= Severity.ERROR else diags.warning
    record("merge-fdata", f"{rule_id}: {message}", function=shard)


class ShardStats:
    """Per-shard parse accounting (feeds the quality report)."""

    def __init__(self):
        self.lines = 0              # non-empty, non-comment lines seen
        self.branch_lines = 0       # parsed branch records
        self.sample_lines = 0       # parsed sample records
        self.dropped = {}           # rule id -> dropped line count

    def drop(self, rule_id):
        self.dropped[rule_id] = self.dropped.get(rule_id, 0) + 1

    @property
    def dropped_total(self):
        return sum(self.dropped.values())

    def as_dict(self):
        return {
            "lines": self.lines,
            "branch_lines": self.branch_lines,
            "sample_lines": self.sample_lines,
            "dropped": dict(sorted(self.dropped.items())),
            "dropped_total": self.dropped_total,
        }

    @classmethod
    def from_dict(cls, data):
        """Decode :meth:`as_dict`; anything else raises ValueError,
        TypeError or KeyError."""
        stats = cls()
        stats.lines = data["lines"]
        stats.branch_lines = data["branch_lines"]
        stats.sample_lines = data["sample_lines"]
        stats.dropped = dict(data["dropped"])
        if not (all(type(n) is int for n in (stats.lines, stats.branch_lines,
                                             stats.sample_lines))
                and all(type(rule) is str and type(n) is int
                        for rule, n in stats.dropped.items())):
            raise ValueError("malformed shard stats")
        return stats


class _UnescapedNames(dict):
    """name field -> function name, unescaped once per distinct field."""

    def __missing__(self, field):
        name = self[field] = unquote(field)
        return name


def parse_fdata(text):
    """Strict ``.fdata`` parse of one profile (``bolt -p``, ``dump -p``).

    The grammar is :func:`parse_fdata_shard`'s; the first line that
    parser would drop raises ``ValueError`` naming its rule and line.
    """
    return parse_fdata_shard(text, strict=True)[0]


def parse_fdata_shard(text, diags=None, shard=None, strict=False):
    """Tolerant ``.fdata`` parse: returns ``(BinaryProfile, ShardStats)``.

    Malformed, truncated, or mixed-header lines never raise: each
    rejected line is dropped and surfaced as an ``FD0xx`` diagnostic
    (capped per rule at :data:`MAX_LINE_DIAGS` individual lines plus
    one summary).  With ``strict`` the first rejected line raises
    ``ValueError`` instead.
    """
    profile = BinaryProfile()
    stats = ShardStats()
    seen_headers = {}
    pending = {}    # rule id -> [example messages...] beyond the cap
    names = _UnescapedNames()

    def reject(rule_id, raw, line_no):
        if strict:
            raise ValueError(f"{rule_id} ({FDATA_RULES[rule_id].name}) "
                             f"at line {line_no}: {raw!r}")
        stats.drop(rule_id)
        n = stats.dropped[rule_id]
        if n <= MAX_LINE_DIAGS:
            _emit(diags, rule_id, f"dropped line {raw!r}", shard)
        else:
            pending[rule_id] = pending.get(rule_id, 0) + 1

    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            _parse_header(profile, line, seen_headers,
                          lambda rid: reject(rid, line, line_no))
            continue
        stats.lines += 1
        parts = line.split()
        if parts[0] == "1":
            if len(parts) != 8 or parts[3] != "1":
                reject("FD001", raw, line_no)
                continue
            try:
                from_loc = (names[parts[1]], int(parts[2], 16))
                to_loc = (names[parts[4]], int(parts[5], 16))
                mispred, count = int(parts[6]), int(parts[7])
            except ValueError:
                reject("FD004", raw, line_no)
                continue
            if count < 0 or mispred < 0:
                reject("FD005", raw, line_no)
                continue
            profile.add_branch(from_loc, to_loc, mispred, count)
            stats.branch_lines += 1
        elif parts[0] == "S":
            if len(parts) != 4:
                reject("FD002", raw, line_no)
                continue
            try:
                loc = (names[parts[1]], int(parts[2], 16))
                count = int(parts[3])
            except ValueError:
                reject("FD004", raw, line_no)
                continue
            if count < 0:
                reject("FD005", raw, line_no)
                continue
            profile.add_sample(loc, count)
            stats.sample_lines += 1
        else:
            reject("FD003", raw, line_no)

    for rule_id, extra in sorted(pending.items()):
        _emit(diags, rule_id,
              f"{extra} more line(s) dropped "
              f"({stats.dropped[rule_id]} total)", shard)
    return profile, stats


def _parse_header(profile, line, seen, reject):
    """One '# key: value' header; conflicting repeats are FD006."""
    for key, attr, convert in (
            ("# event:", "event", str),
            ("# lbr:", "lbr", lambda v: v == "1"),
            ("# build-id:", "build_id", lambda v: v or None)):
        if not line.startswith(key):
            continue
        value = convert(line.split(":", 1)[1].strip())
        if key in seen:
            if seen[key] != value:
                reject("FD006")
            return
        seen[key] = value
        setattr(profile, attr, value)
        return
    # Unknown comment lines are plain comments, not records: ignored.


# ---------------------------------------------------------------------------
# Normal form, scaling, and the merge itself
# ---------------------------------------------------------------------------


def normalize_profile(profile):
    """Canonical form: sorted records, zero-mass records dropped.

    ``write_fdata(normalize_profile(p)) == write_fdata(p)`` whenever
    ``p`` carries no zero-mass records; the normal form exists so that
    merged profiles compare structurally (dict order included), not
    just textually.
    """
    out = BinaryProfile(event=profile.event, lbr=profile.lbr,
                        build_id=profile.build_id)
    for (f, t), (count, mispred) in sorted(profile.branches.items()):
        if count > 0 or mispred > 0:
            out.add_branch(f, t, mispred, count)
    for loc in sorted(profile.ip_samples):
        count = profile.ip_samples[loc]
        if count > 0:
            out.ip_samples[loc] = count
    return out


def scale_profile(profile, weight):
    """Per-shard weighting: integer rounding keeps the algebra exact."""
    if weight == 1:
        return profile
    out = BinaryProfile(event=profile.event, lbr=profile.lbr,
                        build_id=profile.build_id)
    for (f, t), (count, mispred) in profile.branches.items():
        out.add_branch(f, t, int(round(mispred * weight)),
                       int(round(count * weight)))
    for loc, count in profile.ip_samples.items():
        out.ip_samples[loc] = int(round(count * weight))
    return out


def merge_profiles(profiles, weights=None, diags=None):
    """Weighted merge of N profiles into one normalized profile.

    Metadata resolution is order-free so the merge stays commutative
    and associative: ``event`` is the lexicographically-smallest event
    present (disagreements are an FD007 warning — counts from distinct
    events are not strictly comparable), ``lbr`` is the OR, and
    ``build_id`` survives only when every input agrees on one.
    """
    profiles = list(profiles)
    if weights is None:
        weights = [1] * len(profiles)
    if len(weights) != len(profiles):
        raise ValueError(
            f"got {len(weights)} weight(s) for {len(profiles)} profile(s)")

    events = {p.event for p in profiles}
    lbrs = {p.lbr for p in profiles}
    build_ids = {p.build_id for p in profiles}
    if len(events) > 1 or len(lbrs) > 1:
        _emit(diags, "FD007",
              f"shards disagree on sampling setup "
              f"(events {sorted(events)}, lbr {sorted(lbrs)})")

    merged = BinaryProfile(
        event=min(events) if events else "cycles",
        lbr=any(lbrs),
        build_id=(next(iter(build_ids))
                  if len(build_ids) == 1 and None not in build_ids else None))
    for profile, weight in zip(profiles, weights):
        scaled = scale_profile(profile, weight)
        for (f, t), (count, mispred) in scaled.branches.items():
            merged.add_branch(f, t, mispred, count)
        for loc, count in scaled.ip_samples.items():
            merged.add_sample(loc, count)
    return normalize_profile(merged)


def remap_profile_names(profile, remap):
    """Rename profile function names through a stale-match remap.

    ``remap`` is {profile name -> binary function name}, as produced by
    the PR 1 fuzzy matcher; untouched names pass through.  Collisions
    (two sources landing on one target) merge by addition.
    """
    if not remap:
        return profile
    out = BinaryProfile(event=profile.event, lbr=profile.lbr,
                        build_id=profile.build_id)
    for ((fn, fo), (tn, to)), (count, mispred) in profile.branches.items():
        out.add_branch((remap.get(fn, fn), fo), (remap.get(tn, tn), to),
                       mispred, count)
    for (name, off), count in profile.ip_samples.items():
        out.add_sample((remap.get(name, name), off), count)
    return out


# ---------------------------------------------------------------------------
# Shard-divergence and flatness measures for the quality report
# ---------------------------------------------------------------------------


def branch_distribution(profile):
    """The shard's weight distribution for divergence scoring: branch
    counts when present, IP samples otherwise (non-LBR shards)."""
    if profile.branches:
        return {key: count for key, (count, _) in profile.branches.items()}
    return dict(profile.ip_samples)


def shard_divergence(merged, shard_profile):
    """1 - overlap(merged, shard): 0 = shard agrees with the fleet
    consensus, 1 = the shard put all its weight somewhere else."""
    from repro.profiling.accuracy import overlap_accuracy

    truth = branch_distribution(merged)
    estimate = branch_distribution(shard_profile)
    if not truth or not estimate:
        return None
    return 1.0 - overlap_accuracy(truth, estimate)


def is_flat_profile(profile):
    """An LBR shard with no usable branch mass cannot steer layout."""
    return profile.lbr and profile.total_branch_count() == 0


def shard_content_hash(text):
    """Stable content hash of one shard (half of the cache key)."""
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Profile <-> JSON-able dict (the shard-cache value encoding)
# ---------------------------------------------------------------------------


def profile_to_dict(profile):
    return {
        "event": profile.event,
        "lbr": profile.lbr,
        "build_id": profile.build_id,
        "branches": [[f[0], f[1], t[0], t[1], count, mispred]
                     for (f, t), (count, mispred)
                     in sorted(profile.branches.items())],
        "samples": [[loc[0], loc[1], count]
                    for loc, count in sorted(profile.ip_samples.items())],
    }


def profile_from_dict(data):
    """Decode :func:`profile_to_dict`; anything else (a wrong type
    anywhere, a record of the wrong arity) raises ValueError, TypeError
    or KeyError."""
    event, lbr, build_id = data["event"], data["lbr"], data["build_id"]
    if not (type(event) is str and type(lbr) is bool
            and (build_id is None or type(build_id) is str)):
        raise ValueError("malformed profile header")
    profile = BinaryProfile(event=event, lbr=lbr, build_id=build_id)
    branches, samples = profile.branches, profile.ip_samples
    for fn, fo, tn, to, count, mispred in data["branches"]:
        if not (type(fn) is str and type(fo) is int and type(tn) is str
                and type(to) is int and type(count) is int
                and type(mispred) is int):
            raise ValueError("malformed branch record")
        branches[((fn, fo), (tn, to))] = [count, mispred]
    for name, off, count in data["samples"]:
        if not (type(name) is str and type(off) is int
                and type(count) is int):
            raise ValueError("malformed sample record")
        samples[(name, off)] = count
    return profile
