"""The binary-level profile and its .fdata-like serialization.

Locations are symbolized as (function link name, offset) pairs so the
profile survives re-linking at different addresses — the same reason
BOLT's .fdata format is symbolic.
"""

import re
from urllib.parse import quote

#: The characters a function name must not carry raw into a record
#: line: ``%`` (the escape itself) and everything ``str.split`` and
#: ``str.splitlines`` break on, i.e. every ``str.isspace()`` character.
_ESCAPED_CHARS = re.compile(r"[%\s]")


class BinaryProfile:
    """Aggregated sample profile against one binary.

    Attributes:
        branches: {(from_loc, to_loc): [count, mispreds]} where a loc is
            (func_link_name, offset); taken branches only (LBR mode).
        ip_samples: {loc: count} — plain instruction-pointer samples
            (the only signal available in non-LBR mode).
        event: the sampling event the profile came from.
        lbr: whether branch records are populated.
        build_id: content hash of the binary the samples were collected
            on (or None for hand-built profiles).  Lets the consumer
            detect stale, cross-build profiles.
    """

    def __init__(self, event="cycles", lbr=True, build_id=None):
        self.branches = {}
        self.ip_samples = {}
        self.event = event
        self.lbr = lbr
        self.build_id = build_id

    def add_branch(self, from_loc, to_loc, mispred=0, count=1):
        """Add ``count`` traversals and ``mispred`` mispredicts to one
        branch record (a bool ``mispred`` counts as one mispredict)."""
        key = (from_loc, to_loc)
        entry = self.branches.get(key)
        if entry is None:
            self.branches[key] = [count, int(mispred)]
        else:
            entry[0] += count
            entry[1] += mispred

    def add_sample(self, loc, count=1):
        self.ip_samples[loc] = self.ip_samples.get(loc, 0) + count

    # -- queries -----------------------------------------------------------

    def branches_by_function(self):
        """Branch records fully inside one function, grouped in one pass:
        ``{func: {(from_off, to_off): (count, mispreds)}}``, each
        function's records in profile order."""
        out = {}
        for (f, t), (count, mispred) in self.branches.items():
            if f[0] == t[0]:
                records = out.get(f[0])
                if records is None:
                    records = out[f[0]] = {}
                records[(f[1], t[1])] = (count, mispred)
        return out

    def calls_by_function(self):
        """Transfers into another function's entry, grouped by source
        function in one pass: ``{func: [(from_off, callee, count,
        mispreds)]}``, each function's records in profile order."""
        out = {}
        for (f, t), (count, mispred) in self.branches.items():
            if f[0] != t[0] and t[1] == 0:
                records = out.get(f[0])
                if records is None:
                    records = out[f[0]] = []
                records.append((f[1], t[0], count, mispred))
        return out

    def calls_between(self):
        """Weighted inter-function transfers: {(caller, callee): count}.

        Includes calls and returns (the LBR view of the call graph,
        paper section 5.3).
        """
        out = {}
        for (f, t), (count, _) in self.branches.items():
            if f[0] != t[0] and t[1] == 0:
                # A transfer landing at a function's entry: a call edge.
                key = (f[0], t[0])
                out[key] = out.get(key, 0) + count
        return out

    def samples_within(self, func):
        return {
            loc[1]: count for loc, count in self.ip_samples.items()
            if loc[0] == func
        }

    def functions(self):
        names = set()
        for (f, t) in self.branches:
            names.add(f[0])
            names.add(t[0])
        for loc in self.ip_samples:
            names.add(loc[0])
        return names

    def total_branch_count(self):
        return sum(count for count, _ in self.branches.values())

    def __len__(self):
        return len(self.branches) + len(self.ip_samples)


class _EscapedNames(dict):
    """name -> percent-escaped name, escaped once per distinct name."""

    def __missing__(self, name):
        escaped = self[name] = _ESCAPED_CHARS.sub(
            lambda m: quote(m.group(), safe=""), name)
        return escaped


def write_fdata(profile):
    """Serialize to the .fdata-like text format.

    Branch lines:  ``1 <from_func> <from_off> 1 <to_func> <to_off>
    <mispreds> <count>``; sample lines: ``S <func> <off> <count>``.
    Function names are URL-style percent-escaped (UTF-8) for ``%`` and
    every whitespace character, so any symbol name stays one field.
    :func:`repro.profiling.merge.parse_fdata` reads the format back.
    """
    esc = _EscapedNames()
    lines = [f"# event: {profile.event}", f"# lbr: {1 if profile.lbr else 0}"]
    if profile.build_id:
        lines.insert(1, f"# build-id: {profile.build_id}")
    for (f, t), (count, mispred) in sorted(profile.branches.items()):
        lines.append(
            f"1 {esc[f[0]]} {f[1]:x} 1 {esc[t[0]]} {t[1]:x} {mispred} {count}")
    for loc, count in sorted(profile.ip_samples.items()):
        lines.append(f"S {esc[loc[0]]} {loc[1]:x} {count}")
    return "\n".join(lines) + "\n"
