"""Line-number debug information (.debug_line analog).

Maps code addresses (or section offsets, in objects) to source
locations.  Two consumers:

* the compiler's AutoFDO mode maps binary-level samples *back* to source
  locations through this table — the lossy step whose inaccuracy (paper
  Figure 2, section 2.2) motivates post-link optimization;
* BOLT reads it for ``-print-debug-info`` style reporting and rewrites
  it (``-update-debug-sections``) when instructions move.
"""

import bisect


class LineEntry:
    """One (address, file, line) row.  Rows cover [addr, next row's addr)."""

    __slots__ = ("addr", "file", "line")

    def __init__(self, addr, file, line):
        self.addr = addr
        self.file = file
        self.line = line

    def __repr__(self):
        return f"<Line 0x{self.addr:x} {self.file}:{self.line}>"


class LineTable:
    """A sorted table of line entries with binary-search lookup."""

    def __init__(self, entries=()):
        self.entries = list(entries)
        self._sorted = False
        self._keys = None               # cached [entry.addr], sorted

    def add(self, addr, file, line):
        self.entries.append(LineEntry(addr, file, line))
        self._sorted = False
        self._keys = None

    def _ensure_sorted(self):
        if not self._sorted:
            self.entries.sort(key=lambda e: e.addr)
            self._sorted = True
            self._keys = None

    def _sorted_keys(self):
        """The sorted row addresses.  The bisect key list is cached
        across queries; rebuilding it on every query made profile
        attribution quadratic in table size."""
        self._ensure_sorted()
        keys = self._keys
        if keys is None:
            keys = self._keys = [e.addr for e in self.entries]
        return keys

    def lookup(self, addr):
        """Source location covering ``addr``: (file, line) or None."""
        if not self.entries:
            return None
        keys = self._sorted_keys()
        idx = bisect.bisect_right(keys, addr) - 1
        if idx < 0:
            return None
        entry = self.entries[idx]
        return (entry.file, entry.line)

    def lookup_ascending(self, addrs):
        """``[lookup(a) for a in addrs]`` for ascending ``addrs``: one
        bisect, then a forward walk.  Addresses covered by the same row
        share one location tuple."""
        if not self.entries:
            return [None] * len(addrs)
        keys = self._sorted_keys()
        entries = self.entries
        last = len(keys) - 1
        idx = bisect.bisect_right(keys, addrs[0]) - 1 if addrs else -1
        shared_idx = loc = None
        out = []
        for addr in addrs:
            while idx < last and keys[idx + 1] <= addr:
                idx += 1
            if idx < 0:
                out.append(None)
                continue
            if idx != shared_idx:
                entry = entries[idx]
                shared_idx, loc = idx, (entry.file, entry.line)
            out.append(loc)
        return out

    def between(self, lo, hi):
        """The rows at addresses in ``[lo, hi)``, in address order."""
        keys = self._sorted_keys()
        return self.entries[bisect.bisect_left(keys, lo):
                            bisect.bisect_left(keys, hi)]

    def rebase(self, mapping):
        """Return a new table with addresses translated through ``mapping``.

        ``mapping`` is a callable old_addr -> new_addr or None (entry
        dropped — e.g. the instruction was deleted).
        """
        out = LineTable()
        for entry in self.entries:
            new_addr = mapping(entry.addr)
            if new_addr is not None:
                out.add(new_addr, entry.file, entry.line)
        return out

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        self._ensure_sorted()
        return iter(self.entries)
