"""Microarchitecture configuration and cycle cost model."""


def _cycles(name, value):
    """A cycle count: a non-negative whole number (``1.0`` is 1)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or value < 0
            or (isinstance(value, float) and not value.is_integer())):
        raise ValueError(f"UarchConfig {name} must be a non-negative whole "
                         f"number of cycles, got {value!r}")
    return int(value)


def _entries(name, value, minimum=1):
    """A size, depth or entry count: an integer of at least ``minimum``."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or value < minimum):
        raise ValueError(f"UarchConfig {name} must be an integer of at "
                         f"least {minimum}, got {value!r}")
    return value


def _power_of_two(name, value):
    """A line or page size: a power-of-two integer of at least 1."""
    _entries(name, value)
    if value & (value - 1):
        raise ValueError(f"UarchConfig {name} must be a power of two, "
                         f"got {value!r}")
    return value


class UarchConfig:
    """Sizes and penalties for the performance model.

    Defaults are scaled-down relative to a real Xeon so that the
    simulator-scale workloads (hundreds of KiB of text) stress the
    front end the way 100+ MB binaries stress real 32 KiB L1I caches.
    Penalties are in cycles and roughly Ivy Bridge-shaped (the paper's
    evaluation machine).

    Both engines count whole cycles, so ``base_cpi``, the penalties and
    ``l2_hit_latency`` must be non-negative whole numbers (stored as
    ints).  The L1 and LLC sizes, every associativity and the TLB, BTB
    and return-stack sizes must be integers of at least 1, and
    ``l2_size`` and ``bp_table_bits`` integers of at least 0, and
    ``line_size`` and ``page_size`` powers of two.  Anything else raises
    ``ValueError`` naming the field.
    """

    def __init__(
        self,
        line_size=64,
        l1i_size=8192,
        l1i_assoc=4,
        l1d_size=8192,
        l1d_assoc=4,
        llc_size=65536,
        llc_assoc=8,
        l2_size=0,              # 0 disables the private L2 level
        l2_assoc=8,
        l2_hit_latency=6,
        prefetch_next_line=False,   # next-line I-prefetcher
        page_size=4096,
        itlb_entries=8,
        dtlb_entries=32,
        btb_entries=512,
        bp_table_bits=12,
        bp_kind="tournament",   # tournament | gshare | bimodal
        ras_depth=16,
        base_cpi=1.0,
        taken_branch_penalty=1,
        mispredict_penalty=14,
        l1_miss_penalty=12,
        llc_miss_penalty=120,
        tlb_miss_penalty=30,
    ):
        self.line_size = _power_of_two("line_size", line_size)
        self.l1i_size = _entries("l1i_size", l1i_size)
        self.l1i_assoc = _entries("l1i_assoc", l1i_assoc)
        self.l1d_size = _entries("l1d_size", l1d_size)
        self.l1d_assoc = _entries("l1d_assoc", l1d_assoc)
        self.llc_size = _entries("llc_size", llc_size)
        self.llc_assoc = _entries("llc_assoc", llc_assoc)
        self.l2_size = _entries("l2_size", l2_size, minimum=0)
        self.l2_assoc = _entries("l2_assoc", l2_assoc)
        self.l2_hit_latency = _cycles("l2_hit_latency", l2_hit_latency)
        self.prefetch_next_line = prefetch_next_line
        self.page_size = _power_of_two("page_size", page_size)
        self.itlb_entries = _entries("itlb_entries", itlb_entries)
        self.dtlb_entries = _entries("dtlb_entries", dtlb_entries)
        self.btb_entries = _entries("btb_entries", btb_entries)
        self.bp_table_bits = _entries("bp_table_bits", bp_table_bits,
                                      minimum=0)
        self.bp_kind = bp_kind
        self.ras_depth = _entries("ras_depth", ras_depth)
        self.base_cpi = _cycles("base_cpi", base_cpi)
        self.taken_branch_penalty = _cycles("taken_branch_penalty",
                                            taken_branch_penalty)
        self.mispredict_penalty = _cycles("mispredict_penalty",
                                          mispredict_penalty)
        self.l1_miss_penalty = _cycles("l1_miss_penalty", l1_miss_penalty)
        self.llc_miss_penalty = _cycles("llc_miss_penalty", llc_miss_penalty)
        self.tlb_miss_penalty = _cycles("tlb_miss_penalty", tlb_miss_penalty)
