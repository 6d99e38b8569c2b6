"""Microarchitecture configuration and cycle cost model."""


class UarchConfig:
    """Sizes and penalties for the performance model.

    Defaults are scaled-down relative to a real Xeon so that the
    simulator-scale workloads (hundreds of KiB of text) stress the
    front end the way 100+ MB binaries stress real 32 KiB L1I caches.
    Penalties are in cycles and roughly Ivy Bridge-shaped (the paper's
    evaluation machine).
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
        self.line_size = line_size
        self.l1i_size = l1i_size
        self.l1i_assoc = l1i_assoc
        self.l1d_size = l1d_size
        self.l1d_assoc = l1d_assoc
        self.llc_size = llc_size
        self.llc_assoc = llc_assoc
        self.l2_size = l2_size
        self.l2_assoc = l2_assoc
        self.l2_hit_latency = l2_hit_latency
        self.prefetch_next_line = prefetch_next_line
        self.page_size = page_size
        self.itlb_entries = itlb_entries
        self.dtlb_entries = dtlb_entries
        self.btb_entries = btb_entries
        self.bp_table_bits = bp_table_bits
        self.bp_kind = bp_kind
        self.ras_depth = ras_depth
        self.base_cpi = base_cpi
        self.taken_branch_penalty = taken_branch_penalty
        self.mispredict_penalty = mispredict_penalty
        self.l1_miss_penalty = l1_miss_penalty
        self.llc_miss_penalty = llc_miss_penalty
        self.tlb_miss_penalty = tlb_miss_penalty
