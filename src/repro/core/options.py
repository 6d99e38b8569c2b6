"""BOLT command-line-style options.

Defaults correspond to the configuration the paper's evaluation used
(section 6.2.1):

    -reorder-blocks=cache+ -reorder-functions=hfsort+
    -split-functions=3 -split-all-cold -split-eh -icf=1 -dyno-stats
"""


class BoltOptions:
    def __init__(
        self,
        reorder_blocks="cache+",        # none | reverse | cache | cache+
        reorder_functions="hfsort+",    # none | hfsort | hfsort+
        split_functions=3,              # 0=never .. 3=aggressive
        split_all_cold=True,
        split_eh=True,
        icf=True,
        icp=True,
        icp_top_n=1,
        icp_mispredict_threshold=0.05,
        inline_small=True,
        inline_max_size=32,
        simplify_ro_loads=True,
        plt=True,
        peepholes=True,
        strip_rep_ret=True,
        sctc=True,
        frame_opts=True,
        shrink_wrapping=True,
        uce=True,
        strip_nops=True,
        jump_tables="move",             # none | move (hot tables to .rodata.hot)
        update_debug_sections=True,
        use_relocations=None,           # None = auto (binary has relocs)
        trust_fall_through=True,        # section 5.2 flow repair policy
        use_mcf=True,                   # non-LBR edge inference via MCF
        hot_threshold=1,                # min count for a block to be hot
        dyno_stats=True,
        align_functions=16,
        cold_section_name=".text.cold",
        strict=False,                   # warnings become hard failures
        validate_output="structural",   # none | structural | static | execute
        validate_inputs=None,           # smoke inputs for "execute"
        validate_max_instructions=5_000_000,
        lint="post",                    # none | post (post-pass lint gate)
        lint_suppress=(),               # ("BL003", "crc32:BL001", ...)
        stale_matching=True,            # fuzzy-match stale profiles
        stale_min_quality=0.0,          # below: drop the profile entirely
        time_opts=False,                # per-pass wall time (-time-opts)
        time_rewrite=False,             # per-phase wall time (-time-rewrite)
    ):
        self.reorder_blocks = reorder_blocks
        self.reorder_functions = reorder_functions
        self.split_functions = split_functions
        self.split_all_cold = split_all_cold
        self.split_eh = split_eh
        self.icf = icf
        self.icp = icp
        self.icp_top_n = icp_top_n
        self.icp_mispredict_threshold = icp_mispredict_threshold
        self.inline_small = inline_small
        self.inline_max_size = inline_max_size
        self.simplify_ro_loads = simplify_ro_loads
        self.plt = plt
        self.peepholes = peepholes
        self.strip_rep_ret = strip_rep_ret
        self.sctc = sctc
        self.frame_opts = frame_opts
        self.shrink_wrapping = shrink_wrapping
        self.uce = uce
        self.strip_nops = strip_nops
        self.jump_tables = jump_tables
        self.update_debug_sections = update_debug_sections
        self.use_relocations = use_relocations
        self.trust_fall_through = trust_fall_through
        self.use_mcf = use_mcf
        self.hot_threshold = hot_threshold
        self.dyno_stats = dyno_stats
        self.align_functions = align_functions
        self.cold_section_name = cold_section_name
        self.strict = strict
        self.validate_output = validate_output
        self.validate_inputs = validate_inputs
        self.validate_max_instructions = validate_max_instructions
        self.lint = lint
        self.lint_suppress = lint_suppress
        self.stale_matching = stale_matching
        self.stale_min_quality = stale_min_quality
        self.time_opts = time_opts
        self.time_rewrite = time_rewrite

    def copy(self, **overrides):
        out = BoltOptions()
        out.__dict__.update(self.__dict__)
        out.__dict__.update(overrides)
        return out
