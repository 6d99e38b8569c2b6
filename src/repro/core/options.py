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
        icf=True,
        icp=True,
        icp_mispredict_threshold=0.05,
        inline_small=True,
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
        use_relocations=None,           # None = auto (binary has relocs)
        trust_fall_through=True,        # section 5.2 flow repair policy
        hot_threshold=1,                # min count for a block to be hot
        strict=False,                   # warnings become hard failures
        validate_output="structural",   # none | structural | static | execute
        validate_inputs=None,           # smoke inputs for "execute"
        lint="post",                    # none | post (post-pass lint gate)
        lint_suppress=(),               # ("BL003", "crc32:BL001", ...)
        lite=True,                      # leave unprofiled functions in place
        time_opts=False,                # per-pass wall time (-time-opts)
        time_rewrite=False,             # per-phase wall time (-time-rewrite)
    ):
        self.reorder_blocks = reorder_blocks
        self.reorder_functions = reorder_functions
        self.split_functions = split_functions
        self.split_all_cold = split_all_cold
        self.icf = icf
        self.icp = icp
        self.icp_mispredict_threshold = icp_mispredict_threshold
        self.inline_small = inline_small
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
        self.use_relocations = use_relocations
        self.trust_fall_through = trust_fall_through
        self.hot_threshold = hot_threshold
        self.strict = strict
        self.validate_output = validate_output
        self.validate_inputs = validate_inputs
        self.lint = lint
        self.lint_suppress = lint_suppress
        self.lite = lite
        self.time_opts = time_opts
        self.time_rewrite = time_rewrite

    def copy(self, **overrides):
        out = BoltOptions()
        out.__dict__.update(self.__dict__)
        out.__dict__.update(overrides)
        return out
