"""Branch prediction models.

The conditional direction predictor is a *tournament* (Alpha
21264-style): a per-PC bimodal table, a gshare (global-history) table,
and a per-PC chooser that learns which component predicts each branch
better.  This matters for the BOLT experiments: after layout
optimization nearly every hot conditional falls through, the global
history degenerates to a run of zeros, and a plain gshare predictor
would penalize exactly the binaries the paper speeds up; the tournament
falls back to the bimodal side for such branches, like real hardware.

Indirect branches use a BTB (last-target) and returns a return-address
stack.
"""


class BranchPredictor:
    """Tournament conditional predictor + BTB + RAS.

    ``kind``: ``"tournament"`` (default), ``"gshare"``, or ``"bimodal"``.
    """

    def __init__(self, table_bits=12, btb_entries=512, ras_depth=16,
                 kind="tournament"):
        if kind not in ("tournament", "gshare", "bimodal"):
            raise ValueError(f"unknown predictor kind {kind!r}")
        self.kind = kind
        self.table_bits = table_bits
        self.mask = (1 << table_bits) - 1
        size = 1 << table_bits
        self.bimodal = [2] * size   # 2-bit counters, weakly taken
        self.gshare = [2] * size
        self.chooser = [2] * size   # >=2 prefer gshare, <2 prefer bimodal
        self.history = 0
        self.btb = {}
        self.btb_entries = btb_entries
        self.btb_order = []
        self.ras = []
        self.ras_depth = ras_depth

    def state(self):
        """Comparable full state (for engine-equivalence pinning)."""
        return (
            self.kind,
            tuple(self.bimodal),
            tuple(self.gshare),
            tuple(self.chooser),
            self.history,
            tuple(sorted(self.btb.items())),
            tuple(self.btb_order),
            tuple(self.ras),
        )

    # -- conditional branches ------------------------------------------------

    def _bimodal_index(self, pc):
        return (pc >> 1) & self.mask

    def _gshare_index(self, pc):
        return ((pc >> 1) ^ self.history) & self.mask

    def update_cond(self, pc, taken):
        """Update all components; returns prediction correctness."""
        bi_index = self._bimodal_index(pc)
        gs_index = self._gshare_index(pc)
        bi_counter = self.bimodal[bi_index]
        gs_counter = self.gshare[gs_index]
        bi_pred = bi_counter >= 2
        gs_pred = gs_counter >= 2
        if self.kind == "bimodal":
            predicted = bi_pred
        elif self.kind == "gshare":
            predicted = gs_pred
        else:
            predicted = gs_pred if self.chooser[bi_index] >= 2 else bi_pred

        # Train the component tables.
        if taken:
            if bi_counter < 3:
                self.bimodal[bi_index] = bi_counter + 1
            if gs_counter < 3:
                self.gshare[gs_index] = gs_counter + 1
        else:
            if bi_counter > 0:
                self.bimodal[bi_index] = bi_counter - 1
            if gs_counter > 0:
                self.gshare[gs_index] = gs_counter - 1

        # Train the chooser only when the components disagree.
        if self.kind == "tournament" and bi_pred != gs_pred:
            chooser = self.chooser[bi_index]
            if gs_pred == taken and chooser < 3:
                self.chooser[bi_index] = chooser + 1
            elif bi_pred == taken and chooser > 0:
                self.chooser[bi_index] = chooser - 1

        # Path history: fold the branch PC and its outcome into the
        # history register.  Pure direction history loses all its
        # information when a layout optimizer converts hot branches to
        # fall-throughs; real correlating predictors track the path.
        self.history = (((self.history << 3) ^ (pc >> 1)
                         ^ (1 if taken else 0)) & self.mask)
        return predicted == taken

    # -- indirect branches -----------------------------------------------------

    def predict_indirect(self, pc, actual_target):
        """Look up the BTB and train it; returns prediction correctness."""
        predicted = self.btb.get(pc)
        if predicted != actual_target:
            if pc not in self.btb and len(self.btb) >= self.btb_entries:
                victim = self.btb_order.pop(0)
                self.btb.pop(victim, None)
            if pc not in self.btb:
                self.btb_order.append(pc)
            self.btb[pc] = actual_target
            return False
        return True

    # -- returns ------------------------------------------------------------------

    def push_return(self, address):
        if len(self.ras) >= self.ras_depth:
            self.ras.pop(0)
        self.ras.append(address)

    def predict_return(self, actual_target):
        """Pop the RAS; returns True when it matches the actual target."""
        if not self.ras:
            return False
        predicted = self.ras.pop()
        return predicted == actual_target
