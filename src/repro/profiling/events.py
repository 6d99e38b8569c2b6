"""Sampling events, periods, skid models, and the Sampler itself.

Paper section 5.1 evaluates several hardware events (retired
instructions, taken branches, cycles) at different PEBS precision
levels and finds LBR-based profiles robust across all of them.  The
``EVENT_PRESETS`` table mirrors that setup: precise (PEBS) variants
have no skid, imprecise ones attribute the sample a few instructions
late — the bias non-LBR profiles are sensitive to.
"""


class SamplingConfig:
    def __init__(self, event="cycles", period=997, skid=0, use_lbr=True):
        if event not in ("cycles", "instructions", "taken-branches"):
            raise ValueError(f"unknown sampling event {event!r}")
        if period <= 0:
            raise ValueError(f"sampling period must be positive, "
                             f"got {period!r}")
        self.event = event
        self.period = period
        self.skid = skid
        self.use_lbr = use_lbr


#: Named presets used by the section 5.1 / 6.5 experiments.
EVENT_PRESETS = {
    "cycles:pebs": SamplingConfig("cycles", period=997, skid=0),
    "cycles": SamplingConfig("cycles", period=997, skid=6),
    "instructions:pebs": SamplingConfig("instructions", period=499, skid=0),
    "instructions": SamplingConfig("instructions", period=499, skid=6),
    "taken-branches:pebs": SamplingConfig("taken-branches", period=199, skid=0),
    "taken-branches": SamplingConfig("taken-branches", period=199, skid=4),
}


class Sampler:
    """Collects (pc, lbr_snapshot) samples during simulation.

    The CPU drives it: on every retired instruction the CPU updates the
    event accumulator and, when the period elapses (plus skid), calls
    :meth:`take_sample`.
    """

    def __init__(self, config=None):
        config = config or SamplingConfig()
        self.event = config.event
        self.period = config.period
        self.skid = config.skid
        self.use_lbr = config.use_lbr
        self.samples = []     # list of (pc, lbr list | None)

    def take_sample(self, pc, lbr_snapshot):
        self.samples.append((pc, lbr_snapshot))

    def state(self):
        """Comparable sample stream (for engine-equivalence pinning)."""
        return [(pc, None if lbr is None else tuple(lbr))
                for pc, lbr in self.samples]

    def __len__(self):
        return len(self.samples)
