"""The paper's evaluation legs (section 6: Figures 5-8 and 11, Table 2).

This module is the only implementation of them: the benchmarks under
``benchmarks/``, ``python -m repro.experiments`` and
``examples/compiler_fdo_matrix.py`` build the two shared artifacts
below and print or assert the rows the figure functions compute::

    from repro.harness import experiments as X
    legs = X.facebook_legs(scale=0.25)
    for row in X.figure5(legs)["rows"]:
        print(row)

``scale`` shrinks every workload's iteration count (:func:`sized`);
1.0 is the paper-sized run.  Profiles are sampled deterministically,
so the same scale always gives the same numbers.
"""

import math

from repro.core import BoltOptions
from repro.harness.metrics import FIGURE6_METRICS, counter_reductions
from repro.harness.pipeline import (
    BuiltBinary,
    build_workload,
    measure,
    run_bolt,
    sample_profile,
    speedup,
)
from repro.profiling import SamplingConfig
from repro.workloads import FACEBOOK_NAMES, PRESETS, generate_workload

#: Figure 11's optimization scopes: function reordering only, block
#: reordering (and the other passes) only, and both.
FIGURE11_SCOPES = {
    "Functions": BoltOptions(reorder_blocks="none", split_functions=0,
                             icp=False, inline_small=False, sctc=False,
                             frame_opts=False, shrink_wrapping=False),
    "BBs": BoltOptions(reorder_functions="none"),
    "Both": None,                   # the leg's own default-options BOLT
}

#: The build configurations of Figures 7 and 8, as compiler-matrix keys.
FDO_CONFIGS = {
    "BOLT": "bolt",
    "PGO": "pgo",
    "PGO+BOLT": "pgo_bolt",
    "PGO+LTO": "pgo_lto",
    "PGO+LTO+BOLT": "pgo_lto_bolt",
}


def sized(name, scale=1.0):
    """The preset workload ``name`` with its iteration count scaled by
    ``scale``, but never below 40 iterations."""
    spec = PRESETS[name]
    if scale != 1.0:
        spec = spec.copy(iterations=max(40, int(spec.iterations * scale)))
    return generate_workload(spec)


class Leg:
    """One build taken through baseline -> profile -> BOLT (default
    options) -> measure.

    :meth:`bolt` repeats the last two steps with other options or
    another profile against the same baseline run.  Every BOLTed binary
    must print what the baseline printed.
    """

    def __init__(self, built, fetch_heat=False):
        self.built = built
        self.workload = built.workload
        self.baseline = measure(built, fetch_heat=fetch_heat)
        self.profile, _ = sample_profile(built)
        self.result, self.optimized = self.bolt(fetch_heat=fetch_heat)

    def bolt(self, options=None, profile=None, fetch_heat=False):
        """``(RewriteResult, optimized run)``; the profile defaults to
        this leg's."""
        result = run_bolt(self.built,
                          self.profile if profile is None else profile,
                          options)
        optimized = measure(result.binary, inputs=self.workload.inputs,
                            fetch_heat=fetch_heat)
        if optimized.output != self.baseline.output:
            raise AssertionError(
                f"{self.workload.spec.name}: BOLT changed program behaviour")
        return result, optimized

    def gain(self, options=None, profile=None):
        """The speedup of :meth:`bolt` over this leg's baseline (this
        leg's own when neither is given)."""
        if options is None and profile is None:
            return self.speedup
        return speedup(self.baseline.counters.cycles,
                       self.bolt(options, profile)[1].counters.cycles)

    @property
    def speedup(self):
        return speedup(self.baseline.counters.cycles,
                       self.optimized.counters.cycles)


def facebook_leg(name, scale=1.0):
    """A data-center workload built on link-time HFSort (hhvm also with
    LTO, section 6.1), taken through one leg with fetch heat recorded."""
    built = build_workload(sized(name, scale), lto=(name == "hhvm"),
                           hfsort_link="hfsort")
    return Leg(built, fetch_heat=True)


def facebook_legs(scale=1.0):
    """Figures 5, 6, 9 and 11: ``{name: Leg}`` for the five workloads."""
    return {name: facebook_leg(name, scale) for name in FACEBOOK_NAMES}


def compiler_matrix(scale=1.0):
    """Figures 7, 8 and 10, Tables 1 and 2: the compiler-shaped workload
    in the build configurations of section 6.2, three of them BOLTed
    (``RewriteResult`` values under the ``*bolt`` keys)."""
    workload = sized("compiler", scale)

    def bolt_of(built):
        profile, _ = sample_profile(built)
        return run_bolt(built, profile)

    base = build_workload(workload)
    pgo = build_workload(workload, pgo=True)
    pgo_lto = build_workload(workload, pgo=True, lto=True)
    return {
        "workload": workload,
        "baseline": base,
        "pgo": pgo,
        "pgo_lto": pgo_lto,
        "bolt": bolt_of(base),
        "pgo_bolt": bolt_of(pgo),
        "pgo_lto_bolt": bolt_of(pgo_lto),
    }


def figure5(legs):
    """BOLT over the HFSort(+LTO) baselines: rows of ``(name, cycles
    before, cycles after, speedup)`` and their geomean."""
    rows = [(name, leg.baseline.counters.cycles,
             leg.optimized.counters.cycles, leg.speedup)
            for name, leg in legs.items()]
    geomean = math.prod(1 + row[3] for row in rows) ** (1 / len(rows)) - 1
    return {"rows": rows, "geomean": geomean}


def figure6(leg):
    """Micro-architecture miss reductions of one leg (hhvm's in the
    paper): ``{metric: reduction}``."""
    return counter_reductions(leg.baseline.counters, leg.optimized.counters,
                              FIGURE6_METRICS)


def _executable(entry):
    """A compiler-matrix entry's binary: a build or a BOLT result."""
    return entry.exe if isinstance(entry, BuiltBinary) else entry.binary


def figures7and8(matrix):
    """Speedup of every build configuration over -O2, per input mix:
    ``{mix: {configuration: speedup}}``.  Each binary runs once per mix
    and must print what the -O2 build prints."""
    workload = matrix["workload"]
    mixes = {"input1 (default)": workload.inputs, **workload.alt_inputs}
    binaries = {label: _executable(matrix[key])
                for label, key in FDO_CONFIGS.items()}
    table = {}
    for mix, inputs in mixes.items():
        base = measure(matrix["baseline"].exe, inputs=inputs)
        table[mix] = {}
        for label, binary in binaries.items():
            run = measure(binary, inputs=inputs)
            if run.output != base.output:
                raise AssertionError(f"{label} on {mix}: output differs "
                                     f"from the -O2 build")
            table[mix][label] = speedup(base.counters.cycles,
                                        run.counters.cycles)
    return table


def figure11(leg):
    """LBR against plain IP samples (edge counts recovered by MCF) per
    :data:`FIGURE11_SCOPES` entry, on one leg (hhvm's in the paper):
    ``{scope: (speedup with LBR, speedup without)}``."""
    nolbr, _ = sample_profile(
        leg.built, sampling=SamplingConfig(period=251, use_lbr=False))
    return {scope: (leg.gain(options), leg.gain(options, nolbr))
            for scope, options in FIGURE11_SCOPES.items()}


def table2(matrix):
    """Dyno-stats deltas of BOLT over -O2 and over PGO+LTO."""
    return {
        column: matrix[key].dyno_after.delta_vs(matrix[key].dyno_before)
        for column, key in (("over_baseline", "bolt"),
                            ("over_pgo_lto", "pgo_lto_bolt"))
    }
