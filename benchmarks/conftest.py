"""Shared experiment fixtures for the paper-reproduction benchmarks.

Expensive artifacts (built workloads, profiles, BOLTed binaries) are
computed once per session and shared across benchmark files.  Set
``REPRO_BENCH_SCALE`` (float, default 1.0) to shrink workload iteration
counts for a faster smoke run, e.g.::

    REPRO_BENCH_SCALE=0.25 pytest benchmarks/ --benchmark-only
"""

import os
import pathlib
import sys

import pytest

from repro.core import BoltOptions
from repro.harness import (
    build_workload,
    measure,
    run_bolt,
    sample_profile,
    speedup,
)
from repro.workloads import FACEBOOK_NAMES, make_workload

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

# The reference implementations some benchmarks time against live
# in the ``tests.oracles`` package at the repository root.
_ROOT = str(pathlib.Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:
    sys.path.append(_ROOT)


def scaled(name, **overrides):
    workload = make_workload(name, **overrides)
    if SCALE != 1.0:
        workload = make_workload(
            name, iterations=max(40, int(workload.spec.iterations * SCALE)),
            **overrides)
    return workload


class Experiment:
    """One workload taken through baseline -> profile -> BOLT."""

    def __init__(self, name, workload, built, bolt_options=None):
        self.name = name
        self.workload = workload
        self.built = built
        self.baseline = measure(built, fetch_heat=True)
        self.profile, _ = sample_profile(built)
        self.result = run_bolt(built, self.profile,
                               bolt_options or BoltOptions())
        self.optimized = measure(self.result.binary, inputs=workload.inputs,
                                 fetch_heat=True)
        assert self.optimized.output == self.baseline.output, \
            f"{name}: BOLT changed program behaviour"

    @property
    def speedup(self):
        return speedup(self.baseline.counters.cycles,
                       self.optimized.counters.cycles)


@pytest.fixture(scope="session")
def facebook_experiments():
    """Figure 5/6 artifacts: the five data-center workloads on top of
    link-time HFSort (HHVM additionally with LTO, paper section 6.1)."""
    out = {}
    for name in FACEBOOK_NAMES:
        workload = scaled(name)
        built = build_workload(workload, lto=(name == "hhvm"),
                               hfsort_link="hfsort")
        out[name] = Experiment(name, workload, built)
    return out


@pytest.fixture(scope="session")
def compiler_matrix():
    """Figure 7/8/Table 2 artifacts: the compiler-shaped workload in the
    four build configurations of section 6.2."""
    workload = scaled("compiler")

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


def print_table(title, headers, rows):
    """Uniform benchmark output table."""
    print(f"\n=== {title} ===")
    widths = [max(len(str(h)), max((len(str(r[i])) for r in rows),
                                   default=0))
              for i, h in enumerate(headers)]
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def once(benchmark, fn):
    """Run a callable exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
