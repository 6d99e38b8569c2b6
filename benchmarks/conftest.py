"""Shared experiment fixtures for the paper-reproduction benchmarks.

The expensive artifacts (built workloads, profiles, BOLTed binaries)
come from :mod:`repro.harness.experiments`; they are computed once per
session and shared across benchmark files.  Set
``REPRO_BENCH_SCALE`` (float, default 1.0) to shrink workload iteration
counts for a faster smoke run, e.g.::

    REPRO_BENCH_SCALE=0.25 pytest benchmarks/ --benchmark-only
"""

import json
import os
import pathlib
import sys

import pytest

from repro.harness import experiments

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

# The reference implementations some benchmarks time against live
# in the ``tests.oracles`` package at the repository root.
_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(_ROOT) not in sys.path:
    sys.path.append(str(_ROOT))


def scaled(name):
    """The preset workload ``name`` at ``REPRO_BENCH_SCALE``."""
    return experiments.sized(name, SCALE)


@pytest.fixture(scope="session")
def facebook_experiments():
    """Figure 5/6/9/11 artifacts: ``{name: experiments.Leg}``."""
    return experiments.facebook_legs(SCALE)


@pytest.fixture(scope="session")
def compiler_matrix():
    """Figure 7/8/10 and Table 1/2 artifacts: the compiler build matrix."""
    return experiments.compiler_matrix(SCALE)


@pytest.fixture(scope="session")
def fdo_table(compiler_matrix):
    """The Figure 7/8 speedups, measured once per input mix."""
    return experiments.figures7and8(compiler_matrix)


def record_bench(name, section, payload):
    """Replace one section of the BENCH file ``name`` at the repository
    root, keeping its other sections; each section records its scale."""
    path = _ROOT / name
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc[section] = {"scale": SCALE, **payload}
    path.write_text(json.dumps(doc, indent=2) + "\n")


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
