"""Fuzzing the full pipeline: randomly-shaped generated workloads are
compiled, linked, profiled, BOLTed (both modes) and executed; every
variant must reproduce the reference interpreter's output stream.

This is the heavyweight counterpart of the per-module property tests:
it shakes interactions between the workload generator's features
(switches, function pointers, EH, indirect tail calls, duplicates) and
every stage of the toolchain.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import BoltOptions
from repro.harness import build_workload, measure, run_bolt, sample_profile
from repro.lang import parse_module
from repro.lang.interp import Interpreter
from repro.profiling import SamplingConfig
from repro.workloads import generate_workload
from tests.strategies import workload_specs


def reference(workload):
    modules = [parse_module(t, n) for n, t in
               workload.sources + workload.lib_sources + workload.asm_sources]
    interp = Interpreter(modules, max_steps=80_000_000)
    interp.set_array("mainmod", "input", workload.inputs["mainmod::input"])
    interp.run("main")
    return interp.output


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(spec=workload_specs())
def test_fuzz_full_pipeline(spec):
    workload = generate_workload(spec)
    expected = reference(workload)

    built = build_workload(workload)
    baseline = measure(built, max_instructions=30_000_000)
    assert baseline.output == expected

    profile, _ = sample_profile(
        built, sampling=SamplingConfig(period=83),
        max_instructions=30_000_000)
    result = run_bolt(built, profile, BoltOptions())
    optimized = measure(result.binary, inputs=workload.inputs,
                        max_instructions=30_000_000)
    assert optimized.output == expected


@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(spec=workload_specs(), seed2=st.integers(0, 3))
def test_fuzz_inplace_and_nolbr(spec, seed2):
    workload = generate_workload(spec)
    expected = reference(workload)

    built = build_workload(workload, emit_relocs=(seed2 % 2 == 0))
    profile, _ = sample_profile(
        built, sampling=SamplingConfig(period=83, use_lbr=(seed2 < 2)),
        max_instructions=30_000_000)
    result = run_bolt(built, profile, BoltOptions())
    optimized = measure(result.binary, inputs=workload.inputs,
                        max_instructions=30_000_000)
    assert optimized.output == expected
