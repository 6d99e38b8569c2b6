"""Full-matrix integration tests on the mini workload.

Every build configuration x BOLT mode must reproduce exactly the
reference interpreter's output stream.  This is the repository's
strongest end-to-end guarantee: the compiler, linker, profiler,
optimizer and machine model all agree on program semantics.
"""

import pytest

from repro.codegen import CodegenOptions
from repro.core import BoltOptions
from repro.harness import build_workload, measure, run_bolt, sample_profile
from repro.lang import parse_module
from repro.lang.interp import Interpreter
from repro.profiling import SamplingConfig
from repro.workloads import make_workload


@pytest.fixture(scope="module")
def mini():
    return make_workload("mini")


@pytest.fixture(scope="module")
def expected(mini):
    modules = [parse_module(t, n) for n, t in
               mini.sources + mini.lib_sources + mini.asm_sources]
    interp = Interpreter(modules, max_steps=100_000_000)
    interp.set_array("mainmod", "input", mini.inputs["mainmod::input"])
    interp.run("main")
    return interp.output


BUILD_CONFIGS = {
    "O2": {},
    "LTO": {"lto": True},
    "PGO": {"pgo": True},
    "PGO+LTO": {"pgo": True, "lto": True},
    "AutoFDO": {"autofdo": True},
    "HFSort": {"hfsort_link": "hfsort"},
    "HFSort+": {"hfsort_link": "hfsort+"},
    "lean-codegen": {"codegen": CodegenOptions(
        repz_ret=False, align_loops=False, naive_param_homing=False,
        tail_calls=False)},
}


@pytest.mark.parametrize("label", list(BUILD_CONFIGS))
def test_build_config_matches_reference(mini, expected, label):
    built = build_workload(mini, **BUILD_CONFIGS[label])
    assert measure(built).output == expected, label


@pytest.mark.parametrize("label", ["O2", "PGO+LTO", "HFSort"])
def test_bolt_on_config_matches_reference(mini, expected, label):
    built = build_workload(mini, **BUILD_CONFIGS[label])
    profile, _ = sample_profile(built)
    result = run_bolt(built, profile)
    assert measure(result.binary, inputs=mini.inputs).output == expected, label


def test_bolt_nolbr_matches_reference(mini, expected):
    built = build_workload(mini)
    profile, _ = sample_profile(
        built, sampling=SamplingConfig(period=251, use_lbr=False))
    result = run_bolt(built, profile)
    assert measure(result.binary, inputs=mini.inputs).output == expected


def test_bolt_inplace_matches_reference(mini, expected):
    built = build_workload(mini, emit_relocs=False)
    profile, _ = sample_profile(built)
    result = run_bolt(built, profile)
    assert not result.context.use_relocations
    assert measure(result.binary, inputs=mini.inputs).output == expected


def test_linker_icf_plus_bolt(mini, expected):
    built = build_workload(mini, linker_icf=True)
    profile, _ = sample_profile(built)
    result = run_bolt(built, profile)
    assert measure(result.binary, inputs=mini.inputs).output == expected


def test_every_input_mix_after_bolt(mini):
    built = build_workload(mini)
    profile, _ = sample_profile(built)
    result = run_bolt(built, profile)
    for label, inputs in mini.alt_inputs.items():
        base = measure(built.exe, inputs=inputs)
        opt = measure(result.binary, inputs=inputs)
        assert base.output == opt.output, label


def test_rebolt_chain_reaches_fixed_point(mini, expected):
    """BOLT output re-BOLTed (in-place, since relocations are stripped)
    keeps semantics and converges: a second round finds nothing more."""
    built = build_workload(mini)
    binary = built.exe
    cycles = []
    for _ in range(3):
        profile, _ = sample_profile(binary, inputs=mini.inputs)
        result = run_bolt(binary, profile)
        assert result.degraded is None
        binary = result.binary
        cpu = measure(binary, inputs=mini.inputs)
        assert cpu.output == expected
        cycles.append(cpu.counters.cycles)
    # Rounds 2 and 3 operate on already-optimized code: no regression.
    assert cycles[2] <= cycles[1] * 1.02
