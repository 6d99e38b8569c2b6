"""Workload generator + harness integration tests."""

import pytest

from repro.compiler import BuildOptions
from repro.core import BoltOptions
from repro.harness import (
    build_workload,
    hfsort_link_order,
    measure,
    run_bolt,
    sample_profile,
    speedup,
    counter_reductions,
    fetch_heatmap,
    hot_footprint,
    render_heatmap,
)
from repro.lang import parse_module
from repro.lang.interp import Interpreter
from repro.profiling import SamplingConfig
from repro.workloads import PRESETS, generate_workload, make_workload


def test_generation_deterministic():
    wl1 = make_workload("mini")
    wl2 = make_workload("mini")
    assert wl1.sources == wl2.sources
    assert wl1.inputs == wl2.inputs
    wl3 = make_workload("mini", seed=99)
    assert wl3.sources != wl1.sources


def test_all_presets_generate_and_parse():
    for name, spec in PRESETS.items():
        workload = generate_workload(spec)
        assert workload.sources
        for mod_name, text in (workload.sources + workload.lib_sources
                               + workload.asm_sources):
            parse_module(text, mod_name)  # must not raise


def test_alt_inputs_differ():
    wl = make_workload("mini")
    assert set(wl.alt_inputs)  # at least one alternative mix
    for label, inputs in wl.alt_inputs.items():
        assert inputs != wl.inputs


@pytest.fixture(scope="module")
def mini():
    return make_workload("mini")


@pytest.fixture(scope="module")
def mini_built(mini):
    return build_workload(mini)


def test_workload_matches_interpreter(mini, mini_built):
    modules = [parse_module(t, n) for n, t in
               mini.sources + mini.lib_sources + mini.asm_sources]
    interp = Interpreter(modules, max_steps=50_000_000)
    interp.set_array("mainmod", "input", mini.inputs["mainmod::input"])
    interp.run("main")
    cpu = measure(mini_built)
    assert cpu.output == interp.output


def test_build_labels(mini):
    assert build_workload(mini).label == "O2"
    assert build_workload(mini, lto=True).label == "LTO"


def test_pgo_build_flow(mini):
    built = build_workload(mini, pgo=True)
    assert built.label == "PGO"
    cpu = measure(built)
    baseline = measure(build_workload(mini))
    assert cpu.output == baseline.output
    # PGO layout should not be slower than the plain build.
    assert cpu.counters.cycles <= baseline.counters.cycles * 1.05


def test_autofdo_build_flow(mini):
    built = build_workload(mini, autofdo=True)
    cpu = measure(built)
    assert cpu.output == measure(build_workload(mini)).output


def test_hfsort_link_flow(mini):
    built = build_workload(mini, hfsort_link="hfsort")
    cpu = measure(built)
    assert cpu.output == measure(build_workload(mini)).output
    # Hot functions moved to the front of .text.
    exe = built.exe
    main_sym = exe.get_symbol("main")
    assert main_sym is not None


def test_bolt_on_workload(mini, mini_built):
    base = measure(mini_built)
    profile, _ = sample_profile(mini_built)
    result = run_bolt(mini_built, profile)
    opt = measure(result.binary, inputs=mini.inputs)
    assert opt.output == base.output
    gain = speedup(base.counters.cycles, opt.counters.cycles)
    assert gain > 0


def test_bolt_alt_inputs_still_correct(mini, mini_built):
    """Optimize with the default training input, run on other mixes."""
    profile, _ = sample_profile(mini_built)
    result = run_bolt(mini_built, profile)
    for label, inputs in mini.alt_inputs.items():
        base = measure(mini_built.exe, inputs=inputs)
        opt = measure(result.binary, inputs=inputs)
        assert opt.output == base.output, label


def test_counter_reductions_shape(mini, mini_built):
    base = measure(mini_built)
    profile, _ = sample_profile(mini_built)
    opt = measure(run_bolt(mini_built, profile).binary, inputs=mini.inputs)
    reductions = counter_reductions(base.counters, opt.counters)
    assert set(reductions) == {"Branch", "D-Cache", "I-Cache", "I-TLB",
                               "D-TLB", "LLC"}


def test_heatmap(mini, mini_built):
    cpu = measure(mini_built, fetch_heat=True)
    matrix = fetch_heatmap(cpu, grid=16)
    assert len(matrix) == 16 and all(len(row) == 16 for row in matrix)
    assert max(map(max, matrix)) > 0
    footprint = hot_footprint(cpu)
    assert 0 < footprint <= mini_built.exe.text_size() + 4096
    art = render_heatmap(matrix)
    assert len(art.splitlines()) == 16


def test_heatmap_shrinks_after_bolt(mini, mini_built):
    """Figure 9: the footprint of the hot fetches shrinks after BOLT
    (NOP stripping + packing hot blocks together)."""
    base = measure(mini_built, fetch_heat=True)
    profile, _ = sample_profile(mini_built)
    result = run_bolt(mini_built, profile)
    opt = measure(result.binary, inputs=mini.inputs, fetch_heat=True)
    for coverage in (0.90, 0.99, 1.0):
        assert (hot_footprint(opt, coverage)
                < hot_footprint(base, coverage)), coverage


def test_asm_module_has_no_frame_info(mini_built):
    records = mini_built.exe.frame_records
    asm_funcs = [s for s in mini_built.exe.functions()
                 if s.name.startswith("asm_leaf")]
    if asm_funcs:  # mini has no asm module; hhvm does
        assert all(s.link_name() not in records for s in asm_funcs)


def test_hhvm_preset_has_asm_and_itails():
    wl = make_workload("hhvm", iterations=40)
    built = build_workload(wl)
    records = built.exe.frame_records
    asm_funcs = [s for s in built.exe.functions()
                 if s.name.startswith("asm_leaf")]
    assert asm_funcs
    assert all(s.link_name() not in records for s in asm_funcs)
    cpu = measure(built)
    assert cpu.output  # runs to completion
