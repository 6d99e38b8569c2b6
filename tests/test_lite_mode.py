"""Lite mode (``BoltOptions.lite``, llvm-bolt's ``-lite``).

A job whose profile provably describes the binary (an LBR profile with
the binary's build id, every intra-function record matching exactly)
processes only the functions the profile names and keeps the rest in
place.  Pinned here: the kept bodies' invariants on every preset, the
fallback to full mode for profiles that do not match exactly, and
re-BOLTing a lite output.
"""

import random

import pytest

from repro.belf import RelocType, write_binary
from repro.core import BoltOptions, optimize_binary
from repro.harness import (
    build_workload,
    collect_fleet_shards,
    measure,
    sample_profile,
)
from repro.isa import decode_stream
from repro.lang import parse_module
from repro.lang.interp import Interpreter
from repro.profiling import SamplingConfig, aggregate_shards, profile_binary
from repro.uarch import run_binary
from repro.workloads import PRESETS, generate_workload, make_workload

from tests.test_rewriter import _built

#: Main-loop iterations of the property test's programs: enough for a
#: profile that names the hot functions and misses the cold ones.
ITERATIONS = 40

_FIELD = {RelocType.PC32: 4, RelocType.ABS32: 4, RelocType.ABS64: 8}


def _spec(preset, seed):
    spec = PRESETS[preset].copy(iterations=ITERATIONS)
    if seed:
        spec = spec.copy(
            seed=random.Random(f"{seed}:{preset}").randrange(1, 1 << 30))
    return spec


def _oracle_output(workload):
    modules = [parse_module(text, name) for name, text in
               workload.sources + workload.lib_sources
               + workload.asm_sources]
    interp = Interpreter(modules, max_steps=80_000_000)
    interp.set_array("mainmod", "input", workload.inputs["mainmod::input"])
    interp.run("main")
    return interp.output


def _field_value(data, offset, rtype, place):
    """The address a relocation field holds (the inverse of
    ``apply_relocation``)."""
    if rtype == RelocType.PC32:
        return place + 4 + int.from_bytes(data[offset:offset + 4], "little",
                                          signed=True)
    return int.from_bytes(data[offset:offset + _FIELD[rtype]], "little")


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_lite_output_properties(preset, seed):
    workload = generate_workload(_spec(preset, seed))
    built = build_workload(workload, lto=(preset == "hhvm"))
    exe = built.exe
    profile, _ = sample_profile(built)
    result = optimize_binary(exe, profile, BoltOptions())
    assert result.degraded is None
    kept = result.context.kept_functions()
    assert kept, f"{preset}/{seed}: the profile named every function"

    # The output prints what the interpreter prints.
    out = result.binary
    assert (measure(out, inputs=workload.inputs).output
            == _oracle_output(workload))

    # No kept function was decoded.
    assert all(not func.blocks for func in kept)

    text = exe.get_section(".text")
    org = out.get_section(".bolt.org.text")
    assert (org.addr, org.size) == (text.addr, text.size)
    fields = {}
    for reloc in exe.relocations:
        if reloc.section == ".text":
            fields[reloc.offset] = reloc.type
    processed = [(func.address, func.address + func.size)
                 for func in result.context.functions.values()
                 if not func.is_kept]

    def into_old_body(address):
        return any(lo <= address < hi for lo, hi in processed)

    for func in kept:
        lo = func.address - text.addr
        hi = lo + func.size
        # Each kept body equals its input bytes outside relocation
        # fields.
        mask = bytearray(hi - lo)
        for offset, rtype in fields.items():
            if lo <= offset < hi:
                mask[offset - lo:offset - lo + _FIELD[rtype]] = (
                    b"\x01" * _FIELD[rtype])
        assert all(m or a == b for m, a, b in
                   zip(mask, text.data[lo:hi], org.data[lo:hi])), func.name
        # No reference from a kept body lands in a processed function's
        # old body: neither a branch or call target nor a relocation
        # field.
        for insn in decode_stream(bytes(org.data), lo, hi,
                                  base_address=func.address):
            if insn.target is not None:
                assert not into_old_body(insn.target), (func.name, insn)
        for offset, rtype in fields.items():
            if lo <= offset < hi:
                value = _field_value(org.data, offset, rtype,
                                     org.addr + offset)
                assert not into_old_body(value), (func.name, offset)


@pytest.fixture(scope="module")
def fleet_profiles():
    """Fleet-style shards of a ``mini`` release and of the previous
    release (drifted worker bodies), merged against the current one."""
    current = build_workload(make_workload("mini"))
    previous = build_workload(make_workload("mini", worker_body_scale=1.25))
    fresh = collect_fleet_shards(current, hosts=2)
    stale = collect_fleet_shards(previous, hosts=2)
    merge = lambda shards: aggregate_shards(shards, binary=current.exe).profile
    return current.exe, {"stale": merge(stale), "mixed": merge(fresh + stale)}


@pytest.mark.parametrize("label", ["stale", "mixed"])
def test_inexact_fleet_profile_falls_back_to_full_mode(fleet_profiles,
                                                       label):
    """A profile merged from stale shards misses executed code, so lite
    mode must not trust it: the output is byte-identical to
    ``lite=False``."""
    exe, profiles = fleet_profiles
    lite = optimize_binary(exe, profiles[label], BoltOptions())
    full = optimize_binary(exe, profiles[label], BoltOptions(lite=False))
    assert lite.kept_count == 0
    assert not lite.context.kept_functions()
    assert write_binary(lite.binary) == write_binary(full.binary)


def test_one_unmatched_record_falls_back_to_full_mode():
    """A record inside its function that lands on no CFG edge passes
    every check that needs no CFG; the match-quality check after the
    named functions' CFGs are built must still refuse lite mode."""
    built = build_workload(make_workload("mini"))
    profile, _ = sample_profile(built)
    exact = optimize_binary(built.exe, profile, BoltOptions())
    assert exact.kept_count
    name = min(profile.functions())
    profile.add_branch((name, 0), (name, 0))  # offset 0 is no branch
    lite = optimize_binary(built.exe, profile, BoltOptions())
    full = optimize_binary(built.exe, profile, BoltOptions(lite=False))
    assert lite.kept_count == 0
    assert lite.context.profile_quality < 1.0
    assert write_binary(lite.binary) == write_binary(full.binary)


def test_rebolting_a_lite_output_works():
    """A lite output (no relocations, processed code in a new ``.text``,
    kept code in ``.bolt.org.text``) re-BOLTs in place, lite again: the
    new profile matches the output exactly once nothing was split."""
    exe = _built()
    cpu = run_binary(exe)
    sampling = SamplingConfig(period=43)
    options = BoltOptions(split_functions=0)
    profile, _ = profile_binary(exe, sampling=sampling)
    once = optimize_binary(exe, profile, options)
    assert once.degraded is None and once.kept_count
    assert ".bolt.org.text" in once.binary.sections
    profile2, _ = profile_binary(once.binary, sampling=sampling)
    for validate in ("structural", "static"):
        twice = optimize_binary(once.binary, profile2,
                                options.copy(validate_output=validate))
        assert twice.degraded is None
        assert not twice.context.use_relocations
        assert twice.kept_count
        assert run_binary(twice.binary).output == cpu.output
        for func in twice.context.kept_functions():
            symbol = twice.binary.get_symbol(func.name)
            assert (symbol.value, symbol.size) == (func.address, func.size)
