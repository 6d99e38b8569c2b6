"""Seeded programs and the traced calls every workload is made of.

Each helper wraps one call into a layer's public API in a span, so the
workloads read as the paper's loop: build, run under the sampler
(perf), aggregate samples (perf2bolt), merge shards (merge-fdata),
rewrite (llvm-bolt), run the result.
"""

import random
import time

from repro.belf import read_binary, write_binary
from repro.core import BoltOptions, optimize_binary
from repro.harness import build_workload
from repro.lang import parse_module
from repro.lang.interp import Interpreter
from repro.profiling import (
    AddressMapper,
    Sampler,
    SamplingConfig,
    aggregate_samples,
    aggregate_shards,
    write_fdata,
)
from repro.uarch import run_binary
from repro.workloads import PRESETS, generate_workload

#: ``--seed`` value that reproduces the presets unchanged.
DEFAULT_SEED = 0

#: Coprime sampling periods a seed picks a host's period from; the
#: default seed uses the first, the harness's own default.
PERIODS = (251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311, 313)

#: Build configuration per preset: HHVM is the paper's LTO + link-time
#: HFSort baseline (section 6.1); the others are plain O2 builds.
BUILD = {"hhvm": {"lto": True, "hfsort_link": "hfsort"}}

#: Main-loop iterations of the calibration probe (one pass over the
#: 64-entry input array).
PROBE_ITERATIONS = 64

MAX_INSTRUCTIONS = 80_000_000
MAX_STEPS = 200_000_000


def derive(seed, *labels):
    """A deterministic 30-bit value from the run seed and labels."""
    key = ":".join(str(part) for part in (seed,) + labels)
    return random.Random(key).randrange(1, 1 << 30)


def host_period(seed, preset):
    if seed == DEFAULT_SEED:
        return PERIODS[0]
    return PERIODS[derive(seed, preset, "period") % len(PERIODS)]


def interpret(workload):
    """Run a workload's BC sources on its inputs in the reference
    interpreter."""
    modules = [parse_module(text, name) for name, text in
               workload.sources + workload.lib_sources + workload.asm_sources]
    interp = Interpreter(modules, max_steps=MAX_STEPS)
    for link_name, values in workload.inputs.items():
        module, array = link_name.split("::")
        interp.set_array(module, array, values)
    interp.run("main")
    return interp


def seeded_spec(preset, seed, **overrides):
    """The preset's spec with a seed-derived generator seed.

    Seeds other than the default also rescale the main-loop iteration
    count so the program calls as many functions per run as the preset
    does: generated programs differ several-fold in work per iteration,
    and a workload's size should not depend on its seed.
    """
    base = PRESETS[preset].copy(**overrides)
    if seed == DEFAULT_SEED:
        return base
    spec = base.copy(seed=derive(seed, preset))

    def probe_steps(s):
        probe = generate_workload(s.copy(iterations=PROBE_ITERATIONS))
        return interpret(probe).steps

    scale = probe_steps(base) / probe_steps(spec)
    return spec.copy(iterations=max(PROBE_ITERATIONS,
                                    round(base.iterations * scale)))


class Program:
    """One built binary plus everything the workloads check it against."""

    def __init__(self, preset, built, period):
        self.name = preset
        self.built = built
        self.workload = built.workload
        self.inputs = built.workload.inputs
        self.period = period
        self.data = None        # serialized input binary
        self.oracle = None      # expected output lines (interpreter)
        self.profile = None     # merged fresh profile
        self.base_cycles = None


def build_program(preset, seed, tracer, **overrides):
    """Generate and build one program, and compute its oracle output."""
    spec = seeded_spec(preset, seed, **overrides)
    with tracer.span("toolchain.build_workload"):
        built = build_workload(generate_workload(spec),
                               **BUILD.get(preset, {}))
    program = Program(preset, built, host_period(seed, preset))
    with tracer.span("belf.write_binary"):
        program.data = write_binary(built.exe)
    with tracer.span("toolchain.interpret"):
        program.oracle = interpret(program.workload).output
    return program


def host_run(tracer, binary, inputs, period, engine=None):
    """One sampled host: run under the LBR sampler, aggregate the samples
    (perf2bolt) and write the ``.fdata`` shard.

    Returns ``(cpu, sampler, profile, fdata text)``.
    """
    sampler = Sampler(SamplingConfig(period=period))
    started = time.perf_counter()
    with tracer.span("uarch.run_binary"):
        cpu = run_binary(binary, inputs=inputs, sampler=sampler,
                         max_instructions=MAX_INSTRUCTIONS, engine=engine)
    record_run(tracer, cpu, started, sampled=True, engine=engine)
    tracer.count("uarch.samples", len(sampler))
    with tracer.span("profiling.aggregate_samples"):
        profile = aggregate_samples(sampler.samples, AddressMapper(binary),
                                    build_id=binary.content_hash())
    with tracer.span("profiling.write_fdata"):
        text = write_fdata(profile)
    return cpu, sampler, profile, text


def plain_run(tracer, binary, inputs):
    started = time.perf_counter()
    with tracer.span("uarch.run_binary"):
        cpu = run_binary(binary, inputs=inputs,
                         max_instructions=MAX_INSTRUCTIONS)
    record_run(tracer, cpu, started, sampled=False)
    return cpu


def record_run(tracer, cpu, started, sampled, engine=None):
    tracer.runs.append((tracer.phase, sampled, engine or "block",
                        cpu.counters.instructions,
                        time.perf_counter() - started))


def merge(tracer, shards, binary, cache_dir=None):
    """merge-fdata: aggregate ``.fdata`` shards against ``binary``."""
    with tracer.span("profiling.aggregate_shards"):
        result = aggregate_shards(shards, binary=binary, cache_dir=cache_dir)
    if tracer.enabled:
        report = result.report()
        tracer.count("profiling.shards", len(result.shards))
        tracer.count("profiling.cache_hits", report["cache_hits"])
        tracer.count("profiling.dropped_lines", report["dropped_lines"])
        tracer.count("profiling.merged_branch_records",
                     report["merged"]["branch_records"])
        stale = [s for s in result.shards if s.stale]
        tracer.count("profiling.stale_shards", len(stale))
        for shard in stale:
            quality = (shard.match or {}).get("quality")
            if quality is not None:
                tracer.count("profiling.match_quality_sum", quality)
                tracer.count("profiling.match_quality_n")
    return result


def profile_program(tracer, program):
    """Set-up profile of a program: one sampled host, its shard merged
    (merge-fdata over one host) into the profile BOLT consumes."""
    with tracer.span("belf.read_binary"):
        binary = read_binary(program.data)
    cpu, _, _, text = host_run(tracer, binary, program.inputs, program.period)
    program.base_cycles = cpu.counters.cycles
    program.profile = merge(tracer, [(f"{program.name}-host", text)],
                            binary).profile
    return cpu


def bolt_job(tracer, data, profile):
    """One BOLT job: read the binary, rewrite it with the default
    ``BoltOptions`` (lint + structural validate gates, one thread; the
    traced run also turns on the rewrite's own timers), write the result.

    Returns ``(RewriteResult, output bytes)``.
    """
    options = BoltOptions(time_opts=tracer.enabled,
                          time_rewrite=tracer.enabled)
    with tracer.span("belf.read_binary"):
        binary = read_binary(data)
    with tracer.span("core.optimize_binary"):
        result = optimize_binary(binary, profile, options)
        tracer.gate_spans(result.timing)
    with tracer.span("belf.write_binary"):
        out = write_binary(result.binary)
    count_rewrite(tracer, result, len(data) + len(out))
    return result, out


PHASE_NAMES = {"discover functions": "discover", "build CFGs": "build_cfgs",
               "attach profile": "attach_profile",
               "optimization passes": "passes", "emit and link": "emit_link"}


def count_rewrite(tracer, result, nbytes):
    if not tracer.enabled:
        return
    tracer.count("belf.bytes", nbytes)
    tracer.count("core.jobs")
    tracer.count("core.first_attempt", result.degraded is None)
    functions = list(result.context.functions.values())
    simple = [f for f in functions if f.is_simple]
    tracer.count("core.functions_simple", len(simple))
    tracer.count("core.functions_profiled",
                 sum(1 for f in simple if f.has_profile))
    tracer.count("core.reverted", len(result.reverted))
    tracer.count("analysis.findings",
                 sum(1 for d in result.diagnostics
                     if str(d.component).startswith("lint:")))
    if result.dyno_before is not None and result.dyno_after is not None:
        delta = result.dyno_after.delta_vs(result.dyno_before)
        tracer.count("core.dyno.taken_branches_delta",
                     delta.get("taken_branches") or 0.0)
    if result.timing is not None:
        tracer.count("core.timed_jobs")
        for phase in result.timing.phases:
            short = PHASE_NAMES.get(phase.name)
            if short is not None:
                tracer.count(f"core.phase.{short}_s", phase.seconds)
        for item in result.timing.passes:
            tracer.count(f"core.pass.{item.name}_s", item.seconds)
