"""Build/measure/profile/BOLT flows."""

from repro.codegen import CodegenOptions
from repro.compiler import (
    BuildOptions,
    SourceProfile,
    collect_edge_profile,
    compile_program,
)
from repro.core import BoltOptions, optimize_binary
from repro.core.hfsort import CallGraph, hfsort, hfsort_plus
from repro.linker import link
from repro.profiling import (
    AddressMapper,
    SamplingConfig,
    aggregate_shards,
    profile_binary,
    write_fdata,
)
from repro.uarch import run_binary

DEFAULT_MAX_INSTRUCTIONS = 80_000_000


class BuiltBinary:
    """An executable plus how it was built."""

    def __init__(self, exe, label, workload, compile_result=None):
        self.exe = exe
        self.label = label
        self.workload = workload
        self.compile_result = compile_result

    def __repr__(self):
        return f"<BuiltBinary {self.label} text={self.exe.text_size()}B>"


def _compile_all(workload, options):
    """Compile app + asm modules; returns (objects, lib_objects, result)."""
    result = compile_program(workload.sources, options)
    objects = list(result.objects)
    if workload.asm_sources:
        asm_options = options.copy(
            codegen=options.codegen.copy(frame_info=False),
            instrument=False, profile=None)
        asm_result = compile_program(workload.asm_sources, asm_options)
        objects.extend(asm_result.objects)
    lib_objects = []
    if workload.lib_sources:
        lib_result = compile_program(workload.lib_sources, BuildOptions())
        lib_objects = lib_result.objects
    return objects, lib_objects, result


def build_workload(
    workload,
    label=None,
    lto=False,
    pgo=False,
    autofdo=False,
    hfsort_link=None,        # None | "hfsort" | "hfsort+"
    emit_relocs=True,
    linker_icf=False,
    codegen=None,
    train_inputs=None,
    sampling=None,
    max_instructions=DEFAULT_MAX_INSTRUCTIONS,
):
    """Build a workload in one of the paper's configurations.

    PGO: builds an instrumented binary, trains it on ``train_inputs``
    (defaults to the workload's inputs), and rebuilds with the edge
    profile.  AutoFDO: trains a *baseline* build under the sampler and
    maps samples back to source lines through the debug info.
    HFSort at link time additionally samples the built binary and
    relinks with the function order (the paper's section 6.1 baseline).
    """
    train_inputs = train_inputs or workload.inputs
    codegen = codegen or CodegenOptions()
    base_options = BuildOptions(lto=lto, codegen=codegen)

    profile = None
    if pgo:
        instr_options = BuildOptions(codegen=codegen, instrument=True)
        objects, lib_objects, result = _compile_all(workload, instr_options)
        exe = link(objects, libs=lib_objects, name="train")
        cpu = run_binary(exe, inputs=train_inputs,
                         max_instructions=max_instructions)
        profile = collect_edge_profile(cpu.machine, result.counter_keys)
    elif autofdo:
        objects, lib_objects, _ = _compile_all(workload, base_options)
        exe = link(objects, libs=lib_objects, name="train")
        bin_profile, cpu = _sample(exe, train_inputs, sampling,
                                   max_instructions)
        profile = _map_to_source(exe, bin_profile)

    options = base_options.copy(profile=profile)
    objects, lib_objects, result = _compile_all(workload, options)
    order = None
    if hfsort_link:
        exe0 = link(objects, libs=lib_objects, name=workload.spec.name,
                    emit_relocs=emit_relocs, icf=linker_icf)
        bin_profile, _ = _sample(exe0, train_inputs, sampling,
                                 max_instructions)
        order = hfsort_link_order(exe0, bin_profile, flavor=hfsort_link)
    exe = link(objects, libs=lib_objects, name=workload.spec.name,
               emit_relocs=emit_relocs, function_order=order,
               icf=linker_icf)
    return BuiltBinary(exe, label or _label(lto, pgo, autofdo, hfsort_link),
                       workload, result)


def _label(lto, pgo, autofdo, hfsort_link):
    parts = []
    if pgo:
        parts.append("PGO")
    if autofdo:
        parts.append("AutoFDO")
    if lto:
        parts.append("LTO")
    if hfsort_link:
        parts.append("HFSort")
    return "+".join(parts) or "O2"


def measure(built_or_exe, inputs=None, config=None,
            max_instructions=DEFAULT_MAX_INSTRUCTIONS, fetch_heat=False):
    """Run and return the CPU (counters, cycles, output)."""
    exe = built_or_exe.exe if isinstance(built_or_exe, BuiltBinary) else built_or_exe
    if inputs is None and isinstance(built_or_exe, BuiltBinary):
        inputs = built_or_exe.workload.inputs
    return run_binary(exe, inputs=inputs, config=config,
                      max_instructions=max_instructions,
                      fetch_heat=fetch_heat)


def _sample(exe, inputs, sampling, max_instructions):
    return profile_binary(exe, inputs=inputs,
                          sampling=sampling or SamplingConfig(period=251),
                          max_instructions=max_instructions)


def sample_profile(built_or_exe, inputs=None, sampling=None,
                   max_instructions=DEFAULT_MAX_INSTRUCTIONS):
    """Collect a profile (the perf + perf2bolt step).

    Returns ``profile_binary``'s ``(BinaryProfile, cpu)`` pair: the
    profile, and the sampled run's CPU with its true counters.
    """
    exe = built_or_exe.exe if isinstance(built_or_exe, BuiltBinary) else built_or_exe
    if inputs is None and isinstance(built_or_exe, BuiltBinary):
        inputs = built_or_exe.workload.inputs
    return _sample(exe, inputs, sampling, max_instructions)


def _map_to_source(exe, bin_profile):
    """AutoFDO: binary-level samples -> (file, line) counts via debug
    info — the lossy mapping of paper section 2.2."""
    line_counts = {}
    mapper = AddressMapper(exe)
    starts = {sym.link_name(): sym.value for sym in mapper.funcs}
    if exe.line_table is None:
        return SourceProfile({})

    def bump(func, offset, count):
        addr = starts.get(func)
        if addr is None:
            return
        loc = exe.line_table.lookup(addr + offset)
        if loc is not None:
            line_counts[loc] = line_counts.get(loc, 0) + count

    for (f, t), (count, _) in bin_profile.branches.items():
        bump(f[0], f[1], count)
        bump(t[0], t[1], count)
    for (func, offset), count in bin_profile.ip_samples.items():
        bump(func, offset, count)
    return SourceProfile(line_counts)


def hfsort_link_order(exe, bin_profile, flavor="hfsort"):
    """Function order for the linker from a sampled profile."""
    graph = CallGraph()
    for sym in exe.functions():
        graph.add_function(sym.link_name(), 0, max(1, sym.size))
    for (func, _), count in bin_profile.ip_samples.items():
        if func in graph.weights:
            graph.weights[func] += count
    for (caller, callee), weight in bin_profile.calls_between().items():
        if caller in graph.weights and callee in graph.weights:
            graph.add_arc(caller, callee, weight)
    if flavor in ("hfsort+", "hfsort_plus"):
        return hfsort_plus(graph)
    return hfsort(graph)


def run_bolt(built_or_exe, profile, options=None, smoke_inputs=None):
    """Apply BOLT; returns the RewriteResult.

    When ``smoke_inputs`` is given (or the workload's inputs are known)
    and the options request execution validation, the rewritten binary
    is smoke-tested for output equivalence before being returned.
    """
    exe = built_or_exe.exe if isinstance(built_or_exe, BuiltBinary) else built_or_exe
    options = options or BoltOptions()
    if options.validate_output == "execute" and options.validate_inputs is None:
        if smoke_inputs is None and isinstance(built_or_exe, BuiltBinary):
            smoke_inputs = built_or_exe.workload.inputs
        options = options.copy(validate_inputs=smoke_inputs)
    return optimize_binary(exe, profile, options)


def bolt_processing_time(built_or_exe, profile, options=None):
    """Apply BOLT with the timing layer on; returns (result, timing).

    The helper behind the processing-time benchmarks (EXPERIMENTS.md
    "processing time", ``BENCH_pr3.json``): the wall number comes from
    ``TimingReport.total_seconds`` so it matches what ``--time-rewrite``
    prints.  ``timing`` is None when every rewrite attempt degraded to
    passthrough.
    """
    options = (options or BoltOptions()).copy(
        time_opts=True, time_rewrite=True)
    result = run_bolt(built_or_exe, profile, options=options)
    return result, result.timing


#: Per-host sampling periods for the fleet simulation: coprime periods
#: make each host sample a different phase of the same workload, like
#: unsynchronized perf sessions across a tier.
_HOST_PERIODS = (251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311, 313)


def collect_fleet_shards(built_or_exe, hosts=4, sampling=None,
                         vary_inputs=True,
                         max_instructions=DEFAULT_MAX_INSTRUCTIONS):
    """Simulate a fleet: N hosts each sample the same service.

    Every host runs the workload under its own sampling period (and,
    when the workload defines alternative input mixes, its own input
    mix) and writes its LBR collection out as an ``.fdata`` shard —
    the per-host half of the paper's data-center flow (section 2).

    Returns ``[(host name, fdata text)]``, ready for
    :func:`repro.profiling.aggregate_shards`.
    """
    exe = (built_or_exe.exe if isinstance(built_or_exe, BuiltBinary)
           else built_or_exe)
    base = sampling or SamplingConfig(period=251)
    input_pool = [None]
    if isinstance(built_or_exe, BuiltBinary):
        workload = built_or_exe.workload
        input_pool = [workload.inputs]
        if vary_inputs:
            input_pool += [mix for _, mix in sorted(workload.alt_inputs.items())]
    shards = []
    for host in range(hosts):
        config = SamplingConfig(
            event=base.event,
            period=_HOST_PERIODS[host % len(_HOST_PERIODS)],
            skid=base.skid, use_lbr=base.use_lbr)
        inputs = input_pool[host % len(input_pool)]
        profile, _ = _sample(exe, inputs, config, max_instructions)
        shards.append((f"host{host:02d}", write_fdata(profile)))
    return shards


def bolt_with_fleet_profile(built_or_exe, hosts=4, options=None,
                            cache_dir=None, sampling=None,
                            vary_inputs=True,
                            max_instructions=DEFAULT_MAX_INSTRUCTIONS):
    """The fleet flow end to end: sample N hosts, aggregate the shards
    (merge-fdata), and feed the merged profile into the rewrite.

    Returns ``(RewriteResult, AggregationResult)`` — the second carries
    the per-shard quality report the CLI renders with ``--json``.
    """
    exe = (built_or_exe.exe if isinstance(built_or_exe, BuiltBinary)
           else built_or_exe)
    shards = collect_fleet_shards(built_or_exe, hosts=hosts,
                                  sampling=sampling,
                                  vary_inputs=vary_inputs,
                                  max_instructions=max_instructions)
    aggregation = aggregate_shards(shards, binary=exe, cache_dir=cache_dir)
    result = run_bolt(built_or_exe, aggregation.profile, options=options)
    return result, aggregation


def speedup(baseline_cycles, optimized_cycles):
    """Relative speedup, as the paper reports it (e.g. 0.08 = 8%)."""
    return baseline_cycles / optimized_cycles - 1.0
