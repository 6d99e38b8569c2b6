"""The repository's benchmark: the paper's data-center BOLT loop.

    python3 perfbench/run.py --workload rewrite|collect|fleet \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One process, one client, closed
loop: set up, one untimed warm-up round, timed rounds back to back for
``--seconds``, then the checks.  The last line of standard output is a
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.  The traced run also writes its spans
to ``.perfbench/spans-<workload>-<seed>.json``.  README.md in this
directory records why each workload exists and which end-to-end metric
each per-layer metric should move.
"""

import argparse
import gc
import json
import pathlib
import resource
import shutil
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"


def import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {src}/repro is missing")
    sys.path.insert(0, str(src))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != src / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {src}")


#: End-to-end metrics (tracing off) and their units; README.md defines
#: each one.
END_TO_END = {"setup_s": "s", "round_s": "s", "cycles_ratio": "ratio",
              "hot_text_bytes": "B", "sim_mips": "MIPS", "peak_rss_mb": "MB"}


def reset_peak_rss():
    """Restart the kernel's peak-RSS counter (Linux); False when the
    counter cannot be reset and the peak then includes set-up."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def tail_percentile(samples):
    """The highest of p50/p90/p99/p99.9 with at least ten samples
    beyond it, as (label, value), or None."""
    n = len(samples)
    best = None
    for p in (50, 90, 99, 99.9):
        if n * (1 - p / 100) >= 10:
            best = p
    if best is None:
        return None
    ordered = sorted(samples)
    return f"p{best:g}", ordered[min(n - 1, int(n * best / 100))]


def timed_setup(workload):
    """Run the workload's set-up; returns its wall time in seconds."""
    started = time.perf_counter()
    workload.setup()
    setup_s = time.perf_counter() - started
    # Set-up objects stay alive for the whole run; keep the cyclic
    # collector from rescanning them during every timed round.
    gc.collect()
    gc.freeze()
    return setup_s


def measure(workload, seconds, setup_s):
    """Warm up, run timed rounds for ``seconds``, then check; a traced
    run then times one more round untraced for the tracing overhead.

    Returns ``{"setup_s", "rounds", "peak_rss_mb", "overhead_s"}``.
    """
    from tracing import phase

    tracer = workload.tracer
    with phase(tracer, "warmup"):
        workload.warmup()
    rounds = timed_rounds(workload, seconds)
    peak = peak_rss_mb()
    with phase(tracer, "check"):
        workload.check()
    overhead = None
    if tracer.enabled:
        tracer.enabled = False
        with phase(tracer, "untraced"):
            untraced = timed_rounds(workload, 0)
        tracer.enabled = True
        overhead = statistics.median(rounds) - untraced[0]
    return {"setup_s": setup_s, "rounds": rounds, "peak_rss_mb": peak,
            "overhead_s": overhead}


def timed_rounds(workload, seconds):
    """Rounds back to back for ``seconds``; each round's untimed
    ``prepare()`` runs just before its clock starts."""
    from tracing import phase

    gc.collect()
    reset_peak_rss()
    rounds = []
    with phase(workload.tracer, "timed"):
        window = time.perf_counter()
        while True:
            workload.prepare()
            started = time.perf_counter()
            workload.round()
            rounds.append(time.perf_counter() - started)
            if time.perf_counter() - window >= seconds:
                return rounds


def end_to_end(workload, measured):
    runs = [r for r in workload.tracer.runs if r[2] == "block"]
    instructions = sum(r[3] for r in runs)
    run_seconds = sum(r[4] for r in runs)
    return {
        "setup_s": measured["setup_s"],
        "round_s": statistics.median(measured["rounds"]),
        "cycles_ratio": workload.cycles_ratio(),
        "hot_text_bytes": workload.hot_text_bytes(),
        "sim_mips": instructions / run_seconds / 1e6 if run_seconds else 0.0,
        "peak_rss_mb": measured["peak_rss_mb"],
    }


def per_layer(workload, measured):
    """Per-layer metrics of a traced run: ``(name, value, unit)``."""
    from programs import PHASE_NAMES
    from tracing import LAYERS

    tracer = workload.tracer
    counts = tracer.counts

    def mean_s(span):
        values = tracer.durations(span)
        return sum(values) / len(values) if values else 0.0

    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    traced_runs = [r for r in tracer.runs if r[0] != "untraced"]
    block = [r for r in traced_runs if r[2] == "block"]

    def mips(sampled):
        chosen = [r for r in block if r[1] == sampled]
        seconds = sum(r[4] for r in chosen)
        return sum(r[3] for r in chosen) / seconds / 1e6 if seconds else 0.0

    out = [
        ("uarch.run_s", mean_s("uarch.run_binary"), "s"),
        ("uarch.runs", len(traced_runs), "count"),
        ("uarch.instructions", sum(r[3] for r in traced_runs), "count"),
        ("uarch.sampled_mips", mips(True), "MIPS"),
        ("uarch.plain_mips", mips(False), "MIPS"),
        ("uarch.samples", counts.get("uarch.samples", 0), "count"),
        ("belf.read_s", mean_s("belf.read_binary"), "s"),
        ("belf.write_s", mean_s("belf.write_binary"), "s"),
        ("belf.bytes", counts.get("belf.bytes", 0), "B"),
        ("profiling.aggregate_samples_s",
         mean_s("profiling.aggregate_samples"), "s"),
        ("profiling.write_fdata_s", mean_s("profiling.write_fdata"), "s"),
        ("profiling.aggregate_shards_s",
         mean_s("profiling.aggregate_shards"), "s"),
        ("profiling.shards", counts.get("profiling.shards", 0), "count"),
        ("profiling.cache_hit_frac",
         ratio("profiling.cache_hits", "profiling.shards"), "ratio"),
        ("profiling.dropped_lines",
         counts.get("profiling.dropped_lines", 0), "count"),
        ("profiling.merged_branch_records",
         counts.get("profiling.merged_branch_records", 0), "count"),
        ("profiling.stale_shards",
         counts.get("profiling.stale_shards", 0), "count"),
        ("profiling.match_quality",
         ratio("profiling.match_quality_sum", "profiling.match_quality_n"),
         "ratio"),
        ("profiling.stale_cycles_ratio",
         getattr(workload, "stale_ratio", None) or 0.0, "ratio"),
        ("core.optimize_s", mean_s("core.optimize_binary"), "s"),
    ]
    for short in PHASE_NAMES.values():
        out.append((f"core.phase.{short}_s",
                    ratio(f"core.phase.{short}_s", "core.timed_jobs"), "s"))
    for name in PASS_NAMES:
        out.append((f"core.pass.{name}_s",
                    ratio(f"core.pass.{name}_s", "core.timed_jobs"), "s"))
    out += [
        ("core.dyno.taken_branches_delta",
         ratio("core.dyno.taken_branches_delta", "core.jobs"), "ratio"),
        ("core.functions_simple",
         ratio("core.functions_simple", "core.jobs"), "count"),
        ("core.functions_profiled",
         ratio("core.functions_profiled", "core.jobs"), "count"),
        ("core.reverted", ratio("core.reverted", "core.jobs"), "count"),
        ("core.first_attempt_frac",
         ratio("core.first_attempt", "core.jobs"), "ratio"),
        ("analysis.lint_gate_s", mean_s("analysis.lint_gate"), "s"),
        ("analysis.validate_gate_s", mean_s("analysis.validate_gate"), "s"),
        ("analysis.findings", ratio("analysis.findings", "core.jobs"),
         "count"),
        ("harness.build_s", mean_s("toolchain.build_workload"), "s"),
    ]
    self_times = tracer.self_times()
    setup = self_times.get("setup", {})
    out.append(("harness.setup_profile_s",
                sum(setup.get(layer, 0.0)
                    for layer in ("uarch", "profiling")), "s"))
    timed = self_times.get("timed", {})
    timed_total = sum(timed.values())
    for layer in LAYERS:
        out.append((f"self.{layer}_s",
                    sum(by_layer.get(layer, 0.0)
                        for by_layer in self_times.values()), "s"))
    for layer in LAYERS:
        out.append((f"timed.{layer}_frac",
                    timed.get(layer, 0.0) / timed_total if timed_total
                    else 0.0, "ratio"))
    out.append(("trace.overhead_s", measured["overhead_s"] or 0.0, "s"))
    return out


#: Passes of the default pipeline, in order (``core.pass.<name>_s``).
#: Fixed here rather than read from the pipeline so the metric set stays
#: the one BENCHMARK.json declares when a change adds or renames a pass.
PASS_NAMES = ("strip-rep-ret", "icf", "icp", "peepholes", "inline-small",
              "simplify-ro-loads", "icf-2", "plt", "reorder-bbs",
              "peepholes-2", "uce", "fixup-branches", "reorder-functions",
              "sctc", "uce-2", "fixup-branches-2", "frame-opts",
              "shrink-wrapping")


def report(workload, measured, trace):
    """Print the human-readable report, then the JSON result line."""
    rounds = measured["rounds"]
    print(f"workload {workload.name}  seed {workload.seed}  "
          f"rounds {len(rounds)}  trace {int(trace)}")
    tail = tail_percentile(rounds)
    print(f"  round_s samples={len(rounds)} median="
          f"{statistics.median(rounds):.4f} "
          + (f"{tail[0]}={tail[1]:.4f}" if tail
             else "(no percentile has 10 samples beyond it)"))
    failures = [(op, err) for op, err in workload.outcomes if err]
    attempted = len(workload.outcomes)
    print(f"  fail_frac {len(failures) / max(1, attempted):.4f} ratio "
          f"({len(failures)} of {attempted} operations)")
    for op, err in failures[:10]:
        print(f"  FAILED {op}: {err}")
    if trace:
        metrics = per_layer(workload, measured)
        self_times = workload.tracer.self_times()
        print("  self time by phase (s): " + "  ".join(
            f"{phase_name}[" + " ".join(
                f"{layer}={seconds:.3f}"
                for layer, seconds in sorted(by_layer.items())) + "]"
            for phase_name, by_layer in self_times.items()))
    else:
        values = end_to_end(workload, measured)
        metrics = [(name, values[name], unit)
                   for name, unit in END_TO_END.items()]
        print(f"  speedup_pct {100 * (1 / values['cycles_ratio'] - 1):.2f} %")
        stale = getattr(workload, "stale_ratio", None)
        if stale:
            print(f"  stale_speedup_pct {100 * (1 / stale - 1):.2f} %")
    for name, value, unit in metrics:
        print(f"  {name} {value} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit in metrics},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("rewrite", "collect", "fleet"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from tracing import Tracer
    from workloads import WORKLOADS

    workdir = OUT / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    tracer = Tracer(bool(args.trace))
    workload = WORKLOADS[args.workload](args.seed, tracer, workdir)
    try:
        setup_s = timed_setup(workload)
        measured = measure(workload, args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if args.trace:
            tracer.write(OUT / f"spans-{args.workload}-{args.seed}.json")
    report(workload, measured, bool(args.trace))


if __name__ == "__main__":
    main()
