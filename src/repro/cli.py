"""Command-line front end: a miniature bcc/perf/llvm-bolt toolbox.

    python -m repro.cli build  -o app.belf src1.bc src2.bc [--lto] [--pgo]
    python -m repro.cli run    app.belf
    python -m repro.cli profile app.belf -o app.fdata [--no-lbr]
    python -m repro.cli merge-fdata host*.fdata -o app.fdata [-b app.belf]
    python -m repro.cli bolt   app.belf -p app.fdata -o app.bolt.belf
    python -m repro.cli lint   app.belf          # static lint (BL rules)
    python -m repro.cli stat   app.belf          # perf-stat analog
    python -m repro.cli dump   app.belf -f main  # Figure 4-style dump

Every subcommand operates on real serialized BELF/fdata files, so the
whole pipeline can be driven file-by-file like the real toolchain.
"""

import argparse
import pathlib
import sys

from repro.belf import read_binary, write_binary
from repro.compiler import BuildOptions, build_executable
from repro.core import BinaryContext, BoltOptions, optimize_binary
from repro.core.diagnostics import Severity, StrictModeError
from repro.core.cfg_builder import build_all_functions
from repro.core.discovery import discover_functions
from repro.core.profile_attach import attach_profile
from repro.core.reports import dump_function
from repro.profiling import (
    SamplingConfig,
    parse_fdata,
    profile_binary,
    write_fdata,
)
from repro.uarch import run_binary


def _load_sources(paths):
    sources = []
    for path in paths:
        p = pathlib.Path(path)
        sources.append((p.stem, p.read_text()))
    return sources


def cmd_build(args):
    options = BuildOptions(opt_level=args.opt_level, lto=args.lto)
    sources = _load_sources(args.sources)
    if args.pgo:
        from repro.compiler import collect_edge_profile, compile_program
        from repro.linker import link

        result = compile_program(sources, BuildOptions(instrument=True))
        train = link(result.objects, name="train")
        cpu = run_binary(train)
        profile = collect_edge_profile(cpu.machine, result.counter_keys)
        options = options.copy(profile=profile)
    exe, _ = build_executable(sources, options,
                              emit_relocs=args.emit_relocs)
    pathlib.Path(args.output).write_bytes(write_binary(exe))
    print(f"wrote {args.output} ({exe.text_size()} bytes of text, "
          f"{len(exe.functions())} functions)")


def cmd_run(args):
    exe = read_binary(pathlib.Path(args.binary).read_bytes())
    cpu = run_binary(exe, max_instructions=args.max_instructions)
    for value in cpu.output:
        print(value)
    print(f"exit code: {cpu.exit_code}", file=sys.stderr)
    return cpu.exit_code


def cmd_profile(args):
    exe = read_binary(pathlib.Path(args.binary).read_bytes())
    sampling = SamplingConfig(event=args.event, period=args.period,
                              use_lbr=not args.no_lbr)
    profile, cpu = profile_binary(exe, sampling=sampling,
                                  max_instructions=args.max_instructions)
    pathlib.Path(args.output).write_text(write_fdata(profile))
    print(f"wrote {args.output}: {len(profile.branches)} branch records, "
          f"{len(profile.ip_samples)} sample sites "
          f"({cpu.counters.instructions} instructions executed)")


def cmd_bolt(args):
    exe = read_binary(pathlib.Path(args.binary).read_bytes())
    profile = None
    if args.profile:
        profile = parse_fdata(pathlib.Path(args.profile).read_text())
    options = BoltOptions(
        reorder_blocks=args.reorder_blocks,
        reorder_functions=args.reorder_functions,
        split_functions=args.split_functions,
        strict=args.strict,
        validate_output=args.validate,
        lint="none" if args.no_lint else "post",
        lite=args.lite,
        lint_suppress=tuple(args.suppress or ()),
        time_opts=args.time_opts,
        time_rewrite=args.time_rewrite,
    )
    result = optimize_binary(exe, profile, options)
    pathlib.Path(args.output).write_bytes(write_binary(result.binary))
    print(f"wrote {args.output}: hot text {result.hot_text_size}B "
          f"(+{result.cold_text_size}B cold, +{result.kept_text_size}B "
          f"in place), was {exe.text_size()}B")
    if result.timing:
        from repro.core.reports import format_timing_table
        print(format_timing_table(result.timing))
        if args.time_report:
            pathlib.Path(args.time_report).write_text(
                result.timing.to_json() + "\n")
            print(f"wrote {args.time_report}")
    for line in result.diagnostics.render(Severity.WARNING):
        print(line, file=sys.stderr)
    if result.degraded:
        print(f"BOLT-WARNING: output degraded to {result.degraded} mode",
              file=sys.stderr)
    if args.verbose:
        # The timing table, warnings and degraded line are printed above.
        print("\n".join(result.info_lines()))
    if args.dyno_stats and result.dyno_before is not None:
        print("dyno-stats (vs input):")
        deltas = result.dyno_after.delta_vs(result.dyno_before)
        for field, delta in deltas.items():
            if delta is not None:
                print(f"  {field:34s} {delta * 100:+7.1f}%")
    if not args.verbose:  # -v already includes per-pass lines
        for name, stats in result.pass_stats.items():
            interesting = {k: v for k, v in stats.items() if v}
            if interesting:
                print(f"  pass {name}: {interesting}")


def cmd_merge_fdata(args):
    """Aggregate fleet profile shards into one .fdata (merge-fdata)."""
    from repro.profiling import aggregate_shards, load_shard_files
    from repro.core.reports import format_aggregation_report

    shards = load_shard_files(args.inputs)
    binary = None
    if args.binary:
        binary = read_binary(pathlib.Path(args.binary).read_bytes())
    aggregation = aggregate_shards(
        shards,
        weights=args.weight or None,
        binary=binary,
        cache_dir=args.cache_dir,
        stale_downweight=args.stale_downweight,
        min_match_quality=args.min_match_quality,
    )
    pathlib.Path(args.output).write_text(write_fdata(aggregation.profile))
    if args.json:
        print(aggregation.to_json())
    else:
        print(format_aggregation_report(aggregation.report()))
        print(f"wrote {args.output}")
    for line in aggregation.diagnostics.render(Severity.WARNING):
        print(line, file=sys.stderr)
    return 1 if aggregation.diagnostics.errors else 0


def cmd_lint(args):
    """Static lint of a binary; exits non-zero on any BOLT-ERROR finding."""
    from repro.analysis import lint_binary

    exe = read_binary(pathlib.Path(args.binary).read_bytes())
    report = lint_binary(exe, suppress=args.suppress or ())
    if args.json:
        print(report.to_json())
    else:
        for line in report.render_lines():
            print(line)
        suppressed = (f", {report.suppressed} suppressed"
                      if report.suppressed else "")
        print(f"BOLT-INFO: lint: {len(exe.functions())} function "
              f"symbol(s), {len(report.errors)} error(s), "
              f"{len(report.warnings)} warning(s){suppressed}")
    return 1 if report.errors else 0


def cmd_stat(args):
    exe = read_binary(pathlib.Path(args.binary).read_bytes())
    cpu = run_binary(exe, max_instructions=args.max_instructions)
    c = cpu.counters
    print(f"{'instructions':24s} {c.instructions:>14,}")
    print(f"{'cycles':24s} {c.cycles:>14,}")
    print(f"{'IPC':24s} {c.instructions / max(1, c.cycles):>14.3f}")
    for field in ("taken_branches", "branch_misses", "l1i_misses",
                  "itlb_misses", "l1d_misses", "dtlb_misses", "llc_misses"):
        print(f"{field:24s} {getattr(c, field):>14,}")


def cmd_objdump(args):
    """Linear disassembly listing (objdump -d analog)."""
    from repro.isa import decode_stream

    exe = read_binary(pathlib.Path(args.binary).read_bytes())
    for section in exe.sections.values():
        if not section.is_exec:
            continue
        print(f"\nDisassembly of section {section.name}:")
        funcs = [s for s in exe.function_symbols()
                 if s.section == section.name]
        for sym in funcs:
            print(f"\n{sym.value:08x} <{sym.link_name()}>:")
            start = sym.value - section.addr
            try:
                insns = decode_stream(section.data, start, start + sym.size,
                                      base_address=sym.value)
            except Exception as exc:  # undecodable bytes: show and move on
                print(f"  ...undecodable: {exc}")
                continue
            for insn in insns:
                print(f"  {insn.address:08x}:\t{insn}")


def cmd_dump(args):
    exe = read_binary(pathlib.Path(args.binary).read_bytes())
    context = BinaryContext(exe, BoltOptions())
    discover_functions(context)
    build_all_functions(context)
    if args.profile:
        profile = parse_fdata(pathlib.Path(args.profile).read_text())
        attach_profile(context, profile)
    names = [args.function] if args.function else sorted(context.functions)
    for name in names:
        func = context.functions.get(name)
        if func is None:
            print(f"no function named {name!r}", file=sys.stderr)
            return 1
        print(dump_function(func))
        print()


def make_parser():
    parser = argparse.ArgumentParser(
        prog="repro", description="BOLT-reproduction toolchain")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="compile BC sources to an executable")
    p.add_argument("sources", nargs="+")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("-O", "--opt-level", type=int, default=2)
    p.add_argument("--lto", action="store_true")
    p.add_argument("--pgo", action="store_true",
                   help="instrumented train-then-rebuild")
    p.add_argument("--no-emit-relocs", dest="emit_relocs",
                   action="store_false")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("run", help="execute a BELF binary")
    p.add_argument("binary")
    p.add_argument("--max-instructions", type=int, default=100_000_000)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("profile", help="sample a run; write .fdata")
    p.add_argument("binary")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--event", default="cycles",
                   choices=["cycles", "instructions", "taken-branches"])
    p.add_argument("--period", type=int, default=251)
    p.add_argument("--no-lbr", action="store_true")
    p.add_argument("--max-instructions", type=int, default=100_000_000)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("bolt", help="post-link optimize a binary")
    p.add_argument("binary")
    p.add_argument("-p", "--profile")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--reorder-blocks", default="cache+",
                   choices=["none", "reverse", "cache", "cache+"])
    p.add_argument("--reorder-functions", default="hfsort+",
                   choices=["none", "hfsort", "hfsort+"])
    p.add_argument("--split-functions", type=int, default=3,
                   choices=range(4),
                   help="0=never .. 3=aggressive (default 3)")
    p.add_argument("--dyno-stats", action="store_true")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--strict", action="store_true",
                      help="turn contained warnings into hard failures")
    mode.add_argument("--tolerant", dest="strict", action="store_false",
                      help="contain per-function failures and degrade "
                           "gracefully (default)")
    p.add_argument("--validate", default="structural",
                   choices=["none", "structural", "static", "execute"],
                   help="validation gate level: structural checks the "
                        "output's entry, symbols, decode and CFG "
                        "invariants; static adds input lint, every "
                        "checker on the output and translation "
                        "validation; execute adds a smoke run")
    p.add_argument("--no-lint", action="store_true",
                   help="disable the post-pass lint gate")
    p.add_argument("--no-lite", dest="lite", action="store_false",
                   help="process every function even when the profile "
                        "matches the binary exactly (llvm-bolt -lite=0)")
    p.add_argument("--suppress", action="append", default=[],
                   metavar="RULE",
                   help="suppress a lint rule (BL003 or func:BL001); "
                        "repeatable")
    p.add_argument("--time-opts", action="store_true",
                   help="print per-pass wall time (llvm-bolt -time-opts)")
    p.add_argument("--time-rewrite", action="store_true",
                   help="print per-phase rewrite wall time "
                        "(llvm-bolt -time-rewrite)")
    p.add_argument("--time-report", metavar="FILE",
                   help="also write the timing report as JSON to FILE")
    p.set_defaults(func=cmd_bolt, strict=False)
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print a BOLT-INFO summary of the rewrite")

    p = sub.add_parser("merge-fdata",
                       help="aggregate fleet .fdata shards into one profile")
    p.add_argument("inputs", nargs="+", metavar="SHARD",
                   help=".fdata shard files (one per host)")
    p.add_argument("-o", "--output", required=True,
                   help="merged .fdata output path")
    p.add_argument("-b", "--binary",
                   help="target BELF binary: stale shards are fuzzy-"
                        "reconciled against it and downweighted by "
                        "match quality")
    p.add_argument("--weight", action="append", type=float, default=[],
                   metavar="W",
                   help="per-shard weight (repeat per shard, or give "
                        "once to apply to all; default 1.0)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="on-disk shard cache; unchanged shards skip "
                        "re-parsing and re-reconciliation")
    p.add_argument("--stale-downweight", type=float, default=0.5,
                   help="weight factor for stale shards whose match "
                        "quality cannot be measured (default 0.5)")
    p.add_argument("--min-match-quality", type=float, default=0.0,
                   help="exclude stale shards matching below this "
                        "fraction (FD013)")
    p.add_argument("--json", action="store_true",
                   help="print the shard quality report as JSON")
    p.set_defaults(func=cmd_merge_fdata)

    p = sub.add_parser("lint", help="static binary lint (BL rule IDs)")
    p.add_argument("binary")
    p.add_argument("--json", action="store_true",
                   help="machine-readable JSON report")
    p.add_argument("--suppress", action="append", default=[],
                   metavar="RULE",
                   help="suppress a lint rule (BL003 or func:BL001); "
                        "repeatable")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("stat", help="perf-stat analog")
    p.add_argument("binary")
    p.add_argument("--max-instructions", type=int, default=100_000_000)
    p.set_defaults(func=cmd_stat)

    p = sub.add_parser("objdump", help="linear disassembly listing")
    p.add_argument("binary")
    p.set_defaults(func=cmd_objdump)

    p = sub.add_parser("dump", help="Figure 4-style CFG dump")
    p.add_argument("binary")
    p.add_argument("-f", "--function")
    p.add_argument("-p", "--profile")
    p.set_defaults(func=cmd_dump)

    return parser


def main(argv=None):
    from repro.belf import BelfFormatError
    from repro.core.rewriter import RewriteError
    from repro.lang import LexError, ParseError, SemaError
    from repro.linker import LinkError
    from repro.uarch import ExecutionLimitExceeded, MachineFault

    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args) or 0
    except FileNotFoundError as exc:
        print(f"BOLT-ERROR: no such file: {exc.filename}", file=sys.stderr)
    except (LexError, ParseError, SemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except (BelfFormatError, ValueError) as exc:
        # Malformed binary / profile inputs: one diagnostic line, no
        # Python traceback.
        print(f"BOLT-ERROR: malformed input: {exc}", file=sys.stderr)
    except StrictModeError as exc:
        print(f"BOLT-ERROR: strict mode: {exc}", file=sys.stderr)
    except RewriteError as exc:
        print(f"BOLT-ERROR: {exc}", file=sys.stderr)
    except LinkError as exc:
        print(f"link error: {exc}", file=sys.stderr)
    except (MachineFault, ExecutionLimitExceeded) as exc:
        print(f"machine fault: {exc}", file=sys.stderr)
    except BrokenPipeError:
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
