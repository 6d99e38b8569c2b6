"""``python -m repro.experiments`` — regenerate the paper's tables from
the command line, without pytest.

    python -m repro.experiments fig5|fig6|fig7-8|fig11|tab2 [--scale S]

``--scale`` shrinks every workload's iteration count, as
``REPRO_BENCH_SCALE`` does for the benchmarks (1.0, the default, is the
full-size run).  The rows come from :mod:`repro.harness.experiments`.
"""

import argparse
import sys

from repro.harness import experiments as X


def _fig5(scale):
    data = X.figure5(X.facebook_legs(scale))
    print(f"{'workload':12s}{'before':>12s}{'after':>12s}{'speedup':>10s}")
    for name, before, after, gain in data["rows"]:
        print(f"{name:12s}{before:>12,}{after:>12,}{gain:>+10.1%}")
    print(f"{'GeoMean':12s}{'':>12s}{'':>12s}{data['geomean']:>+10.1%}")


def _fig6(scale):
    for label, value in X.figure6(X.facebook_leg("hhvm", scale)).items():
        print(f"{label:10s} {value:+.1%}")


def _fig78(scale):
    table = X.figures7and8(X.compiler_matrix(scale))
    print(f"{'input':18s}" + "".join(f"{k:>14s}" for k in X.FDO_CONFIGS))
    for mix, row in table.items():
        print(f"{mix:18s}" + "".join(f"{row[k]:>+14.1%}"
                                     for k in X.FDO_CONFIGS))


def _fig11(scale):
    data = X.figure11(X.facebook_leg("hhvm", scale))
    print(f"{'scope':12s}{'with LBR':>10s}{'w/o LBR':>10s}{'LBR value':>11s}")
    for scope, (with_lbr, without) in data.items():
        print(f"{scope:12s}{with_lbr:>+10.1%}{without:>+10.1%}"
              f"{with_lbr - without:>+11.1%}")


def _tab2(scale):
    data = X.table2(X.compiler_matrix(scale))
    print(f"{'metric':36s}{'over base':>12s}{'over PGO+LTO':>14s}")
    for field in sorted(data["over_baseline"]):
        cells = [data[column][field]
                 for column in ("over_baseline", "over_pgo_lto")]
        base_s, pgo_s = (f"{value:+.1%}" if value is not None else "n/a"
                         for value in cells)
        print(f"{field:36s}{base_s:>12s}{pgo_s:>14s}")


EXPERIMENTS = {
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7-8": _fig78,
    "fig11": _fig11,
    "tab2": _tab2,
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="repro.experiments")
    parser.add_argument("experiment", choices=list(EXPERIMENTS))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="scale workload iteration counts (at least "
                             "40 iterations each; default 1.0)")
    args = parser.parse_args(argv)
    EXPERIMENTS[args.experiment](args.scale)
    return 0


if __name__ == "__main__":
    sys.exit(main())
