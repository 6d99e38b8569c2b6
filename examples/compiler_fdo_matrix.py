#!/usr/bin/env python
"""The Clang/GCC experiment in miniature (paper Figures 7 and 8):

Build the compiler-shaped workload in several configurations and show
that compile-time FDO and post-link BOLT are *complementary*:

    baseline            (O2)
    BOLT                (O2 + BOLT)
    PGO, PGO+BOLT       (instrumented FDO, without and with BOLT)
    PGO+LTO, PGO+LTO+BOLT

The training input for PGO and for BOLT's profile is the same; the
measurement runs use the workload's input mixes, and every binary must
print what the -O2 build prints.
"""

from repro.harness import experiments as X


def main():
    print("building the compiler-like workload's FDO matrix ...")
    table = X.figures7and8(X.compiler_matrix())
    print(f"{'input':18s}" + "".join(f"{k:>14s}" for k in X.FDO_CONFIGS))
    for mix, row in table.items():
        print(f"{mix:18s}" + "".join(f"{row[k]:>+14.1%}"
                                     for k in X.FDO_CONFIGS))
    print("\n(speedups over the plain -O2 baseline; the paper's claim is "
          "that the BOLT and PGO+LTO columns do not subsume each other)")


if __name__ == "__main__":
    main()
