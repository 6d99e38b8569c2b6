"""Figure 7: Clang-analog speedups for BOLT, PGO+LTO, and PGO+LTO+BOLT
over the plain -O2 baseline, across several input mixes.

Paper (Clang): BOLT alone 22-52%, PGO+LTO 22-40%, PGO+LTO+BOLT 34-68%;
the combined configuration always wins.  Shape claims: each column is a
real speedup; the combination beats PGO+LTO alone on every input (the
complementarity result); BOLT alone is competitive with PGO+LTO.
"""

from conftest import once, print_table
from repro.uarch import run_binary

COLUMNS = ("BOLT", "PGO+LTO", "PGO+LTO+BOLT")


def test_fig7_clang_analog(benchmark, compiler_matrix, fdo_table):
    all_results = {label: {k: row[k] for k in COLUMNS}
                   for label, row in fdo_table.items()}
    print_table("Figure 7: Clang-analog speedups over -O2 baseline",
                ("input",) + COLUMNS,
                [(label,) + tuple(f"{results[k]:+.1%}" for k in COLUMNS)
                 for label, results in all_results.items()])

    for label, results in all_results.items():
        assert results["BOLT"] > 0.05, label
        assert results["PGO+LTO"] > 0.0, label
        # The headline complementarity claim: FDO+LTO does not subsume
        # post-link optimization.
        assert results["PGO+LTO+BOLT"] > results["PGO+LTO"], label

    benchmark.extra_info["speedups"] = {
        label: {k: round(v, 4) for k, v in results.items()}
        for label, results in all_results.items()}
    exe = compiler_matrix["pgo_lto_bolt"].binary
    inputs = compiler_matrix["workload"].inputs
    once(benchmark, lambda: run_binary(exe, inputs=inputs))
