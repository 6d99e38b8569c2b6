"""Figure 8: GCC-analog speedups — like Figure 7 but PGO without LTO
(the paper could not build GCC with LTO).

Paper (GCC): BOLT 14-24%, PGO 12-17%, PGO+BOLT 18-28%; the combination
always wins and BOLT-on-PGO adds a real increment (7.45% on the full
build).  Shape claims mirror that.
"""

from conftest import once, print_table
from repro.uarch import run_binary

COLUMNS = ("BOLT", "PGO", "PGO+BOLT")


def test_fig8_gcc_analog(benchmark, compiler_matrix, fdo_table):
    all_results = {label: {k: row[k] for k in COLUMNS}
                   for label, row in fdo_table.items()}
    print_table("Figure 8: GCC-analog speedups over -O2 baseline",
                ("input",) + COLUMNS,
                [(label,) + tuple(f"{results[k]:+.1%}" for k in COLUMNS)
                 for label, results in all_results.items()])

    for label, results in all_results.items():
        assert results["BOLT"] > 0.05, label
        assert results["PGO"] > 0.0, label
        assert results["PGO+BOLT"] > results["PGO"], label

    benchmark.extra_info["speedups"] = {
        label: {k: round(v, 4) for k, v in results.items()}
        for label, results in all_results.items()}
    exe = compiler_matrix["pgo_bolt"].binary
    inputs = compiler_matrix["workload"].inputs
    once(benchmark, lambda: run_binary(exe, inputs=inputs))
