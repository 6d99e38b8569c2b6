"""Figure 11: the value of LBRs, measured on the HHVM analog.

Three optimization scopes — function reordering only, basic-block
reordering (+other passes) only, and both — each built twice from the
same run: once with LBR-based profiles and once from plain IP samples
(edge counts recovered via MCF).

Paper: LBRs are worth ~2% CPU out of BOLT's ~8% on HHVM; the gap is
much larger for basic-block reordering than for function reordering
(section 5.3: the call graph survives sampling without LBRs, the
block-level edge profile does not).
"""

from conftest import once, print_table
from repro.harness.experiments import figure11


def test_fig11_lbr_value(benchmark, facebook_experiments):
    gains = figure11(facebook_experiments["hhvm"])
    rows = [(scope, f"{s_lbr:+.1%}", f"{s_no:+.1%}", f"{s_lbr - s_no:+.1%}")
            for scope, (s_lbr, s_no) in gains.items()]
    print_table("Figure 11: BOLT speedup with vs without LBRs (HHVM)",
                ("scope", "with LBR", "without LBR", "LBR value"),
                rows)

    # Shape claims: LBR >= non-LBR for the full configuration, and the
    # penalty of losing LBRs is larger for BB reordering than for
    # function reordering (section 5.3).
    assert gains["Both"][0] >= gains["Both"][1] - 0.01
    bb_gap = gains["BBs"][0] - gains["BBs"][1]
    func_gap = gains["Functions"][0] - gains["Functions"][1]
    assert bb_gap >= func_gap - 0.01

    benchmark.extra_info["gains"] = {
        scope: {"lbr": round(a, 4), "nolbr": round(b, 4)}
        for scope, (a, b) in gains.items()}
    once(benchmark, lambda: gains)
