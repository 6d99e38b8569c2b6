"""Tests of the benchmark's own checks, on the small ``mini`` preset.

Run from the repository root:

    python -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

from repro.belf import read_binary, write_binary  # noqa: E402
from repro.faults import executed_functions, inject_binary_fault  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def make(name, tmp_path, trace=False):
    return WORKLOADS[name](0, Tracer(trace), tmp_path, presets=("mini",))


def result_line(workload, measured, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.report(workload, measured, trace)
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_prints_with_its_unit(name, trace, tmp_path):
    workload = make(name, tmp_path, trace)
    setup_s = run.timed_setup(workload)
    measured = run.measure(workload, 0, setup_s)
    lines, result = result_line(workload, measured, trace)
    if trace:
        # core.pass.<name>_s reads 0 for a pass the pipeline no longer
        # runs: a renamed or added pass must show here, not as a zero.
        timed_passes = {name for name in workload.tracer.counts
                        if name.startswith("core.pass.")}
        assert timed_passes == {f"core.pass.{name}_s"
                                for name in run.PASS_NAMES}

    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric, unit in expected.items():
        value = result["metrics"][metric]["value"]
        assert f"  {metric} {value} {unit}" in lines
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in expected)


def test_fleet_shards_match_collect_fleet_shards(tmp_path):
    from repro.harness import collect_fleet_shards

    workload = make("fleet", tmp_path)
    workload.setup()
    expected = collect_fleet_shards(workload.program.built,
                                    hosts=workload.current_hosts)
    assert [(f"cur-{name}", text) for name, text in expected] \
        == workload.current


def test_tampered_oracle_counts_as_failure(tmp_path):
    workload = make("rewrite", tmp_path)
    setup_s = run.timed_setup(workload)
    workload.programs[0].oracle = ["tampered"]
    measured = run.measure(workload, 0, setup_s)
    _, result = result_line(workload, measured, False)
    assert result["failed"] > 0 and not result["correct"]


def test_fault_injected_binary_counts_as_failure(tmp_path):
    workload = make("rewrite", tmp_path)
    setup_s = run.timed_setup(workload)
    program = workload.programs[0]
    binary = read_binary(program.data)
    hot = executed_functions(binary, inputs=program.inputs) - {"main"}
    corrupt, _ = inject_binary_fault(binary, "garbage-text", targets=hot)
    program.data = write_binary(corrupt)
    measured = run.measure(workload, 0, setup_s)
    _, result = result_line(workload, measured, False)
    assert result["failed"] > 0 and not result["correct"]
