"""Resident footprint: what a ``repro`` process loads and keeps.

Every worker of a rewrite pool pays its parent's footprint.  The
package has no runtime dependencies: the non-LBR edge inference has
its own min-cost-flow solver and the Figure 9 heat map is plain lists,
so neither numpy nor networkx ever loads.  A build keeps no compiler
IR.
"""

import gc
import os
import subprocess
import sys
import weakref

import repro
import repro.compiler.driver as driver
from repro.harness import build_workload
from repro.workloads import make_workload

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _heavy_modules_after(code):
    """numpy and networkx, if loaded after running ``code`` in a fresh
    interpreter."""
    code += ("\nimport sys\n"
             "print(sorted(m for m in ('numpy', 'networkx') "
             "if m in sys.modules))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip().splitlines()[-1]


def test_package_import_loads_neither_numpy_nor_networkx():
    assert _heavy_modules_after("import repro, repro.cli, repro.harness") == "[]"


def test_nolbr_bolt_and_heatmap_load_neither_numpy_nor_networkx():
    code = (
        "from repro.harness import build_workload, fetch_heatmap, measure\n"
        "from repro.harness import run_bolt, sample_profile\n"
        "from repro.profiling import SamplingConfig\n"
        "from repro.workloads import make_workload\n"
        "built = build_workload(make_workload('mini'))\n"
        "profile, _ = sample_profile(\n"
        "    built, sampling=SamplingConfig(use_lbr=False))\n"
        "result = run_bolt(built, profile)\n"
        "assert not profile.lbr and result.degraded is None\n"
        "assert any(sum(b.edge_counts.values())\n"
        "           for f in result.context.functions.values()\n"
        "           for b in f.blocks.values())\n"
        "matrix = fetch_heatmap(measure(built, fetch_heat=True), grid=8)\n"
        "assert max(map(max, matrix)) > 0\n"
    )
    assert _heavy_modules_after(code) == "[]"


def test_build_keeps_no_ir(monkeypatch):
    seen = []

    def recording_build_ir(sources):
        modules = real_build_ir(sources)
        seen.extend(weakref.ref(module) for module in modules)
        return modules

    real_build_ir = driver.build_ir
    monkeypatch.setattr(driver, "build_ir", recording_build_ir)
    built = build_workload(make_workload("mini"))

    assert not hasattr(built, "compile_result")
    assert seen
    gc.collect()
    assert all(ref() is None for ref in seen)
    assert built.exe.text_size() > 0
