"""Resident footprint: what a ``repro`` process loads and keeps.

Every worker of a rewrite pool pays its parent's footprint, so the
package defers its two heavy dependencies (numpy, networkx) to the
functions that use them, and a build keeps no compiler IR.
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


def test_package_import_loads_neither_numpy_nor_networkx():
    code = (
        "import sys\n"
        "import repro, repro.cli, repro.harness\n"
        "print(sorted(m for m in ('numpy', 'networkx') if m in sys.modules))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


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
