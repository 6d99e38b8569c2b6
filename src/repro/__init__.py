"""Reproduction of *BOLT: A Practical Binary Optimizer for Data Centers
and Beyond* (Panchenko, Auler, Nell, Ottoni - CGO 2019).

The top-level package re-exports the high-level API; see README.md for
a tour and DESIGN.md for the architecture.

    from repro import (build_executable, profile_binary, optimize_binary,
                       run_binary, BoltOptions)

Subpackages:

* ``repro.isa``        - the BX86 instruction set (encode/decode)
* ``repro.belf``       - the ELF-like object/executable format
* ``repro.lang``       - the BC language front end (+ reference interpreter)
* ``repro.ir``         - compiler IR and optimization passes
* ``repro.codegen``    - instruction selection and object emission
* ``repro.compiler``   - the build driver (-O2 / PGO / AutoFDO / LTO)
* ``repro.linker``     - the static linker (--emit-relocs, ICF, PLT)
* ``repro.uarch``      - the machine + performance model (caches, TLBs,
  branch predictors, LBR)
* ``repro.profiling``  - sampling profiler, perf2bolt, .fdata format
* ``repro.core``       - **BOLT itself** (the paper's contribution)
* ``repro.workloads``  - synthetic data-center/compiler workload generators
* ``repro.harness``    - end-to-end experiment flows
"""

__version__ = "1.0.0"

from repro.compiler import BuildOptions, build_executable
from repro.core import BoltOptions, optimize_binary
from repro.profiling import SamplingConfig, profile_binary
from repro.uarch import run_binary

__all__ = [
    "__version__",
    "BuildOptions",
    "build_executable",
    "BoltOptions",
    "optimize_binary",
    "SamplingConfig",
    "profile_binary",
    "run_binary",
]
