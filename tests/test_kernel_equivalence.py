"""The linear-time pass kernels against the scans they replaced, on
every preset at seeds 0-2: the shrink-wrapping scan finds the same
saves, restores, register blocks and call blocks in every function the
pass visits, and ICF folds the same functions into the same survivors
as keying every function, with linker ICF off and on.  (The HFSort+
neighbour scan is pinned on random graphs by ``tests/test_hfsort.py``.)
"""

import random

import pytest

from repro.core import BinaryContext, BoltOptions
from repro.core.cfg_builder import build_all_functions
from repro.core.discovery import discover_functions
from repro.core.passes import shrink_wrapping
from repro.core.passes.base import build_pipeline
from repro.core.passes.icf import IdenticalCodeFolding
from repro.core.profile_attach import attach_profile
from repro.harness import build_workload, sample_profile
from repro.workloads import PRESETS, generate_workload
from tests.oracles.reference_kernels import (
    icf_run_reference,
    shrink_wrap_scan_reference,
)

#: Main-loop iterations: enough for a profile that reaches the saves.
ITERATIONS = 40

SEEDS = [0, 1, 2]


def _built(preset, seed, linker_icf=False):
    spec = PRESETS[preset].copy(iterations=ITERATIONS)
    if seed:
        spec = spec.copy(
            seed=random.Random(f"{seed}:{preset}").randrange(1, 1 << 30))
    return build_workload(generate_workload(spec), lto=(preset == "hhvm"),
                          linker_icf=linker_icf)


def _context(exe, profile=None):
    context = BinaryContext(exe, BoltOptions())
    discover_functions(context)
    build_all_functions(context)
    if profile is not None:
        attach_profile(context, profile)
    return context


def _scans_equal(fast, reference):
    calls, regs, saves, restores = fast
    ref_calls, ref_regs, ref_saves, ref_restores = reference

    def ids(pairs):
        return [(label, id(insn)) for label, insn in pairs]

    return (calls == ref_calls and regs == ref_regs
            and {r: id(i) for r, i in saves.items()}
            == {r: id(i) for r, i in ref_saves.items()}
            and {r: ids(p) for r, p in restores.items()}
            == {r: ids(p) for r, p in ref_restores.items()})


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_shrink_wrap_scan_matches_reference(preset, seed, monkeypatch):
    """Checked where the pass runs: on the CFGs every earlier pass of
    the pipeline left, for every profiled function with saved
    registers."""
    built = _built(preset, seed)
    profile, _ = sample_profile(built)
    context = _context(built.exe, profile)
    scan = shrink_wrapping._scan
    checked = []

    def checked_scan(func, record):
        fast = scan(func, record)
        assert _scans_equal(fast, shrink_wrap_scan_reference(func, record)), \
            func.name
        checked.append(func.name)
        return fast

    monkeypatch.setattr(shrink_wrapping, "_scan", checked_scan)
    stats = build_pipeline(context.options).run(context)
    assert checked, f"{preset}/{seed}: no function reached the scan"
    assert "shrink-wrapping" in stats


@pytest.mark.parametrize("linker_icf", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_icf_folds_match_keying_every_function(preset, seed, linker_icf,
                                               monkeypatch):
    """Both ICF rounds, through the whole pipeline: the same stats and
    the same ``folded_into`` map."""
    exe = _built(preset, seed, linker_icf).exe

    def folds():
        context = _context(exe)
        stats = build_pipeline(context.options).run(context)
        return ({name: stats[name] for name in ("icf", "icf-2")},
                {f.name: f.folded_into.name
                 for f in context.functions.values() if f.is_folded})

    fast = folds()
    monkeypatch.setattr(IdenticalCodeFolding, "run", icf_run_reference)
    assert fast == folds()
