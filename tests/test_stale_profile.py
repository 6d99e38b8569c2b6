"""Stale-profile detection and fuzzy matching.

A profile collected on build A and applied to a *different* build B
(the data-center reality: binaries redeploy faster than profiles
refresh) must never crash the rewrite — it is detected via the
build-id stamp, recovered by fuzzy matching, and reported with a
match-quality percentage.  The resulting binary must still be correct
and must not regress the simulated cycle count of the unoptimized
build.
"""

import pytest

from repro.core import BoltOptions, optimize_binary
from repro.harness import build_workload, measure, run_bolt, sample_profile
from repro.profiling import SamplingConfig, parse_fdata, write_fdata
from repro.uarch import run_binary
from repro.workloads import WorkloadSpec, generate_workload

MAX_INSNS = 20_000_000


def _spec(**overrides):
    base = dict(seed=11, modules=3, workers_per_module=4,
                leaves_per_module=3, iterations=80,
                switch_funcs_per_module=1, cold_modulus=13)
    base.update(overrides)
    return WorkloadSpec("stalerig", **base)


@pytest.fixture(scope="module")
def builds():
    """Variant A (profiled), a mild rebuild (same structure, changed
    constants — the re-release case), and a far rebuild (different
    bodies/sizes/offsets — months of drift)."""
    wl_a = generate_workload(_spec())
    wl_mild = generate_workload(_spec(iterations=90))
    wl_far = generate_workload(_spec(seed=12, iterations=90,
                                     worker_body_scale=1.4))
    built_a = build_workload(wl_a)
    built_mild = build_workload(wl_mild)
    built_far = build_workload(wl_far)
    profile_a, _ = sample_profile(built_a, sampling=SamplingConfig(period=97),
                                  max_instructions=MAX_INSNS)
    return {"a": built_a, "mild": built_mild, "far": built_far,
            "profile_a": profile_a, "workload_mild": wl_mild,
            "workload_far": wl_far}


def test_fresh_profile_not_flagged(builds):
    profile_far, _ = sample_profile(builds["far"],
                                    sampling=SamplingConfig(period=97),
                                    max_instructions=MAX_INSNS)
    result = run_bolt(builds["far"], profile_far)
    assert not result.context.stale_profile


def test_stale_profile_detected_and_recovered(builds):
    result = run_bolt(builds["mild"], builds["profile_a"])

    # Detection is definitive: both builds are stamped and hashes differ.
    assert result.context.stale_profile
    quality = result.context.profile_quality
    assert quality is not None
    assert 0.0 <= quality <= 1.0
    # A mild rebuild keeps most branch sites where they were: the bulk
    # of the profile survives matching.
    assert quality > 0.5

    # The report surfaces both the detection and the quality figure.
    summary = result.summary()
    assert "stale profile" in summary
    assert "quality" in summary
    assert any("stale profile detected" in d.message
               for d in result.diagnostics.warnings)

    # The rewritten binary is still correct.
    base = measure(builds["mild"], max_instructions=MAX_INSNS)
    cpu = run_binary(result.binary, inputs=builds["workload_mild"].inputs,
                     max_instructions=MAX_INSNS)
    assert cpu.output == base.output
    assert cpu.exit_code == base.exit_code


@pytest.mark.parametrize("variant", ["mild", "far"])
def test_stale_profile_does_not_regress_cycles(builds, variant):
    """A stale profile must help (or at worst be neutral) relative to
    the unoptimized build — never actively hurt, even when the rebuild
    drifted so far that few records still match."""
    built = builds[variant]
    workload = builds[f"workload_{variant}"]
    base = measure(built, max_instructions=MAX_INSNS)
    result = run_bolt(built, builds["profile_a"])
    assert result.context.stale_profile
    assert result.context.profile_quality is not None
    bolted = run_binary(result.binary, inputs=workload.inputs,
                        max_instructions=MAX_INSNS)
    assert bolted.output == base.output
    # 2% head-room for layout noise.
    assert bolted.counters.cycles <= base.counters.cycles * 1.02


def test_build_id_round_trips_through_fdata(builds, tmp_path):
    profile = builds["profile_a"]
    assert profile.build_id == builds["a"].exe.content_hash()
    path = tmp_path / "a.fdata"
    path.write_text(write_fdata(profile))
    parsed = parse_fdata(path.read_text())
    assert parsed.build_id == profile.build_id


def test_content_hash_tracks_text_changes(builds):
    a, mild, far = (builds["a"].exe, builds["mild"].exe, builds["far"].exe)
    assert a.content_hash() == a.content_hash()
    assert a.content_hash() != mild.content_hash()
    assert a.content_hash() != far.content_hash()


def test_unstamped_stale_profile_heuristic(builds):
    """Without a build-id the structural heuristic (out-of-range /
    mid-instruction endpoints) still catches a cross-build profile."""
    profile = builds["profile_a"]
    profile_unstamped = type(profile)(event=profile.event, lbr=profile.lbr)
    profile_unstamped.branches = {k: list(v)
                                  for k, v in profile.branches.items()}
    profile_unstamped.ip_samples = dict(profile.ip_samples)
    result = optimize_binary(builds["far"].exe, profile_unstamped,
                             BoltOptions())
    # Heuristic detection is best-effort: it must never crash, and if
    # it does fire the quality figure must be reported.
    if result.context.stale_profile:
        assert result.context.profile_quality is not None
    base = measure(builds["far"], max_instructions=MAX_INSNS)
    cpu = run_binary(result.binary, inputs=builds["workload_far"].inputs,
                     max_instructions=MAX_INSNS)
    assert cpu.output == base.output
