"""End-to-end fleet aggregation: N simulated hosts sample the same
service, merge-fdata aggregates the shards, and the merged profile
drives the rewrite (the paper's data-center flow, section 2).

Acceptance pin: merging K shards of the same workload yields a rewrite
whose dyno-stats match the single merged-profile baseline.  Also pinned
here: the per-binary matching context (built once, on the first cache
miss, freed with its binary, rebuilt when the code changes) and corrupt
shard-cache entries reading as misses.
"""

import gc
import json
import weakref

import pytest

import repro.profiling.aggregate as aggregate_module
from repro.belf import read_binary, write_binary
from repro.core import BoltOptions
from repro.core.dyno_stats import DynoStats
from repro.harness import (
    bolt_with_fleet_profile,
    build_workload,
    collect_fleet_shards,
    run_bolt,
)
from repro.profiling import (
    aggregate_shards,
    merge_profiles,
    parse_fdata,
    write_fdata,
)
from repro.workloads import make_workload

pytestmark = pytest.mark.aggregate

HOSTS = 3


@pytest.fixture(scope="module")
def mini_built():
    return build_workload(make_workload("mini"))


@pytest.fixture(scope="module")
def shards(mini_built):
    return collect_fleet_shards(mini_built, hosts=HOSTS)


def test_fleet_shards_are_distinct(shards):
    assert [name for name, _ in shards] == ["host00", "host01", "host02"]
    texts = [text for _, text in shards]
    assert len(set(texts)) == HOSTS  # different periods/input mixes
    for text in texts:
        profile = parse_fdata(text)
        assert profile.total_branch_count() > 0
        assert profile.build_id is not None  # stamped by the sampler


def test_aggregate_matches_hand_summed_counts(mini_built, shards):
    """The aggregate pipeline is plain integer summation: recompute the
    expected totals by hand, independent of the merge code."""
    expected = {}
    for _, text in shards:
        for key, (count, mispred) in parse_fdata(text).branches.items():
            prev = expected.get(key, (0, 0))
            expected[key] = (prev[0] + count, prev[1] + mispred)
    expected = {key: [count, mispred]
                for key, (count, mispred) in expected.items()
                if count > 0 or mispred > 0}

    aggregation = aggregate_shards(shards, binary=mini_built.exe)
    assert aggregation.profile.branches == expected
    report = aggregation.report()
    assert report["stale_shards"] == 0
    assert report["coverage"]["shard_count"] == HOSTS
    for shard in report["shards"]:
        assert shard["match"] is not None
        assert shard["match"]["quality"] == 1.0
        assert 0.0 <= shard["divergence"] <= 1.0


def test_fleet_dyno_stats_match_single_merged_baseline(mini_built, shards):
    """Acceptance: aggregate_shards(K shards) and a direct single-step
    merge of the same shards produce the same merged profile and,
    through the rewrite, identical dyno-stats."""
    aggregation = aggregate_shards(shards, binary=mini_built.exe)
    baseline = merge_profiles([parse_fdata(text) for _, text in shards])
    baseline.build_id = aggregation.profile.build_id
    assert write_fdata(aggregation.profile) == write_fdata(baseline)

    fleet_result = run_bolt(mini_built, aggregation.profile)
    base_result = run_bolt(mini_built, baseline)
    assert fleet_result.degraded is None
    for field in DynoStats.FIELDS:
        assert (getattr(fleet_result.dyno_after, field)
                == getattr(base_result.dyno_after, field)), field


def test_bolt_with_fleet_profile_end_to_end(mini_built):
    result, aggregation = bolt_with_fleet_profile(
        mini_built, hosts=HOSTS,
        options=BoltOptions(validate_output="execute"))
    assert result.degraded is None
    assert result.binary is not None
    # The rewrite actually improved the profiled layout.
    delta = result.dyno_after.delta_vs(result.dyno_before)
    assert delta["taken_branches"] < 0
    # And the aggregation report is sane.
    report = aggregation.report()
    assert report["coverage"]["shard_count"] == HOSTS
    assert report["stale_shards"] == 0
    assert report["merged"]["branch_count"] > 0
    assert report["diagnostics"]["errors"] == 0


# -- the per-binary matching context ----------------------------------------


@pytest.fixture(scope="module")
def mixed_shards(shards):
    """Fresh shards, shards of a rebuilt release (stale against
    ``mini_built``), and one unstamped shard of each release."""
    rebuilt = build_workload(make_workload("mini", worker_body_scale=1.25))
    stale = [(f"prev-{name}", text)
             for name, text in collect_fleet_shards(rebuilt, hosts=2)]

    def unstamped(name, text):
        return (f"{name}-unstamped",
                "".join(line for line in text.splitlines(keepends=True)
                        if not line.startswith("# build-id:")))

    return (shards + stale
            + [unstamped(*shards[0]), unstamped(*stale[0])])


@pytest.fixture
def builds(monkeypatch):
    """Every binary the matching context gets built for, in order."""
    built = []
    real = aggregate_module._build_attach_context

    def counting(binary):
        built.append(binary)
        return real(binary)

    monkeypatch.setattr(aggregate_module, "_build_attach_context", counting)
    return built


def _fresh_copy(binary):
    """The same binary as a new object, so no earlier test's context is
    memoized on it."""
    return read_binary(write_binary(binary))


def test_matching_context_built_once_per_binary(mini_built, shards, builds):
    binary = _fresh_copy(mini_built.exe)
    outputs = {write_fdata(aggregate_shards(shards, binary=binary).profile)
               for _ in range(10)}
    assert len(outputs) == 1
    assert builds == [binary]


def test_all_hit_batch_builds_no_context(mini_built, shards, builds,
                                         tmp_path):
    cold = aggregate_shards(shards, binary=_fresh_copy(mini_built.exe),
                            cache_dir=tmp_path)
    assert len(builds) == 1
    hit = aggregate_shards(shards, binary=_fresh_copy(mini_built.exe),
                           cache_dir=tmp_path)
    assert [s.cache for s in hit.shards] == ["hit"] * len(shards)
    assert len(builds) == 1
    assert write_fdata(hit.profile) == write_fdata(cold.profile)


def test_dropped_binary_is_freed_with_its_context(mini_built, shards,
                                                  builds):
    binary = _fresh_copy(mini_built.exe)
    aggregate_shards(shards, binary=binary)
    assert len(builds) == 1
    builds.clear()
    alive = weakref.ref(binary)
    gc.disable()
    try:
        del binary
        # Freed by reference counting: the memo forms no cycle.
        assert alive() is None
    finally:
        gc.enable()
    gc.collect()
    assert alive() is None


def test_memoized_run_matches_cold_run(mini_built, mixed_shards, builds):
    cold = aggregate_shards(mixed_shards, binary=_fresh_copy(mini_built.exe))
    report = cold.report()
    assert report["stale_shards"] >= 2
    assert any(s["build_id"] is None and s["stale"]
               for s in report["shards"])

    binary = _fresh_copy(mini_built.exe)
    aggregate_shards(mixed_shards[::-1][:3], binary=binary)
    warm = aggregate_shards(mixed_shards, binary=binary)
    assert builds[1:] == [binary]
    assert warm.to_json() == cold.to_json()
    assert write_fdata(warm.profile) == write_fdata(cold.profile)


def test_code_change_rebuilds_context(mini_built, shards, builds):
    binary = _fresh_copy(mini_built.exe)
    before = binary.content_hash()
    assert aggregate_shards(shards, binary=binary).report()[
        "stale_shards"] == 0
    text = binary.get_section(".text")
    text.data[len(text.data) - 1] ^= 0xFF
    assert binary.content_hash() != before
    # Against the edited code every stamped shard is stale; a reused
    # context would still carry the old build id and call them fresh.
    report = aggregate_shards(shards, binary=binary).report()
    assert report["stale_shards"] == len(shards)
    assert builds == [binary, binary]


# -- corrupt shard-cache entries --------------------------------------------


@pytest.mark.parametrize("corrupt", [None, [], 3, "x", "empty-profile"],
                         ids=["null", "list", "int", "str", "empty-profile"])
def test_corrupt_cache_entry_is_a_miss(mini_built, shards, tmp_path,
                                       corrupt):
    expected = write_fdata(aggregate_shards(shards,
                                            binary=mini_built.exe).profile)
    aggregate_shards(shards, binary=mini_built.exe, cache_dir=tmp_path)
    entries = sorted(tmp_path.glob("*.shard.json"))
    assert len(entries) == len(shards)
    for entry in entries:
        if corrupt == "empty-profile":
            payload = json.loads(entry.read_text())
            payload["profile"] = {}
        else:
            payload = corrupt
        entry.write_text(json.dumps(payload))

    rerun = aggregate_shards(shards, binary=mini_built.exe,
                             cache_dir=tmp_path)
    assert [s.cache for s in rerun.shards] == ["miss"] * len(shards)
    assert write_fdata(rerun.profile) == expected
    # The miss path overwrote every corrupt entry.
    again = aggregate_shards(shards, binary=mini_built.exe,
                             cache_dir=tmp_path)
    assert [s.cache for s in again.shards] == ["hit"] * len(shards)
    assert write_fdata(again.profile) == expected
