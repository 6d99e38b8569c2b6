"""End-to-end fleet aggregation: N simulated hosts sample the same
service, merge-fdata aggregates the shards, and the merged profile
drives the rewrite (the paper's data-center flow, section 2).

Acceptance pin: merging K shards of the same workload yields a rewrite
whose dyno-stats match the single merged-profile baseline.
"""

import pytest

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
