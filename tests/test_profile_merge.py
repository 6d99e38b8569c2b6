"""Property-based pins on the merge-fdata algebra.

The fleet aggregation contract (DESIGN.md section 10): shard merge is
commutative and associative, a singleton merge is exactly the normal
form, weight 1 is an identity, shard arrival order cannot change the
merged ``.fdata`` byte-for-byte, and the parallel parse path is
byte-identical to the serial one.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.profiling import (
    BinaryProfile,
    aggregate_shards,
    merge_profiles,
    normalize_profile,
    scale_profile,
    write_fdata,
)

pytestmark = pytest.mark.aggregate

# A small name pool (one with an embedded space, to keep the escaping
# path honest) makes record-key collisions across shards likely — the
# interesting case for merge arithmetic.
NAMES = ("alpha", "beta", "hot path")

locs = st.tuples(st.sampled_from(NAMES), st.integers(0, 128))
branch_maps = st.dictionaries(
    st.tuples(locs, locs),
    st.tuples(st.integers(0, 500), st.integers(0, 40)),
    max_size=12)
sample_maps = st.dictionaries(locs, st.integers(0, 500), max_size=8)


@st.composite
def profiles(draw):
    profile = BinaryProfile(
        event=draw(st.sampled_from(("cycles", "instructions"))),
        lbr=True,
        build_id=draw(st.none() | st.just("bid-a")))
    for key, (count, mispred) in draw(branch_maps).items():
        profile.branches[key] = [count, mispred]
    profile.ip_samples = dict(draw(sample_maps))
    return profile


def same_profile(a, b):
    assert a.branches == b.branches
    assert a.ip_samples == b.ip_samples
    assert (a.event, a.lbr, a.build_id) == (b.event, b.lbr, b.build_id)
    assert write_fdata(a) == write_fdata(b)


@given(profiles(), profiles())
@settings(deadline=None)
def test_merge_commutative(a, b):
    same_profile(merge_profiles([a, b]), merge_profiles([b, a]))


@given(profiles(), profiles(), profiles())
@settings(deadline=None)
def test_merge_associative(a, b, c):
    left = merge_profiles([merge_profiles([a, b]), c])
    right = merge_profiles([a, merge_profiles([b, c])])
    flat = merge_profiles([a, b, c])
    same_profile(left, right)
    same_profile(left, flat)


@given(profiles())
@settings(deadline=None)
def test_merge_singleton_is_normalize(a):
    same_profile(merge_profiles([a]), normalize_profile(a))


@given(profiles())
@settings(deadline=None)
def test_weight_one_identity(a):
    same_profile(merge_profiles([a], weights=[1.0]), normalize_profile(a))
    assert scale_profile(a, 1) is a


@given(profiles())
@settings(deadline=None)
def test_integer_weight_scales_counts(a):
    doubled = merge_profiles([a], weights=[2.0])
    base = normalize_profile(a)
    for key, (count, mispred) in base.branches.items():
        assert doubled.branches[key] == [2 * count, 2 * mispred]
    for loc, count in base.ip_samples.items():
        assert doubled.ip_samples[loc] == 2 * count


@st.composite
def profile_lists_with_permutation(draw):
    items = draw(st.lists(profiles(), min_size=2, max_size=5))
    order = draw(st.permutations(range(len(items))))
    return items, order


@given(profile_lists_with_permutation())
@settings(deadline=None)
def test_merge_order_does_not_change_fdata_output(case):
    """The acceptance pin: shard merge order provably does not change
    the merged .fdata bytes."""
    items, order = case
    merged = merge_profiles(items)
    shuffled = merge_profiles([items[i] for i in order])
    assert write_fdata(merged) == write_fdata(shuffled)


@given(profile_lists_with_permutation())
@settings(deadline=None, max_examples=25)
def test_aggregate_shards_order_invariant(case):
    """Order-invariance holds through the full pipeline (parse, merge,
    normalize), not just the algebra layer."""
    items, order = case
    texts = [write_fdata(p) for p in items]
    merged = aggregate_shards(texts).profile
    shuffled = aggregate_shards([texts[i] for i in order]).profile
    assert write_fdata(merged) == write_fdata(shuffled)
