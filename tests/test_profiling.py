"""Profiling tests: sampler, aggregation, fdata format, MCF."""

import pytest
from hypothesis import given, strategies as st

from repro.compiler import build_executable, BuildOptions
from repro.profiling import (
    AddressMapper,
    BinaryProfile,
    EVENT_PRESETS,
    Sampler,
    SamplingConfig,
    aggregate_samples,
    min_cost_flow_edges,
    parse_fdata,
    profile_binary,
    write_fdata,
)

LOOP_SRC = ("t", """
func hot(x) {
  if (x % 2 == 0) { return x + 1; }
  return x - 1;
}
func cold(x) { return x * 100; }
func main() {
  var i = 0;
  var acc = 0;
  while (i < 400) {
    acc = acc + hot(i);
    if (i % 97 == 0) { acc = acc + cold(i); }
    i = i + 1;
  }
  out acc;
  return 0;
}
""")


@pytest.fixture(scope="module")
def exe():
    from repro.ir import InlinePolicy

    # Keep the calls: inlining everything would leave nothing to map.
    options = BuildOptions(inline=InlinePolicy(max_size=0, hot_max_size=0))
    binary, _ = build_executable([LOOP_SRC], options, emit_relocs=True)
    return binary


def test_sampling_config_validation():
    with pytest.raises(ValueError):
        SamplingConfig(event="bogus")
    assert EVENT_PRESETS["cycles:pebs"].skid == 0
    assert EVENT_PRESETS["cycles"].skid > 0


@pytest.mark.parametrize("period", [0, -5])
def test_sampling_config_rejects_nonpositive_period(period):
    with pytest.raises(ValueError, match="period"):
        SamplingConfig(period=period)


def test_sampler_collects(exe):
    profile, cpu = profile_binary(exe, sampling=SamplingConfig(period=67))
    assert len(profile.branches) > 0
    assert len(profile.ip_samples) > 0
    # Sample count roughly tracks cycles / period.
    expected = cpu.counters.cycles / 67
    total = sum(profile.ip_samples.values())
    assert 0.5 * expected <= total <= 1.5 * expected


def test_lbr_vs_nolbr(exe):
    lbr, _ = profile_binary(exe, sampling=SamplingConfig(period=67))
    nolbr, _ = profile_binary(exe, sampling=SamplingConfig(period=67,
                                                           use_lbr=False))
    assert lbr.lbr and not nolbr.lbr
    assert len(lbr.branches) > 0
    assert len(nolbr.branches) == 0
    assert len(nolbr.ip_samples) > 0


def test_profile_symbolization(exe):
    profile, _ = profile_binary(exe, sampling=SamplingConfig(period=53))
    funcs = profile.functions()
    assert "main" in funcs and "hot" in funcs
    # The hot loop dominates samples.
    hot_weight = sum(c for (f, _), c in profile.ip_samples.items()
                     if f in ("main", "hot"))
    assert hot_weight >= 0.8 * sum(profile.ip_samples.values())


def test_calls_between(exe):
    profile, _ = profile_binary(exe, sampling=SamplingConfig(period=53))
    calls = profile.calls_between()
    assert calls.get(("main", "hot"), 0) > calls.get(("main", "cold"), 0)


def test_branches_within(exe):
    profile, _ = profile_binary(exe, sampling=SamplingConfig(period=53))
    within = profile.branches_within("main")
    assert within
    for (from_off, to_off) in within:
        assert from_off >= 0 and to_off >= 0


def test_event_choices_produce_profiles(exe):
    for name, config in EVENT_PRESETS.items():
        profile, _ = profile_binary(exe, sampling=config)
        assert len(profile) > 0, name


def test_skid_biases_attribution(exe):
    precise, _ = profile_binary(
        exe, sampling=SamplingConfig(period=61, skid=0, use_lbr=False))
    skidded, _ = profile_binary(
        exe, sampling=SamplingConfig(period=61, skid=8, use_lbr=False))
    assert precise.ip_samples != skidded.ip_samples


def test_fdata_roundtrip():
    profile = BinaryProfile(event="cycles", lbr=True)
    profile.add_branch(("f", 0x10), ("g", 0x0), mispred=True, count=5)
    profile.add_branch(("f", 0x20), ("f", 0x8), count=3)
    profile.add_sample(("f", 0x10), 7)
    profile.add_sample(("odd name", 0x1), 1)
    text = write_fdata(profile)
    back = parse_fdata(text)
    assert back.branches == profile.branches
    assert back.ip_samples == profile.ip_samples
    assert back.event == "cycles" and back.lbr


def test_fdata_parse_errors():
    with pytest.raises(ValueError):
        parse_fdata("1 f 0 2 g 0 0 1\n")
    with pytest.raises(ValueError):
        parse_fdata("X whatever\n")
    with pytest.raises(ValueError):
        parse_fdata("S f 0\n")


@given(
    records=st.lists(
        st.tuples(st.text(alphabet="abc_: %", min_size=1, max_size=8),
                  st.integers(0, 0xFFFF),
                  st.integers(0, 0xFFFF),
                  st.integers(1, 1000)),
        max_size=20,
    )
)
def test_prop_fdata_roundtrip(records):
    profile = BinaryProfile()
    for name, f, t, count in records:
        profile.add_branch((name, f), (name, t), count=count)
    back = parse_fdata(write_fdata(profile))
    assert back.branches == profile.branches


def test_address_mapper(exe):
    mapper = AddressMapper(exe)
    main = exe.get_symbol("main")
    assert mapper.map(main.value) == ("main", 0)
    assert mapper.map(main.value + 3) == ("main", 3)
    assert mapper.map(0x10) is None


def test_aggregate_drops_unmapped(exe):
    mapper = AddressMapper(exe)
    main = exe.get_symbol("main")
    samples = [
        (main.value, [(main.value + 5, 0x99999, False)]),   # target unmapped
        (main.value, [(main.value + 5, main.value, True)]),
    ]
    profile = aggregate_samples(samples, mapper)
    assert len(profile.branches) == 1
    ((key, (count, mispreds)),) = profile.branches.items()
    assert count == 1 and mispreds == 1


# -- MCF --------------------------------------------------------------------------


def test_mcf_simple_diamond():
    #     entry (100)
    #     /        \
    #  left(70)  right(30)
    #     \        /
    #      exit(100)
    blocks = ["entry", "left", "right", "exit"]
    edges = [("entry", "left"), ("entry", "right"),
             ("left", "exit"), ("right", "exit")]
    counts = {"entry": 100, "left": 70, "right": 30, "exit": 100}
    flows = min_cost_flow_edges(blocks, edges, counts, "entry", ["exit"])
    assert flows[("entry", "left")] > flows[("entry", "right")]
    total_out = flows[("entry", "left")] + flows[("entry", "right")]
    assert total_out >= 90  # close to the measured entry count


def test_mcf_handles_inconsistent_counts():
    # Successor claims more flow than the predecessor: still feasible.
    blocks = ["a", "b"]
    edges = [("a", "b")]
    counts = {"a": 10, "b": 50}
    flows = min_cost_flow_edges(blocks, edges, counts, "a", ["b"])
    assert flows[("a", "b")] >= 0


def test_mcf_zero_counts():
    blocks = ["a", "b"]
    edges = [("a", "b")]
    flows = min_cost_flow_edges(blocks, edges, {}, "a", ["b"])
    assert flows[("a", "b")] >= 0


# -- YAML profile format (perf2bolt -w, paper 6.2.1) ---------------------------


def test_yaml_profile_roundtrip():
    from repro.profiling import parse_yaml_profile, write_yaml_profile

    profile = BinaryProfile(event="cycles", lbr=True)
    profile.add_branch(("main", 0x10), ("hot", 0x0), mispred=True, count=5)
    profile.add_branch(("main", 0x24), ("main", 0x8), count=9)
    profile.add_sample(("main", 0x10), 7)
    profile.add_sample(("weird name", 0x4), 2)
    text = write_yaml_profile(profile)
    assert text.startswith("---")
    back = parse_yaml_profile(text)
    assert back.branches == profile.branches
    assert back.ip_samples == profile.ip_samples
    assert back.event == "cycles" and back.lbr


def test_yaml_profile_parse_errors():
    from repro.profiling import parse_yaml_profile, YamlProfileError

    with pytest.raises(YamlProfileError):
        parse_yaml_profile("---\nfunctions:\n      - { off: 0x1 }\n")
    with pytest.raises(YamlProfileError):
        parse_yaml_profile("garbage here\n")


def test_yaml_profile_from_real_run(exe):
    from repro.profiling import parse_yaml_profile, write_yaml_profile

    profile, _ = profile_binary(exe, sampling=SamplingConfig(period=71))
    back = parse_yaml_profile(write_yaml_profile(profile))
    assert back.branches == profile.branches
    assert back.ip_samples == profile.ip_samples


# -- accuracy metric (section 2.2) ----------------------------------------------


def test_overlap_accuracy_bounds():
    from repro.profiling import overlap_accuracy

    truth = {"a": 50, "b": 50}
    assert overlap_accuracy(truth, truth) == pytest.approx(1.0)
    assert overlap_accuracy(truth, {"a": 100}) == pytest.approx(0.5)
    assert overlap_accuracy(truth, {"c": 100}) == 0.0
    assert overlap_accuracy({}, truth) == 0.0
    assert overlap_accuracy(truth, {"a": 25, "b": 75}) == pytest.approx(0.75)


def test_sampled_profile_accuracy_vs_trace(exe):
    """Sampled IP distribution approximates the fully-traced truth."""
    from repro.profiling import (
        binary_block_truth,
        overlap_accuracy,
        sampled_block_estimate,
    )

    truth, _ = binary_block_truth(exe)
    profile, _ = profile_binary(
        exe, sampling=SamplingConfig(period=31, use_lbr=False))
    estimate = sampled_block_estimate(profile)
    accuracy = overlap_accuracy(truth, estimate)
    assert accuracy > 0.5  # coarse agreement; it is a sample after all
