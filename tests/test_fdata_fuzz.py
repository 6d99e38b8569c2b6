"""Fuzzing the tolerant ``.fdata`` shard parser.

A fleet always contains a corrupt writer or a truncated upload, so the
shard parser must never raise and must never *silently* drop: every
rejected line surfaces as a BOLT-WARNING/BOLT-ERROR diagnostic with a
stable ``FD0xx`` rule ID (PR 2 lint-rule style) and is accounted in the
per-shard drop statistics.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.diagnostics import Diagnostics, Severity
from repro.profiling import (
    BinaryProfile,
    FDATA_RULES,
    parse_fdata,
    parse_fdata_shard,
    write_fdata,
)
from repro.profiling.merge import MAX_LINE_DIAGS

pytestmark = pytest.mark.aggregate

GOOD_LINE = "1 a 1 1 b 0 0 7"

MALFORMED_CASES = [
    ("1 f 10 1 g", "FD001"),                # truncated branch line
    ("1 f 10 1 g 20 0 5 9", "FD001"),       # too many fields
    ("1 f 10 2 g 20 0 5", "FD001"),         # bad second marker
    ("1 f zz 1 g 20 0 5", "FD004"),         # non-hex offset
    ("1 f 10 1 g 20 0 xyz", "FD004"),       # non-integer count
    ("1 f 10 1 g 20 0 -5", "FD005"),        # negative count
    ("1 f 10 1 g 20 -1 5", "FD005"),        # negative mispredicts
    ("S f 10", "FD002"),                    # truncated sample line
    ("S f 10 3 4", "FD002"),                # too many fields
    ("S f xx 3", "FD004"),                  # non-hex offset
    ("S f 10 -3", "FD005"),                 # negative sample count
    ("Q what is this", "FD003"),            # unknown discriminator
]


@pytest.mark.parametrize("line,rule", MALFORMED_CASES)
def test_malformed_line_gets_stable_rule_id(line, rule):
    diags = Diagnostics()
    profile, stats = parse_fdata_shard(
        f"# event: cycles\n{line}\n{GOOD_LINE}\n", diags, shard="s0")
    # The bad line is dropped under exactly one rule; the good line
    # still parses — one host's corruption never sinks its shard.
    assert stats.dropped == {rule: 1}
    assert profile.total_branch_count() == 7
    matching = [d for d in diags if d.message.startswith(rule)]
    assert len(matching) == 1
    assert matching[0].severity == Severity.WARNING
    assert matching[0].function == "s0"
    assert matching[0].render().startswith("BOLT-WARNING: merge-fdata [s0]")


def test_mixed_build_id_headers_conflict():
    diags = Diagnostics()
    text = f"# build-id: aaa\n# build-id: bbb\n{GOOD_LINE}\n"
    profile, stats = parse_fdata_shard(text, diags)
    assert profile.build_id == "aaa"          # first value wins
    assert stats.dropped == {"FD006": 1}
    assert any(d.message.startswith("FD006") for d in diags)


def test_repeated_identical_header_is_fine():
    diags = Diagnostics()
    text = f"# build-id: aaa\n# build-id: aaa\n# event: cycles\n{GOOD_LINE}\n"
    _, stats = parse_fdata_shard(text, diags)
    assert stats.dropped == {}
    assert len(diags) == 0


def test_unknown_comment_lines_are_ignored():
    _, stats = parse_fdata_shard(f"# made by: somebody\n{GOOD_LINE}\n")
    assert stats.dropped == {}
    assert stats.branch_lines == 1


def test_diagnostic_flood_is_capped():
    n = MAX_LINE_DIAGS * 4
    diags = Diagnostics()
    _, stats = parse_fdata_shard("\n".join(["Z junk"] * n), diags)
    assert stats.dropped == {"FD003": n}            # all accounted...
    fd003 = [d for d in diags if d.message.startswith("FD003")]
    assert len(fd003) == MAX_LINE_DIAGS + 1         # ...capped + summary
    assert f"{n} total" in fd003[-1].message


def test_rule_table_is_stable():
    """The rule IDs are a public contract (suppressions, CI gates)."""
    assert {rule_id: rule.severity.name.lower()
            for rule_id, rule in FDATA_RULES.items()} == {
        "FD001": "warning", "FD002": "warning", "FD003": "warning",
        "FD004": "warning", "FD005": "warning", "FD006": "warning",
        "FD007": "warning", "FD008": "warning", "FD009": "warning",
        "FD010": "warning", "FD011": "error", "FD012": "error",
        "FD013": "warning",
    }
    for rule_id, rule in FDATA_RULES.items():
        assert rule.id == rule_id
        assert rule.summary


ascii_lines = st.lists(
    st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
            max_size=40),
    max_size=30)


@given(ascii_lines)
@settings(deadline=None, max_examples=150)
def test_fuzz_arbitrary_text_never_raises(lines):
    text = "\n".join(lines)
    diags = Diagnostics()
    profile, stats = parse_fdata_shard(text, diags)
    # Accounting invariant: every candidate record line either parsed
    # or was dropped under a rule (FD006 drops are header lines, which
    # are not record candidates).
    header_drops = stats.dropped.get("FD006", 0)
    assert (stats.branch_lines + stats.sample_lines
            + stats.dropped_total - header_drops == stats.lines)
    # Whatever survived still serializes.
    write_fdata(profile)


@given(ascii_lines, st.integers(0, 400))
@settings(deadline=None, max_examples=100)
def test_fuzz_truncated_file_never_raises(lines, cut):
    text = "\n".join(["# event: cycles", GOOD_LINE] + lines)
    parse_fdata_shard(text[:cut])


JUNK = ("Z junk", "1 bad", "S x", "1 a 1 1 b 0 0 -1", "\x00\x01", "1")


@given(st.lists(st.sampled_from(JUNK), min_size=1, max_size=6),
       st.randoms(use_true_random=False))
@settings(deadline=None, max_examples=60)
def test_fuzz_junk_injection_preserves_valid_records(junk, rng):
    profile = BinaryProfile(build_id="bid-a")
    profile.add_branch(("f", 4), ("g", 0), count=11)
    profile.add_branch(("g", 8), ("g", 2), mispred=True, count=3)
    profile.add_sample(("f", 12), 9)
    clean_lines = write_fdata(profile).splitlines()
    dirty = list(clean_lines)
    for line in junk:
        dirty.insert(rng.randrange(len(dirty) + 1), line)

    diags = Diagnostics()
    parsed, stats = parse_fdata_shard("\n".join(dirty), diags)
    assert stats.dropped_total == len(junk)
    assert parsed.branches == profile.branches
    assert parsed.ip_samples == profile.ip_samples
    assert parsed.build_id == "bid-a"
    # Nothing silent: one diagnostic per rejected line (under the cap).
    assert len(diags) == len(junk)


STRICT_POOL = ([GOOD_LINE, "S a 1 3", "# build-id: aaa", "# build-id: bbb"]
               + [line for line, _ in MALFORMED_CASES])


@given(st.lists(st.sampled_from(STRICT_POOL), max_size=8))
@settings(deadline=None, max_examples=150)
def test_prop_strict_parse_is_the_shard_parse(lines):
    """parse_fdata raises iff parse_fdata_shard drops a line, naming the
    first dropped line's rule; otherwise both return the same profile."""
    text = "\n".join(lines)
    diags = Diagnostics()
    tolerant, stats = parse_fdata_shard(text, diags)
    if stats.dropped_total:
        rule, _, raw = next(iter(diags)).message.partition(": dropped line ")
        with pytest.raises(ValueError) as exc:
            parse_fdata(text)
        assert str(exc.value).startswith(rule + " ")
        assert str(exc.value).endswith(raw)
    else:
        assert vars(parse_fdata(text)) == vars(tolerant)
