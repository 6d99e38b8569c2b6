"""``repro-bolt merge-fdata`` CLI coverage: exit codes, --json schema,
edge cases (single shard, empty shard, missing file, bad weights), and
cache-hit vs cache-miss runs producing identical merged output."""

import json
import pathlib

import pytest

from repro.cli import main
from repro.profiling import normalize_profile, parse_fdata, write_fdata

pytestmark = pytest.mark.aggregate

SRC = """
func helper(x) {
  if (x % 3 == 0) { return x * 2; }
  return x + 1;
}
func main() {
  var i = 0;
  var acc = 0;
  while (i < 100) { acc = acc + helper(i); i = i + 1; }
  out acc;
  return 0;
}
"""

SRC_V2 = SRC.replace("x * 2", "x * 3").replace("i < 100", "i < 90")


@pytest.fixture(scope="module")
def rig(tmp_path_factory):
    """One built binary plus two host shards, shared by every test."""
    root = tmp_path_factory.mktemp("mergecli")
    (root / "app.bc").write_text(SRC)
    exe = root / "app.belf"
    assert main(["build", str(root / "app.bc"), "-o", str(exe)]) == 0
    shards = []
    for host, period in enumerate((51, 97)):
        shard = root / f"host{host}.fdata"
        assert main(["profile", str(exe), "-o", str(shard),
                     "--period", str(period)]) == 0
        shards.append(shard)
    return {"root": root, "exe": exe, "shards": shards}


def test_merge_two_shards_and_bolt(rig, capsys):
    root, exe = rig["root"], rig["exe"]
    merged = root / "merged.fdata"
    argv = ["merge-fdata"] + [str(s) for s in rig["shards"]]
    assert main(argv + ["-o", str(merged), "-b", str(exe)]) == 0
    out = capsys.readouterr().out
    assert "BOLT-INFO: merge-fdata: 2 shard(s)" in out
    assert merged.exists()

    # The merged profile is the sum of the shards.
    total = sum(parse_fdata(s.read_text()).total_branch_count()
                for s in rig["shards"])
    assert parse_fdata(merged.read_text()).total_branch_count() == total

    # And it drives a working rewrite.
    bolted = root / "app.bolt.belf"
    assert main(["bolt", str(exe), "-p", str(merged),
                 "-o", str(bolted)]) == 0
    capsys.readouterr()
    assert main(["run", str(exe)]) == 0
    baseline = capsys.readouterr().out
    assert main(["run", str(bolted)]) == 0
    assert capsys.readouterr().out == baseline


def test_merge_json_schema(rig, capsys):
    root = rig["root"]
    argv = ["merge-fdata"] + [str(s) for s in rig["shards"]]
    assert main(argv + ["-o", str(root / "m.fdata"),
                        "-b", str(rig["exe"]), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) >= {"shards", "merged", "coverage", "stale_shards",
                           "cache_hits", "dropped_lines", "diagnostics"}
    assert len(report["shards"]) == 2
    for shard in report["shards"]:
        assert set(shard) >= {"name", "sha", "build_id", "weight",
                              "effective_weight", "stale", "cache",
                              "branch_records", "sample_records",
                              "branch_count", "parse", "match", "flat",
                              "empty", "divergence", "coverage"}
        # The satellite fix: per-shard match-quality stats, even for
        # fresh shards (previously only the attach path reported them).
        assert shard["match"] is not None
        assert set(shard["match"]) == {"matched", "total", "out_of_range",
                                       "quality", "remapped"}
        assert shard["stale"] is False
        assert shard["coverage"] == 1.0
    assert report["merged"]["branch_count"] > 0
    assert report["coverage"]["shard_count"] == 2


def test_merge_single_shard_is_normal_form(rig, capsys):
    root = rig["root"]
    shard = rig["shards"][0]
    merged = root / "single.fdata"
    assert main(["merge-fdata", str(shard), "-o", str(merged)]) == 0
    expected = write_fdata(normalize_profile(parse_fdata(shard.read_text())))
    assert merged.read_text() == expected


def test_merge_missing_input_exits_nonzero(rig, capsys):
    root = rig["root"]
    code = main(["merge-fdata", str(root / "nope.fdata"),
                 "-o", str(root / "x.fdata")])
    assert code == 1
    assert "BOLT-ERROR: no such file" in capsys.readouterr().err


def test_merge_weight_count_mismatch(rig, capsys):
    root = rig["root"]
    argv = ["merge-fdata"] + [str(s) for s in rig["shards"]]
    code = main(argv + ["-o", str(root / "x.fdata"),
                        "--weight", "1.0", "--weight", "2.0",
                        "--weight", "3.0"])
    assert code == 1
    assert "BOLT-ERROR" in capsys.readouterr().err


def test_merge_nonpositive_weight_is_fd011_error(rig, capsys):
    root = rig["root"]
    merged = root / "w0.fdata"
    argv = ["merge-fdata"] + [str(s) for s in rig["shards"]]
    code = main(argv + ["-o", str(merged), "--weight", "0", "--weight", "1"])
    assert code == 1
    assert "FD011" in capsys.readouterr().err
    # The zero-weight shard is excluded; the other one still merges.
    other = normalize_profile(parse_fdata(rig["shards"][1].read_text()))
    assert (parse_fdata(merged.read_text()).total_branch_count()
            == other.total_branch_count())


def test_merge_weight_broadcast_scales(rig, capsys):
    root = rig["root"]
    merged = root / "w2.fdata"
    argv = ["merge-fdata"] + [str(s) for s in rig["shards"]]
    assert main(argv + ["-o", str(merged), "--weight", "2.0"]) == 0
    total = sum(parse_fdata(s.read_text()).total_branch_count()
                for s in rig["shards"])
    assert parse_fdata(merged.read_text()).total_branch_count() == 2 * total


def test_merge_empty_shard_warns_fd010(rig, capsys):
    root = rig["root"]
    empty = root / "empty.fdata"
    empty.write_text("# event: cycles\n# lbr: 1\n")
    merged = root / "withempty.fdata"
    assert main(["merge-fdata", str(rig["shards"][0]), str(empty),
                 "-o", str(merged)]) == 0
    assert "FD010" in capsys.readouterr().err
    expected = write_fdata(
        normalize_profile(parse_fdata(rig["shards"][0].read_text())))
    assert merged.read_text() == expected


def test_merge_cache_hit_and_miss_identical(rig, capsys):
    root, exe = rig["root"], rig["exe"]
    cache = root / "cache"
    argv = ["merge-fdata"] + [str(s) for s in rig["shards"]]

    nocache = root / "nocache.fdata"
    assert main(argv + ["-o", str(nocache), "-b", str(exe)]) == 0
    capsys.readouterr()
    miss = root / "miss.fdata"
    assert main(argv + ["-o", str(miss), "-b", str(exe),
                        "--cache-dir", str(cache), "--json"]) == 0
    miss_report = json.loads(capsys.readouterr().out)
    hit = root / "hit.fdata"
    assert main(argv + ["-o", str(hit), "-b", str(exe),
                        "--cache-dir", str(cache), "--json"]) == 0
    hit_report = json.loads(capsys.readouterr().out)

    assert nocache.read_text() == miss.read_text() == hit.read_text()
    assert miss_report["cache_hits"] == 0
    assert hit_report["cache_hits"] == 2
    # Everything except the cache state matches between hit and miss.
    for a, b in zip(miss_report["shards"], hit_report["shards"]):
        assert a.pop("cache") == "miss"
        assert b.pop("cache") == "hit"
        assert a == b


def test_merge_corrupt_cache_entry_is_a_miss(rig, capsys):
    root, exe = rig["root"], rig["exe"]
    cache = root / "cache2"
    argv = ["merge-fdata"] + [str(s) for s in rig["shards"]]
    first = root / "c1.fdata"
    assert main(argv + ["-o", str(first), "-b", str(exe),
                        "--cache-dir", str(cache)]) == 0
    capsys.readouterr()
    for entry in cache.glob("*.shard.json"):
        entry.write_text("{not json")
    second = root / "c2.fdata"
    assert main(argv + ["-o", str(second), "-b", str(exe),
                        "--cache-dir", str(cache), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["cache_hits"] == 0
    assert first.read_text() == second.read_text()


def test_merge_stale_shards_against_rebuilt_binary(rig, capsys):
    """Shards from build A merged against build B: detected stale,
    fuzzy-reconciled, per-shard match quality in the report (FD008)."""
    root = rig["root"]
    (root / "app2.bc").write_text(SRC_V2)
    exe2 = root / "app2.belf"
    assert main(["build", str(root / "app2.bc"), "-o", str(exe2)]) == 0
    capsys.readouterr()
    merged = root / "stale.fdata"
    argv = ["merge-fdata"] + [str(s) for s in rig["shards"]]
    assert main(argv + ["-o", str(merged), "-b", str(exe2), "--json"]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["stale_shards"] == 2
    assert "FD008" in captured.err
    for shard in report["shards"]:
        assert shard["stale"] is True
        assert shard["match"] is not None
        assert shard["effective_weight"] <= shard["weight"]
    # The merged profile is stamped for the *target* build, so a
    # follow-up bolt run will not re-flag it as stale.
    assert parse_fdata(merged.read_text()).build_id is not None


def test_merge_min_match_quality_excludes_shard(rig, capsys):
    root = rig["root"]
    (root / "app2.bc").write_text(SRC_V2)
    exe2 = root / "app2b.belf"
    assert main(["build", str(root / "app2.bc"), "-o", str(exe2)]) == 0
    capsys.readouterr()
    merged = root / "floor.fdata"
    argv = ["merge-fdata"] + [str(s) for s in rig["shards"]]
    assert main(argv + ["-o", str(merged), "-b", str(exe2),
                        "--min-match-quality", "1.1"]) == 0
    assert "FD013" in capsys.readouterr().err
    assert parse_fdata(merged.read_text()).total_branch_count() == 0


@pytest.mark.parametrize("factor", ["-1", "5"])
def test_merge_stale_downweight_out_of_range(rig, capsys, factor):
    """A factor outside [0, 1] would subtract or amplify stale mass."""
    root = rig["root"]
    merged = root / "badfactor.fdata"
    argv = ["merge-fdata"] + [str(s) for s in rig["shards"]]
    assert main(argv + ["-o", str(merged),
                        f"--stale-downweight={factor}"]) == 1
    err = [l for l in capsys.readouterr().err.splitlines() if l.strip()]
    assert len(err) == 1
    assert err[0].startswith("BOLT-ERROR:") and "stale downweight" in err[0]
    assert not merged.exists()
