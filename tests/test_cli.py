"""CLI smoke tests (build/run/profile/bolt/stat/dump on real files)."""

import pathlib

import pytest

from repro.cli import main

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


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "app.bc").write_text(SRC)
    return tmp_path


def test_cli_full_pipeline(workdir, capsys):
    app = workdir / "app.bc"
    exe = workdir / "app.belf"
    fdata = workdir / "app.fdata"
    bolted = workdir / "app.bolt.belf"

    assert main(["build", str(app), "-o", str(exe)]) == 0
    assert exe.exists()

    assert main(["run", str(exe)]) == 0
    out = capsys.readouterr().out
    baseline_output = [l for l in out.splitlines() if l.strip().isdigit()]

    assert main(["profile", str(exe), "-o", str(fdata),
                 "--period", "51"]) == 0
    assert "branch records" in capsys.readouterr().out
    assert fdata.read_text().startswith("# event:")

    assert main(["bolt", str(exe), "-p", str(fdata), "-o", str(bolted),
                 "--dyno-stats"]) == 0
    bolt_out = capsys.readouterr().out
    assert "dyno-stats" in bolt_out

    assert main(["run", str(bolted)]) == 0
    out = capsys.readouterr().out
    assert [l for l in out.splitlines()
            if l.strip().isdigit()] == baseline_output

    assert main(["stat", str(bolted)]) == 0
    assert "instructions" in capsys.readouterr().out


def test_cli_build_pgo(workdir, capsys):
    app = workdir / "app.bc"
    exe = workdir / "app.pgo.belf"
    assert main(["build", str(app), "-o", str(exe), "--pgo", "--lto"]) == 0
    assert main(["run", str(exe)]) == 0


def test_cli_dump(workdir, capsys):
    app = workdir / "app.bc"
    exe = workdir / "app.belf"
    main(["build", str(app), "-o", str(exe)])
    capsys.readouterr()
    assert main(["dump", str(exe), "-f", "helper"]) == 0
    out = capsys.readouterr().out
    assert 'Binary Function "helper"' in out
    assert "BB Layout" in out


def test_cli_dump_with_profile(workdir, capsys):
    app = workdir / "app.bc"
    exe = workdir / "app.belf"
    fdata = workdir / "app.fdata"
    main(["build", str(app), "-o", str(exe)])
    main(["profile", str(exe), "-o", str(fdata), "--period", "51"])
    capsys.readouterr()
    assert main(["dump", str(exe), "-f", "main", "-p", str(fdata)]) == 0
    out = capsys.readouterr().out
    assert "Exec Count" in out


def test_cli_dump_unknown_function(workdir, capsys):
    app = workdir / "app.bc"
    exe = workdir / "app.belf"
    main(["build", str(app), "-o", str(exe)])
    assert main(["dump", str(exe), "-f", "nope"]) == 1


def test_cli_bolt_without_profile(workdir, capsys):
    app = workdir / "app.bc"
    exe = workdir / "app.belf"
    bolted = workdir / "app.noprof.belf"
    main(["build", str(app), "-o", str(exe)])
    assert main(["bolt", str(exe), "-o", str(bolted)]) == 0
    assert main(["run", str(bolted)]) == 0


def test_cli_objdump(workdir, capsys):
    app = workdir / "app.bc"
    exe = workdir / "app.belf"
    main(["build", str(app), "-o", str(exe)])
    capsys.readouterr()
    assert main(["objdump", str(exe)]) == 0
    out = capsys.readouterr().out
    assert "Disassembly of section .text:" in out
    assert "<main>:" in out
    assert "retq" in out


@pytest.mark.parametrize("command", ["run", "stat", "profile"])
def test_cli_instruction_limit_is_one_line(workdir, capsys, command):
    exe = workdir / "app.belf"
    main(["build", str(workdir / "app.bc"), "-o", str(exe)])
    capsys.readouterr()
    argv = [command, str(exe), "--max-instructions", "100"]
    if command == "profile":
        argv += ["-o", str(workdir / "app.fdata")]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("machine fault: exceeded 100 instructions")


@pytest.mark.parametrize("period", ["0", "-5"])
def test_cli_profile_rejects_nonpositive_period(workdir, capsys, period):
    exe = workdir / "app.belf"
    fdata = workdir / "app.fdata"
    main(["build", str(workdir / "app.bc"), "-o", str(exe)])
    capsys.readouterr()
    assert main(["profile", str(exe), "-o", str(fdata),
                 f"--period={period}"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("BOLT-ERROR: malformed input")
    assert not fdata.exists()


def test_cli_bolt_lite_and_no_lite(workdir, capsys):
    """With the exact profile ``profile`` writes, ``bolt`` leaves the
    functions the profile never names (``unused`` among them) in place
    and says so; ``--no-lite`` processes every function.  Both outputs
    print the input's output."""
    app = workdir / "app.bc"
    app.write_text(SRC + "func unused(x) { return x * 7; }\n")
    exe = workdir / "app.belf"
    fdata = workdir / "app.fdata"
    main(["build", str(app), "-o", str(exe)])
    main(["profile", str(exe), "-o", str(fdata), "--period", "51"])
    capsys.readouterr()
    main(["run", str(exe)])
    expected = capsys.readouterr().out.splitlines()[0]
    for flags, lite in (([], True), (["--no-lite"], False)):
        bolted = workdir / f"app{len(flags)}.bolt.belf"
        assert main(["bolt", str(exe), "-p", str(fdata), "-o", str(bolted),
                     "-v", *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert ("+0B in place" not in lines[0]) == lite
        assert any(line.startswith("BOLT-INFO: lite mode: ")
                   for line in lines) == lite
        assert main(["run", str(bolted)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == expected


def test_cli_bolt_verbose_prints_each_line_once(workdir, capsys):
    """``-v`` with the timing options prints the timing tables, every
    BOLT-WARNING and the degraded line once, not once more in the
    summary."""
    from repro.belf import read_binary, write_binary
    from repro.faults import inject_binary_fault

    exe = workdir / "app.belf"
    fdata = workdir / "app.fdata"
    main(["build", str(workdir / "app.bc"), "-o", str(exe)])
    main(["profile", str(exe), "-o", str(fdata), "--period", "51"])
    corrupted, _ = inject_binary_fault(read_binary(exe.read_bytes()),
                                       "garbage-text", targets=["helper"])
    bad = workdir / "app.bad.belf"
    bad.write_bytes(write_binary(corrupted))
    capsys.readouterr()
    assert main(["bolt", str(bad), "-p", str(fdata),
                 "-o", str(workdir / "app.bolt.belf"), "-v",
                 "--time-opts", "--time-rewrite"]) == 0
    captured = capsys.readouterr()
    lines = (captured.out + captured.err).splitlines()
    assert "BOLT-WARNING: output degraded to in-place mode" in lines
    once = [l for l in lines if l.startswith(
        ("BOLT-WARNING", "BOLT-INFO: pass timing", "BOLT-INFO: rewrite"))]
    assert len(once) > 3
    assert len(once) == len(set(once)), sorted(once)


@pytest.mark.parametrize("level", ["7", "-1"])
def test_cli_bolt_rejects_out_of_range_split_functions(workdir, capsys, level):
    exe = workdir / "app.belf"
    main(["build", str(workdir / "app.bc"), "-o", str(exe)])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["bolt", str(exe), "-o", str(workdir / "app.bolt.belf"),
              f"--split-functions={level}"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bolt", "dump"])
def test_cli_negative_count_profile_is_refused(workdir, capsys, command):
    """A trusted single profile is read strictly: a line the shard
    parser would drop (here FD005) refuses the whole file."""
    exe = workdir / "app.belf"
    main(["build", str(workdir / "app.bc"), "-o", str(exe)])
    fdata = workdir / "neg.fdata"
    fdata.write_text("# event: cycles\n1 main 4 1 helper 0 0 5\n"
                     "1 helper 8 1 main 9 0 -3\n")
    capsys.readouterr()
    argv = [command, str(exe), "-p", str(fdata)]
    argv += ["-o", str(workdir / "out.belf")] if command == "bolt" else []
    assert main(argv) == 1
    err = [l for l in capsys.readouterr().err.splitlines() if l.strip()]
    assert len(err) == 1
    assert err[0].startswith("BOLT-ERROR: malformed input: FD005")
    assert "line 3" in err[0]


def test_cli_whitespace_in_symbol_name_roundtrips(workdir, capsys):
    """Symbol names are arbitrary strings: a tab in one must survive
    profile -> .fdata -> bolt -p."""
    from repro.belf import read_binary, write_binary

    exe = workdir / "app.belf"
    main(["build", str(workdir / "app.bc"), "-O", "0", "-o", str(exe)])
    binary = read_binary(exe.read_bytes())
    binary.get_symbol("helper").name = "hel\tper"
    exe.write_bytes(write_binary(binary))
    fdata = workdir / "app.fdata"
    assert main(["profile", str(exe), "-o", str(fdata),
                 "--period", "51"]) == 0
    assert "hel%09per" in fdata.read_text()
    capsys.readouterr()
    assert main(["run", str(exe)]) == 0
    baseline = capsys.readouterr().out
    bolted = workdir / "app.bolt.belf"
    assert main(["bolt", str(exe), "-p", str(fdata), "-o", str(bolted)]) == 0
    capsys.readouterr()
    assert main(["run", str(bolted)]) == 0
    assert capsys.readouterr().out == baseline


def test_cli_build_non_decimal_digit_names_file_and_line(tmp_path, capsys):
    """``²`` passes ``str.isdigit`` but is no number: one front-end
    diagnostic at file:line, not a bare ``int()`` failure."""
    source = tmp_path / "sup.bc"
    source.write_text("func main() {\n  return ²;\n}\n", encoding="utf-8")
    assert main(["build", str(source), "-o", str(tmp_path / "sup.belf")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: sup.bc:2: unexpected character '²'"]
    assert not (tmp_path / "sup.belf").exists()
