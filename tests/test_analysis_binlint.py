"""Whole-binary lint, the static validation tier, and the lint CLI.

The acceptance contract: each of the four binary fault classes maps to
a stable rule ID, ``--validate static`` rejects all of them (falling
back to passthrough), and clean binaries — input and BOLTed output —
lint with zero findings.
"""

import json
import pathlib

import pytest

from repro.analysis import lint_binary, validate_translation
from repro.analysis.rules import RULES, parse_suppressions
from repro.belf import RelocType, write_binary
from repro.belf.relocation import Relocation
from repro.cli import main
from repro.compiler import build_executable
from repro.core import BoltOptions, optimize_binary
from repro.faults import BINARY_FAULTS, clone_binary, inject_binary_fault
from repro.isa import Op
from repro.isa.decoding import decode_stream
from repro.profiling import profile_binary
from repro.uarch import run_binary

pytestmark = pytest.mark.analysis

SOURCE = """
func score(x) {
  if (x % 7 == 3) { return x * 2 + 11; }
  return x + 1;
}
func helper(a, b) {
  var t = a * 3;
  if (t > b) { return t - b; }
  return b - t;
}
func spare(n) {
  var s = 0;
  var j = 0;
  while (j < n) { s = s + helper(j, n); j = j + 1; }
  return s;
}
func main() {
  var i = 0;
  var total = 0;
  while (i < 2000) { total = total + score(i); i = i + 1; }
  out total;
  return 0;
}
"""

#: Fault class -> the rule ID that must identify it.
FAULT_RULES = {
    "garbage-text": "BL102",
    "truncate-section": "BL103",
    "bogus-reloc": "BL106",
    "wrong-symbol-size": "BL105",
}

#: Functions the workload never calls with these inputs — corrupting
#: them keeps the program runnable, which is exactly the damage the
#: structural tier cannot see.
VICTIMS = ["helper", "spare"]


@pytest.fixture(scope="module")
def rig():
    exe, _ = build_executable([("demo", SOURCE)], emit_relocs=True)
    profile, _ = profile_binary(exe)
    return {"exe": exe, "profile": profile,
            "output": run_binary(exe).output}


# ---------------------------------------------------------------------------
# Clean binaries lint clean
# ---------------------------------------------------------------------------


def test_clean_input_zero_findings(rig):
    report = lint_binary(rig["exe"])
    assert report.findings == []


def test_clean_rewrite_passes_static_gate(rig):
    result = optimize_binary(rig["exe"], rig["profile"],
                             BoltOptions(validate_output="static"))
    assert result.degraded is None
    assert lint_binary(result.binary).findings == []
    assert run_binary(result.binary).output == rig["output"]


# ---------------------------------------------------------------------------
# Fault corpus: every corruption class maps to a stable rule ID
# ---------------------------------------------------------------------------


@pytest.mark.faults
@pytest.mark.parametrize("kind", BINARY_FAULTS)
def test_fault_class_maps_to_rule(rig, kind):
    bad, affected = inject_binary_fault(rig["exe"], kind, targets=VICTIMS)
    assert affected
    report = lint_binary(bad)
    assert FAULT_RULES[kind] in report.rules_hit()
    assert report.errors  # every class is ERROR severity


@pytest.mark.faults
@pytest.mark.parametrize("kind", BINARY_FAULTS)
def test_static_gate_rejects_corrupt_input(rig, kind):
    bad, _ = inject_binary_fault(rig["exe"], kind, targets=VICTIMS)
    result = optimize_binary(bad, rig["profile"],
                             BoltOptions(validate_output="static"))
    assert result.degraded == "passthrough"
    rendered = " ".join(d.render() for d in result.diagnostics.records)
    assert FAULT_RULES[kind] in rendered


@pytest.mark.faults
def test_structural_tier_misses_bogus_reloc(rig):
    """The differentiator: a dangling relocation produces a wrong
    binary the structural tier happily ships; only the static tier
    (input lint, BL106) rejects it."""
    bad, _ = inject_binary_fault(rig["exe"], "bogus-reloc", targets=VICTIMS)
    structural = optimize_binary(
        bad, rig["profile"],
        BoltOptions(validate_output="structural", lint="none"))
    assert structural.degraded is None  # sailed through
    static = optimize_binary(bad, rig["profile"],
                             BoltOptions(validate_output="static"))
    assert static.degraded == "passthrough"


def test_dangling_relocations_name_their_owner(rig):
    """Each BL106 finding names the function whose body holds the
    relocation: a function's first and last byte name it, padding
    between functions and a data section name none."""
    bad = clone_binary(rig["exe"])
    funcs = sorted((s for s in bad.functions() if s.size > 0),
                   key=lambda s: (s.value, s.size))
    places = []
    for prev, sym in zip([None] + funcs, funcs):
        if prev is not None and prev.value + prev.size < sym.value:
            places.append((prev.value + prev.size, None))
        places.append((sym.value, sym.link_name()))
        places.append((sym.value + sym.size - 1, sym.link_name()))
    assert any(owner is None for _, owner in places)
    expected = {}
    for address, owner in places:
        section = bad.section_at(address)
        name = f"missing_{len(expected)}"
        bad.relocations.append(Relocation(
            section.name, address - section.addr, RelocType.ABS64, name))
        expected[name] = owner
    data = next(s for s in bad.sections.values() if not s.is_exec)
    bad.relocations.append(Relocation(data.name, 0, RelocType.ABS64,
                                      "missing_data"))
    expected["missing_data"] = None
    found = {f.message.split("'")[1]: f.function
             for f in lint_binary(bad).findings if f.rule == "BL106"}
    assert found == expected


# ---------------------------------------------------------------------------
# Translation validation: a byte flip in the emitted code is caught
# ---------------------------------------------------------------------------


def test_translation_validator_catches_byte_flip(rig):
    result = optimize_binary(rig["exe"], rig["profile"],
                             BoltOptions(validate_output="none"))
    assert result.fragments
    clean = validate_translation(result.context, result.binary,
                                 result.fragments)
    assert clean == []

    # Corrupt the trailing immediate byte of some emitted instruction.
    flipped = None
    for name, frag in result.fragments.items():
        if frag.raw:
            continue
        section = result.binary.section_at(frag.address)
        start = frag.address - section.addr
        insns = decode_stream(section.data, start, start + frag.size,
                              base_address=frag.address)
        for insn in insns:
            if insn.op in (Op.CMP_RI, Op.ADD_RI, Op.MOV_RI32):
                offset = insn.address - section.addr + insn.size - 1
                section.data[offset] ^= 0x40
                flipped = (name, insn)
                break
        if flipped:
            break
    assert flipped is not None
    findings = validate_translation(result.context, result.binary,
                                    result.fragments)
    assert any(f.rule in ("BL201", "BL202") for f in findings)


# ---------------------------------------------------------------------------
# Suppression
# ---------------------------------------------------------------------------


def test_parse_suppressions_forms():
    sup = parse_suppressions("BL003, crc32:BL001,crc32:*")
    assert (None, "BL003") in sup
    assert ("crc32", "BL001") in sup
    assert ("crc32", "*") in sup
    assert parse_suppressions(["BL001"]) == frozenset({(None, "BL001")})


def test_lint_suppression_counts(rig):
    bad, _ = inject_binary_fault(rig["exe"], "garbage-text",
                                 targets=VICTIMS)
    report = lint_binary(bad, suppress=("BL102",))
    assert report.suppressed > 0
    assert "BL102" not in report.rules_hit()


def test_rule_registry_is_stable():
    # Rule IDs are a public contract: never renumber, only add.
    assert {"BL001", "BL002", "BL003", "BL004", "BL005", "BL006", "BL007",
            "BL101", "BL102", "BL103", "BL104", "BL105", "BL106",
            "BL201", "BL202", "BL203", "BL204"} <= set(RULES)


# ---------------------------------------------------------------------------
# CLI: repro-bolt lint
# ---------------------------------------------------------------------------


@pytest.fixture()
def cli_files(tmp_path, rig):
    clean = tmp_path / "clean.belf"
    clean.write_bytes(write_binary(rig["exe"]))
    bad_exe, _ = inject_binary_fault(rig["exe"], "garbage-text",
                                     targets=VICTIMS)
    bad = tmp_path / "bad.belf"
    bad.write_bytes(write_binary(bad_exe))
    return {"clean": clean, "bad": bad, "dir": tmp_path}


def test_lint_cli_clean_exits_zero(cli_files, capsys):
    assert main(["lint", str(cli_files["clean"])]) == 0
    out = capsys.readouterr().out
    assert "BOLT-INFO: lint" in out
    assert "0 error(s)" in out


def test_lint_cli_errors_exit_nonzero(cli_files, capsys):
    assert main(["lint", str(cli_files["bad"])]) == 1
    out = capsys.readouterr().out
    assert "BL102" in out


def test_lint_cli_json(cli_files, capsys):
    assert main(["lint", str(cli_files["bad"]), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["errors"] > 0
    assert "BL102" in payload["summary"]["rules"]
    assert all("rule" in f and "message" in f for f in payload["findings"])


def test_lint_cli_suppress(cli_files, capsys):
    assert main(["lint", str(cli_files["bad"]),
                 "--suppress", "BL102"]) == 0
    assert "suppressed" in capsys.readouterr().out


def test_bolt_cli_validate_static(cli_files, tmp_path, capsys):
    fdata = tmp_path / "p.fdata"
    assert main(["profile", str(cli_files["clean"]),
                 "-o", str(fdata)]) == 0
    capsys.readouterr()
    out = tmp_path / "out.belf"
    assert main(["bolt", str(cli_files["clean"]), "-p", str(fdata),
                 "-o", str(out), "--validate", "static"]) == 0
    err = capsys.readouterr().err
    assert "degraded" not in err
