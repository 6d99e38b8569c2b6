"""The validation gate on the fault rig: each tier's verdict
(``result.degraded``) for every binary fault class and a clean rewrite,
and the static tier's cost — one CFG reconstruction of the emitted
binary per rewrite attempt."""

import pytest

from repro.core import BoltOptions, optimize_binary
from repro.faults import BINARY_FAULTS, inject_binary_fault
from tests.test_faults import _quarter, rig  # noqa: F401 (fixture)

pytestmark = pytest.mark.faults

#: (fault, tier) -> result.degraded.  The static tier rejects every
#: corrupt input up front; the structural tier contains the damage:
#: an undecodable function cannot move, so relocations mode fails and
#: the in-place retry ships, while a truncated .text fails both modes.
VERDICTS = {
    ("clean", "structural"): None,
    ("clean", "static"): None,
    ("garbage-text", "structural"): "in-place",
    ("garbage-text", "static"): "passthrough",
    ("truncate-section", "structural"): "passthrough",
    ("truncate-section", "static"): "passthrough",
    ("bogus-reloc", "structural"): None,
    ("bogus-reloc", "static"): "passthrough",
    ("wrong-symbol-size", "structural"): "in-place",
    ("wrong-symbol-size", "static"): "passthrough",
}


@pytest.mark.parametrize("tier", ["structural", "static"])
@pytest.mark.parametrize("kind", ("clean",) + BINARY_FAULTS)
def test_gate_verdict(rig, kind, tier):
    exe = rig["exe"]
    if kind != "clean":
        exe, _ = inject_binary_fault(exe, kind,
                                     targets=_quarter(rig["cold"], exe))
    result = optimize_binary(exe, rig["profile"],
                             BoltOptions(validate_output=tier))
    assert result.degraded == VERDICTS[kind, tier]
    if kind == "clean":
        assert not result.diagnostics.warnings
        assert not result.diagnostics.errors


@pytest.mark.parametrize("tier", ["structural", "static"])
def test_output_cfgs_rebuilt_once(rig, monkeypatch, tier):
    import repro.core.cfg_builder as cfg_builder

    rebuilt = []
    original = cfg_builder.build_all_functions

    def counting(context, *args, **kwargs):
        rebuilt.append(context.binary)
        return original(context, *args, **kwargs)

    monkeypatch.setattr(cfg_builder, "build_all_functions", counting)
    result = optimize_binary(rig["exe"], rig["profile"],
                             BoltOptions(validate_output=tier))
    assert result.degraded is None
    assert sum(binary is result.binary for binary in rebuilt) == 1
