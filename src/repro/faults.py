"""Deterministic fault injection for robustness testing.

Production BOLT's promise is that it *never makes a binary wrong*:
functions it cannot safely analyze are conservatively skipped, bad
profile records are dropped, and a rewrite that cannot be validated is
abandoned rather than shipped.  This module makes that promise
testable: it produces deterministically-corrupted binaries and
profiles covering the failure shapes real deployments hit —

Binary faults (:data:`BINARY_FAULTS`):

* ``garbage-text`` — function bodies overwritten with invalid opcodes
  (a packer, data-in-text, or plain disassembler bug).
* ``truncate-section`` — an executable section loses its tail
  (truncated download / corrupt objcopy).
* ``bogus-reloc`` — a relocation against a symbol that does not exist
  (stale --emit-relocs side tables).
* ``wrong-symbol-size`` — FUNC symbol sizes shrunk (hand-written asm
  with bad .size directives, the paper's section 3.3 headache).

Profile faults (:data:`PROFILE_FAULTS`):

* ``negative-counts`` — corrupted aggregation produced negative counts.
* ``out-of-range`` — branch/sample offsets beyond the function body
  (stale profile from a larger build).
* ``mid-instruction`` — branch endpoints shifted off instruction
  boundaries (skid, or a cross-build profile).

All injectors are pure: they deep-copy their input (binaries via a
serialization round-trip) and are deterministic in ``seed``.
"""

import random

from repro.belf import RelocType, SymbolType, read_binary, write_binary
from repro.belf.relocation import Relocation

#: A byte that can never begin a valid BX86 instruction.
BAD_OPCODE = 0xFF

BINARY_FAULTS = ("garbage-text", "truncate-section", "bogus-reloc",
                 "wrong-symbol-size")
PROFILE_FAULTS = ("negative-counts", "out-of-range", "mid-instruction")


class FaultInjectionError(Exception):
    """The requested fault cannot be injected (e.g. no targets)."""


def clone_binary(binary):
    """An independent copy, via the real serialization round-trip."""
    return read_binary(write_binary(binary))


def clone_profile(profile):
    from repro.profiling import BinaryProfile

    out = BinaryProfile(event=profile.event, lbr=profile.lbr,
                        build_id=profile.build_id)
    out.branches = {key: list(value)
                    for key, value in profile.branches.items()}
    out.ip_samples = dict(profile.ip_samples)
    return out


# ---------------------------------------------------------------------------
# Binary faults
# ---------------------------------------------------------------------------


def inject_binary_fault(binary, kind, targets=None, fraction=0.25, seed=0):
    """Corrupt a copy of ``binary``; returns (corrupted, affected names).

    ``targets`` restricts corruption to the named functions (e.g. the
    ones a workload never executes, so output equivalence stays
    checkable); otherwise a deterministic ``fraction`` of functions is
    picked.
    """
    if kind not in BINARY_FAULTS:
        raise FaultInjectionError(f"unknown binary fault {kind!r}")
    out = clone_binary(binary)
    rng = random.Random(seed)
    victims = _pick_functions(out, targets, fraction, rng)
    if not victims:
        raise FaultInjectionError(f"no functions to corrupt for {kind!r}")
    if kind == "garbage-text":
        return out, _garbage_text(out, victims)
    if kind == "truncate-section":
        return out, _truncate_section(out, victims)
    if kind == "bogus-reloc":
        return out, _bogus_reloc(out, victims)
    return out, _wrong_symbol_size(out, victims)


def _pick_functions(binary, targets, fraction, rng):
    syms = [s for s in binary.functions() if s.size > 0]
    if targets is not None:
        wanted = set(targets)  # hoisted: was rebuilt per symbol
        chosen = [s for s in syms if s.link_name() in wanted]
    else:
        count = max(1, int(len(syms) * fraction))
        chosen = rng.sample(sorted(syms, key=lambda s: s.link_name()),
                            min(count, len(syms)))
    return sorted(chosen, key=lambda s: s.value)


def _garbage_text(binary, victims):
    affected = []
    for sym in victims:
        section = binary.section_at(sym.value)
        if section is None or not section.is_exec:
            continue
        off = sym.value - section.addr
        # The body begins with an undecodable byte: disassembly fails
        # immediately and the function must be conservatively skipped.
        span = min(4, sym.size)
        section.data[off : off + span] = bytes([BAD_OPCODE]) * span
        affected.append(sym.link_name())
    return affected


def _truncate_section(binary, victims):
    """Drop every byte from the lowest victim's start to section end."""
    by_section = {}
    for sym in victims:
        section = binary.section_at(sym.value)
        if section is not None and section.is_exec:
            by_section.setdefault(section.name, []).append(sym)
    affected = []
    for name, syms in by_section.items():
        section = binary.get_section(name)
        cut = min(s.value for s in syms) - section.addr
        # Functions wholly or partly beyond the cut lose bytes.
        for other in binary.functions():
            if (binary.section_at(other.value) is section
                    and other.value + other.size > section.addr + cut):
                affected.append(other.link_name())
        del section.data[cut:]
    return sorted(set(affected))


def _bogus_reloc(binary, victims):
    """Attach relocations naming a symbol that does not exist.

    Placed over a ``MOV_RI64`` immediate when one exists in a victim —
    in relocations mode the rewriter symbolizes that operand through
    the relocation and must cope with the unresolvable name."""
    from repro.isa import Op, decode_stream

    affected = []
    for sym in victims:
        section = binary.section_at(sym.value)
        if section is None or not section.is_exec:
            continue
        start = sym.value - section.addr
        offset = start  # fallback: function start
        try:
            insns = decode_stream(section.data, start, start + sym.size,
                                  base_address=sym.value)
        except Exception:
            insns = []
        for insn in insns:
            if insn.op == Op.MOV_RI64:
                offset = insn.address - section.addr + 2
                break
        binary.relocations.append(Relocation(
            section=section.name, offset=offset, type=RelocType.ABS64,
            symbol=f"__bolt_fault_missing_{sym.link_name()}__", addend=0))
        affected.append(sym.link_name())
    binary.emit_relocs = True
    return affected


def _wrong_symbol_size(binary, victims):
    """Shrink symbol sizes: the classic bad hand-written-asm metadata."""
    names = {s.link_name() for s in victims}
    affected = []
    for sym in binary.symbols:
        if sym.type == SymbolType.FUNC and sym.link_name() in names \
                and sym.size > 2:
            sym.size = sym.size // 2 + 1
            affected.append(sym.link_name())
    binary.invalidate_symbol_cache()
    return affected


# ---------------------------------------------------------------------------
# Profile faults
# ---------------------------------------------------------------------------


def inject_profile_fault(profile, kind, fraction=0.25, seed=0):
    """Corrupt a copy of ``profile``; returns the corrupted profile."""
    if kind not in PROFILE_FAULTS:
        raise FaultInjectionError(f"unknown profile fault {kind!r}")
    out = clone_profile(profile)
    rng = random.Random(seed)
    if kind == "negative-counts":
        _negative_counts(out, fraction, rng)
    elif kind == "out-of-range":
        _out_of_range(out, fraction, rng)
    else:
        _mid_instruction(out, fraction, rng)
    return out


def _sample_keys(mapping, fraction, rng):
    keys = sorted(mapping)
    count = max(1, int(len(keys) * fraction)) if keys else 0
    return rng.sample(keys, min(count, len(keys)))


def _negative_counts(profile, fraction, rng):
    for key in _sample_keys(profile.branches, fraction, rng):
        entry = profile.branches[key]
        entry[0] = -abs(entry[0]) - 1
    for key in _sample_keys(profile.ip_samples, fraction, rng):
        profile.ip_samples[key] = -abs(profile.ip_samples[key]) - 1


def _out_of_range(profile, fraction, rng):
    """Push offsets far beyond any plausible function body."""
    for (f, t) in _sample_keys(profile.branches, fraction, rng):
        entry = profile.branches.pop((f, t))
        shifted = ((f[0], f[1] + 0x100000), (t[0], t[1] + 0x100000))
        profile.branches[shifted] = entry
    for loc in _sample_keys(profile.ip_samples, fraction, rng):
        count = profile.ip_samples.pop(loc)
        profile.ip_samples[(loc[0], loc[1] + 0x100000)] = count


def _mid_instruction(profile, fraction, rng):
    """Shift branch endpoints off instruction boundaries (skid)."""
    for (f, t) in _sample_keys(profile.branches, fraction, rng):
        entry = profile.branches.pop((f, t))
        shifted = ((f[0], f[1] + 1), (t[0], max(1, t[1] + 1)))
        merged = profile.branches.setdefault(shifted, [0, 0])
        merged[0] += entry[0]
        merged[1] += entry[1]


# ---------------------------------------------------------------------------
# Helpers for choosing safe targets
# ---------------------------------------------------------------------------


def executed_functions(binary, inputs=None, max_instructions=10_000_000):
    """Link names of every function fetched during a run.

    Fault-injection tests that want to assert output equivalence pick
    corruption targets *outside* this set: the corrupted input binary
    and the rewritten one must then behave identically.
    """
    from repro.profiling import AddressMapper
    from repro.uarch import run_binary

    cpu = run_binary(binary, inputs=inputs,
                     max_instructions=max_instructions, fetch_heat=True)
    mapper = AddressMapper(binary)
    names = set()
    for addr in cpu.fetch_heat:
        loc = mapper.map(addr)
        if loc is not None:
            names.add(loc[0])
    return names


def unexecuted_functions(binary, inputs=None, max_instructions=10_000_000):
    """FUNC symbols never fetched during a run (safe corruption targets)."""
    hot = executed_functions(binary, inputs=inputs,
                             max_instructions=max_instructions)
    return sorted(s.link_name() for s in binary.function_symbols()
                  if s.link_name() not in hot)
