"""Tests for the BELF container and its byte serialization."""

import pytest
from hypothesis import given, strategies as st

from repro.belf import (
    Binary,
    Section,
    Symbol,
    Relocation,
    FrameRecord,
    CallSiteRecord,
    LineTable,
    SectionType,
    SectionFlag,
    SymbolType,
    SymbolBind,
    RelocType,
    RelocationOverflow,
    apply_relocation,
    write_binary,
    read_binary,
    BelfFormatError,
)
from tests.oracles.reference_kernels import (
    function_at_reference,
    section_at_reference,
)


def make_sample_binary():
    binary = Binary(kind="exec", name="sample")
    text = Section(".text", flags=SectionFlag.ALLOC | SectionFlag.EXEC,
                   addr=0x10000, data=b"\x01\x02\x03\x04", align=16)
    binary.add_section(text)
    data = Section(".data", flags=SectionFlag.ALLOC | SectionFlag.WRITE,
                   addr=0x20000, data=b"\x00" * 16)
    binary.add_section(data)
    bss = Section(".bss", type=SectionType.NOBITS,
                  flags=SectionFlag.ALLOC | SectionFlag.WRITE,
                  addr=0x30000, mem_size=64)
    binary.add_section(bss)
    binary.add_symbol(Symbol("main", value=0x10000, size=2, type=SymbolType.FUNC,
                             bind=SymbolBind.GLOBAL, section=".text"))
    binary.add_symbol(Symbol("helper", value=0x10002, size=2, type=SymbolType.FUNC,
                             bind=SymbolBind.LOCAL, section=".text", module="m1"))
    binary.add_symbol(Symbol("gvar", value=0x20000, size=8, type=SymbolType.OBJECT,
                             section=".data"))
    binary.relocations.append(
        Relocation(".text", 0x2, RelocType.PC32, "helper", addend=-4))
    binary.frame_records["main"] = FrameRecord(
        "main", frame_size=32, saved_regs=[(3, 8)],
        callsites=[CallSiteRecord(0, 4, 2, action=1)])
    table = LineTable()
    table.add(0x10000, "a.bc", 10)
    table.add(0x10002, "b.bc", 20)
    binary.line_table = table
    binary.entry = 0x10000
    binary.emit_relocs = True
    return binary


def test_section_basics():
    s = Section(".text", flags=SectionFlag.ALLOC | SectionFlag.EXEC, addr=0x1000,
                data=b"abcd")
    assert s.size == 4
    assert s.end == 0x1004
    assert s.is_exec and s.is_alloc and not s.is_writable
    assert s.contains(0x1003) and not s.contains(0x1004)
    off = s.append(b"xy")
    assert off == 4 and s.size == 6
    s.pad_to(8)
    assert s.size == 8


def test_nobits_section_size():
    s = Section(".bss", type=SectionType.NOBITS, mem_size=128)
    assert s.size == 128
    s.size = 256
    assert s.size == 256
    p = Section(".data", data=b"ab")
    with pytest.raises(ValueError):
        p.size = 10


def test_symbol_link_names():
    g = Symbol("foo", bind=SymbolBind.GLOBAL)
    l = Symbol("foo", bind=SymbolBind.LOCAL, module="m1")
    l2 = Symbol("foo", bind=SymbolBind.LOCAL, module="m2")
    assert g.link_name() == "foo"
    assert l.link_name() == "m1::foo"
    assert l.link_name() != l2.link_name()


def test_binary_lookup():
    binary = make_sample_binary()
    assert binary.get_symbol("main").value == 0x10000
    assert binary.get_symbol("m1::helper").size == 2
    assert binary.get_symbol("nonexistent") is None
    assert binary.section_at(0x10001).name == ".text"
    assert binary.section_at(0x999) is None
    assert binary.function_at(0x10003).name == "helper"
    assert binary.function_at(0x20000) is None
    assert len(binary.functions()) == 2
    assert binary.text_size() == 4
    # An exact alias (a linker ICF fold): the last alias in symbol-table
    # order owns the address, as every address -> function lookup agrees.
    binary.add_symbol(Symbol("helper_alias", value=0x10002, size=2,
                             type=SymbolType.FUNC, section=".text"))
    assert binary.function_at(0x10002).name == "helper_alias"
    assert binary.function_at(0x10003).name == "helper_alias"
    assert binary.function_at(0x10001).name == "main"
    assert [s.name for s in binary.function_symbols()] == [
        "main", "helper", "helper_alias"]


def test_duplicate_section_rejected():
    binary = Binary()
    binary.add_section(Section(".text"))
    with pytest.raises(ValueError):
        binary.add_section(Section(".text"))


def test_read_word():
    binary = make_sample_binary()
    section = binary.get_section(".data")
    section.data[0:8] = (0xDEADBEEF).to_bytes(8, "little")
    assert binary.read_word(0x20000) == 0xDEADBEEF
    with pytest.raises(KeyError):
        binary.read_word(0x99999999)


def test_serialize_roundtrip():
    binary = make_sample_binary()
    blob = write_binary(binary)
    loaded = read_binary(blob)
    assert loaded.kind == "exec"
    assert loaded.name == "sample"
    assert loaded.entry == 0x10000
    assert loaded.emit_relocs
    assert list(loaded.sections) == [".text", ".data", ".bss"]
    assert bytes(loaded.get_section(".text").data) == b"\x01\x02\x03\x04"
    assert loaded.get_section(".bss").size == 64
    assert loaded.get_section(".bss").type == SectionType.NOBITS
    assert len(loaded.symbols) == 3
    helper = loaded.get_symbol("m1::helper")
    assert helper.module == "m1" and helper.bind == SymbolBind.LOCAL
    assert loaded.relocations == [
        Relocation(".text", 0x2, RelocType.PC32, "helper", addend=-4)]
    record = loaded.frame_records["main"]
    assert record.frame_size == 32
    assert record.saved_regs == [(3, 8)]
    assert record.callsites[0].landing_pad == 2
    assert loaded.line_table.lookup(0x10001) == ("a.bc", 10)
    assert loaded.line_table.lookup(0x10005) == ("b.bc", 20)


def test_serialize_object_without_linetable():
    binary = Binary(kind="object", name="obj")
    binary.add_section(Section(".text", data=b"\x04"))
    loaded = read_binary(write_binary(binary))
    assert loaded.kind == "object"
    assert loaded.line_table is None
    assert loaded.entry is None


def test_read_bad_magic():
    with pytest.raises(BelfFormatError):
        read_binary(b"NOPE" + b"\x00" * 32)


def test_read_truncated():
    blob = write_binary(make_sample_binary())
    with pytest.raises(BelfFormatError):
        read_binary(blob[: len(blob) // 2])


def test_frame_record_landing_pad_lookup():
    record = FrameRecord("f", callsites=[CallSiteRecord(10, 20, 100),
                                         CallSiteRecord(30, 40, 200)])
    assert record.landing_pad_for(15) == 100
    assert record.landing_pad_for(30) == 200
    assert record.landing_pad_for(25) is None
    assert record.has_landing_pads
    copy = record.copy()
    copy.callsites[0].landing_pad = 999
    assert record.callsites[0].landing_pad == 100


def test_line_table_rebase():
    table = LineTable()
    table.add(100, "f.bc", 1)
    table.add(200, "f.bc", 2)
    moved = table.rebase(lambda a: a + 1000 if a == 100 else None)
    assert moved.lookup(1100) == ("f.bc", 1)
    assert len(moved) == 1


@given(rows=st.lists(st.tuples(st.integers(0, 400), st.integers(1, 9)),
                    max_size=30),
       probes=st.lists(st.integers(-10, 450), max_size=60))
def test_line_table_lookup_ascending_matches_lookup(rows, probes):
    table = LineTable()
    for addr, line in rows:
        table.add(addr, "f.bc", line)
    probes.sort()
    assert table.lookup_ascending(probes) == [table.lookup(a) for a in probes]


@given(rows=st.lists(st.tuples(st.integers(0, 400), st.integers(1, 9)),
                    max_size=30),
       lo=st.integers(-10, 450), width=st.integers(0, 200))
def test_line_table_between_is_the_filtered_scan(rows, lo, width):
    table = LineTable()
    for addr, line in rows:
        table.add(addr, "f.bc", line)
    assert table.between(lo, lo + width) == [
        entry for entry in table if lo <= entry.addr < lo + width]


_SECTION_FLAGS = (
    SectionFlag.NONE, SectionFlag.EXEC, SectionFlag.ALLOC,
    SectionFlag.ALLOC | SectionFlag.EXEC, SectionFlag.ALLOC | SectionFlag.WRITE)


@st.composite
def address_maps(draw):
    """A binary with overlapping ALLOC and non-ALLOC (PROGBITS and
    NOBITS) sections, and symbols of every type drawn from a small pool
    of spans, so exact aliases, overlaps and size-0 symbols are common."""
    binary = Binary(kind="exec")
    for i, (addr, size, flags, nobits) in enumerate(draw(st.lists(
            st.tuples(st.integers(0, 300), st.integers(0, 64),
                      st.sampled_from(_SECTION_FLAGS), st.booleans()),
            max_size=5))):
        binary.add_section(Section(
            f".s{i}", type=SectionType.NOBITS if nobits else
            SectionType.PROGBITS, flags=flags, addr=addr,
            data=None if nobits else bytes(size),
            mem_size=size if nobits else None))
    spans = draw(st.lists(st.tuples(st.integers(0, 300), st.integers(0, 40)),
                          min_size=1, max_size=6))
    for i, (kind, span) in enumerate(draw(st.lists(
            st.tuples(st.sampled_from(list(SymbolType)),
                      st.sampled_from(spans)), max_size=12))):
        binary.add_symbol(Symbol(f"s{i}", value=span[0], size=span[1],
                                 type=kind))
    return binary


def _assert_address_map(binary, probes):
    edges = {a + d for s in binary.symbols for a in (s.value, s.end)
             for d in (-1, 0)}
    edges |= {a + d for s in binary.sections.values()
              for a in (s.addr, s.end) for d in (-1, 0)}
    for address in sorted(edges.union(probes)):
        assert (binary.function_at(address)
                is function_at_reference(binary, address)), address
        assert (binary.section_at(address)
                is section_at_reference(binary, address)), address


@given(binary=address_maps(), probes=st.lists(st.integers(-4, 400)))
def test_prop_address_map_matches_reference(binary, probes):
    _assert_address_map(binary, probes)
    assert list(binary.function_symbols()) == sorted(
        (s for s in binary.symbols
         if s.type == SymbolType.FUNC and s.size > 0),
        key=lambda s: s.value)


@given(binary=address_maps(), probes=st.lists(st.integers(-4, 400)),
       added=st.tuples(st.integers(0, 300), st.integers(0, 40),
                       st.sampled_from(list(SymbolType))),
       edit=st.tuples(st.integers(0, 11), st.integers(0, 40)))
def test_prop_address_map_follows_symbol_edits(binary, probes, added, edit):
    """The cached map is rebuilt after ``add_symbol`` and after an
    in-place size edit announced by ``invalidate_symbol_cache`` (the
    ``wrong-symbol-size`` fault's path)."""
    _assert_address_map(binary, probes)
    value, size, kind = added
    binary.add_symbol(Symbol("added", value=value, size=size, type=kind))
    _assert_address_map(binary, probes)
    index, size = edit
    binary.symbols[index % len(binary.symbols)].size = size
    binary.invalidate_symbol_cache()
    _assert_address_map(binary, probes)


def test_line_table_empty_lookup():
    assert LineTable().lookup(5) is None
    table = LineTable()
    table.add(100, "f", 1)
    assert table.lookup(50) is None


@given(
    sections=st.lists(
        st.tuples(st.sampled_from([".text", ".data", ".rodata", ".bss2"]),
                  st.binary(max_size=64)),
        max_size=4,
        unique_by=lambda t: t[0],
    ),
    nsyms=st.integers(min_value=0, max_value=5),
)
def test_prop_serialize_roundtrip(sections, nsyms):
    binary = Binary(kind="object", name="prop")
    for name, data in sections:
        binary.add_section(Section(name, data=data))
    for i in range(nsyms):
        binary.add_symbol(Symbol(f"sym{i}", value=i * 7, size=i,
                                 type=SymbolType.FUNC if i % 2 else SymbolType.OBJECT))
    loaded = read_binary(write_binary(binary))
    assert list(loaded.sections) == [name for name, _ in sections]
    for name, data in sections:
        assert bytes(loaded.get_section(name).data) == data
    assert len(loaded.symbols) == nsyms
    for before, after in zip(binary.symbols, loaded.symbols):
        assert before.name == after.name and before.value == after.value


#: Field width in bytes and signedness of each relocation type.
_FIELDS = {RelocType.ABS64: (8, False), RelocType.ABS32: (4, False),
           RelocType.PC32: (4, True)}


@given(rtype=st.sampled_from(list(RelocType)), place=st.integers(0, 2**40),
       data=st.data())
def test_prop_apply_relocation(rtype, place, data):
    """In-range values read back (for PC32, P + 4 + rel == S + A), one
    past either bound raises and leaves the bytes alone, ABS64 wraps."""
    width, signed = _FIELDS[rtype]
    bits = 8 * width
    lo, hi = (-(1 << bits - 1), (1 << bits - 1) - 1) if signed \
        else (0, (1 << bits) - 1)
    bias = place + 4 if rtype == RelocType.PC32 else 0
    field = data.draw(st.integers(lo, hi))
    buf = bytearray(b"\xaa" * 16)
    apply_relocation(buf, 3, rtype, field + bias, place)
    assert int.from_bytes(buf[3:3 + width], "little", signed=signed) == field
    assert buf[:3] + buf[3 + width:] == b"\xaa" * (16 - width)
    if rtype == RelocType.ABS64:
        wraps = data.draw(st.integers(-4, 4))
        wrapped = bytearray(16)
        apply_relocation(wrapped, 3, rtype, field + (wraps << 64), place)
        assert wrapped[3:11] == buf[3:11]
        return
    for bad in (lo - 1, hi + 1):
        before = bytes(buf)
        with pytest.raises(RelocationOverflow) as info:
            apply_relocation(buf, 3, rtype, bad + bias, place)
        assert (info.value.type, info.value.place) == (rtype, place)
        assert bytes(buf) == before


def test_apply_relocation_rejects_string_kinds():
    for kind in ("pc32", "abs64", "abs32"):
        with pytest.raises(TypeError):
            apply_relocation(bytearray(8), 0, kind, 0, 0)
