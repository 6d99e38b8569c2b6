"""Microarchitecture model tests: caches, TLB, predictors, LBR, CPU."""

import pytest
from hypothesis import given, strategies as st

from repro.belf import STACK_TOP
from repro.compiler import build_executable, BuildOptions
from repro.uarch import (
    Cache,
    TLB,
    BranchPredictor,
    Counters,
    LBR,
    Machine,
    MachineFault,
    UarchConfig,
    run_binary,
)
from repro.uarch.machine import Memory, EXIT_MAGIC


# -- caches ---------------------------------------------------------------


def test_cache_hit_miss():
    cache = Cache(size=1024, assoc=2, line_size=64)
    assert not cache.access(0x0)       # cold miss
    assert cache.access(0x10)          # same line
    assert cache.access(0x3F)
    assert not cache.access(0x40)      # next line
    assert cache.accesses == 4 and cache.misses == 2


def test_cache_lru_eviction():
    # 2-way, 64B lines, 1024B total -> 8 sets; addresses 0, 512, 1024
    # map to set 0.
    cache = Cache(size=1024, assoc=2, line_size=64)
    cache.access(0)
    cache.access(512)
    cache.access(0)           # refresh 0 -> LRU is 512
    cache.access(1024)        # evicts 512
    assert cache.access(0)
    assert not cache.access(512)


def test_cache_validation():
    with pytest.raises(ValueError):
        Cache(size=1000, assoc=3, line_size=64)
    with pytest.raises(ValueError):
        Cache(size=1024, assoc=2, line_size=48)


def test_tlb_lru():
    tlb = TLB(entries=2, page_size=4096)
    assert not tlb.access(0x0000)
    assert not tlb.access(0x1000)
    assert tlb.access(0x0800)          # page 0 again
    assert not tlb.access(0x2000)      # evicts page 1 (LRU)
    assert not tlb.access(0x1000)
    assert tlb.access(0x2000)


def test_tlb_repeat_fast_path():
    tlb = TLB(entries=4, page_size=4096)
    tlb.access(0x1000)
    for _ in range(10):
        assert tlb.access(0x1234)
    assert tlb.misses == 1


@given(addrs=st.lists(st.integers(0, 1 << 20), min_size=1, max_size=200))
def test_prop_cache_miss_bound(addrs):
    """Misses never exceed accesses; re-access of a just-hit line hits."""
    cache = Cache(size=2048, assoc=4, line_size=64)
    for addr in addrs:
        cache.access(addr)
        assert cache.access(addr)  # immediate re-access must hit
    assert cache.misses <= cache.accesses


# -- branch prediction -----------------------------------------------------------


def test_predictor_learns_loop():
    bp = BranchPredictor()
    correct = 0
    for _ in range(100):
        if bp.update_cond(0x100, True):
            correct += 1
    assert correct >= 95


def test_predictor_alternating_with_history():
    bp = BranchPredictor()
    results = [bp.update_cond(0x200, (i % 2 == 0)) for i in range(200)]
    # gshare history should learn the alternating pattern eventually
    assert sum(results[100:]) >= 90


def test_btb_indirect():
    bp = BranchPredictor()
    assert not bp.predict_indirect(0x10, 0x1000)  # cold
    assert bp.predict_indirect(0x10, 0x1000)
    assert not bp.predict_indirect(0x10, 0x2000)  # target changed
    assert bp.predict_indirect(0x10, 0x2000)


def test_ras():
    bp = BranchPredictor(ras_depth=2)
    bp.push_return(0x100)
    bp.push_return(0x200)
    assert bp.predict_return(0x200)
    assert bp.predict_return(0x100)
    assert not bp.predict_return(0x300)  # empty
    bp.push_return(0x1)
    bp.push_return(0x2)
    bp.push_return(0x3)  # overflows: 0x1 dropped
    bp.predict_return(0x3)
    bp.predict_return(0x2)
    assert not bp.predict_return(0x1)


# -- LBR ---------------------------------------------------------------------------


def test_lbr_ring():
    lbr = LBR(depth=4)
    for i in range(6):
        lbr.record(i, i + 100, False)
    snap = lbr.snapshot()
    assert len(snap) == 4
    assert snap == [(2, 102, False), (3, 103, False), (4, 104, False),
                    (5, 105, False)]


def test_lbr_partial():
    lbr = LBR(depth=8)
    lbr.record(1, 2, True)
    assert lbr.snapshot() == [(1, 2, True)]
    lbr.clear()
    assert lbr.snapshot() == []


# -- memory ------------------------------------------------------------------------


def test_memory_rw():
    mem = Memory()
    mem.write_word(0x1000, -5)
    assert mem.read_word(0x1000) == -5
    mem.write_word(0xFFF, 0x0102030405060708)  # page-straddling
    assert mem.read_word(0xFFF) == 0x0102030405060708
    assert mem.read_word(0x500000) == 0  # untouched = zero


def test_memory_bytes_roundtrip():
    mem = Memory()
    blob = bytes(range(256)) * 20
    mem.write_bytes(0xFF0, blob)
    assert mem.read_bytes(0xFF0, len(blob)) == blob


def test_memory_word_views_share_the_page():
    """``words`` indexes the same bytes ``read_word``/``write_word``
    slice: a write through either side is seen by the other."""
    mem = Memory()
    assert mem.words == {}
    view = mem.word_view(0x3)           # allocates page 3
    assert set(mem.pages) == set(mem.words) == {0x3}
    view[5] = -(1 << 63)
    assert mem.read_word(0x3000 + 40) == -(1 << 63)
    mem.write_word(0x3000 + 48, (1 << 63) - 1)
    assert view[6] == (1 << 63) - 1
    mem.write_bytes(0x2FFC, bytes(range(1, 13)))    # straddles pages 2-3
    assert mem.words[0x3][0] == int.from_bytes(
        bytes(range(5, 13)), "little", signed=True)
    assert mem.word_view(0x3) is view


# -- CPU semantics ------------------------------------------------------------------


def run_src(text, **kwargs):
    exe, _ = build_executable([("t", text)])
    return run_binary(exe, **kwargs)


def test_exit_code():
    cpu = run_src("func main() { return 42; }")
    assert cpu.exit_code == 42
    assert cpu.halted


def test_counters_basics():
    cpu = run_src("""
func main() {
  var i = 0;
  while (i < 10) { i = i + 1; }
  return 0;
}
""")
    c = cpu.counters
    assert c.instructions > 0
    assert c.cycles >= c.instructions
    assert c.cond_branches >= 10
    assert c.taken_branches > 0
    assert c.l1i_accesses >= c.instructions


def test_execution_limit():
    from repro.uarch import ExecutionLimitExceeded

    with pytest.raises(ExecutionLimitExceeded):
        run_src("func main() { while (1) { } return 0; }",
                max_instructions=1000)


def test_fetch_heat():
    cpu = run_src("func main() { return 1; }", fetch_heat=True)
    assert cpu.fetch_heat
    assert all(v > 0 for v in cpu.fetch_heat.values())


def test_input_poking():
    exe, _ = build_executable([("t", """
array input[4];
func main() { out input[0] + input[3]; return 0; }
""")])
    cpu = run_binary(exe, inputs={"t::input": [10, 0, 0, 32]})
    assert cpu.output == [42]


def test_jump_to_nonexec_faults():
    exe, _ = build_executable([("t", """
var fp = 12345;
func main() {
  var f = fp;
  return f();
}
""")])
    with pytest.raises(MachineFault):
        run_binary(exe)


def test_branch_predictor_effect_on_cycles():
    """A predictable branch pattern must cost fewer cycles than an
    unpredictable one with identical instruction counts."""
    predictable = run_src("""
array noise[16] = {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1};
func main() {
  var i = 0;
  var acc = 0;
  while (i < 500) {
    if (noise[i % 16] > 0) { acc = acc + 1; } else { acc = acc - 1; }
    i = i + 1;
  }
  out acc;
  return 0;
}
""")
    chaotic = run_src("""
array noise[16] = {1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 0};
func main() {
  var i = 0;
  var acc = 0;
  while (i < 500) {
    if (noise[i % 16] > 0) { acc = acc + 1; } else { acc = acc - 1; }
    i = i + 1;
  }
  out acc;
  return 0;
}
""")
    assert chaotic.counters.branch_misses > predictable.counters.branch_misses
    # Cycle difference should reflect the mispredictions.
    assert chaotic.counters.cycles > predictable.counters.cycles


def test_icache_effect_of_code_spread():
    """Touching many distinct functions costs more I-cache misses than
    looping over one."""
    many_funcs = "\n".join(
        f"func f{i}(x) {{ return x + {i}; }}" for i in range(64))
    spread = run_src(many_funcs + """
func main() {
  var i = 0;
  var acc = 0;
  while (i < 50) {
""" + "\n".join(f"    acc = acc + f{i}(i);" for i in range(64)) + """
    i = i + 1;
  }
  out acc;
  return 0;
}
""")
    tight = run_src("""
func f0(x) { return x + 1; }
func main() {
  var i = 0;
  var acc = 0;
  while (i < 3200) {
    acc = acc + f0(i);
    i = i + 1;
  }
  out acc;
  return 0;
}
""")
    spread_rate = spread.counters.l1i_misses / spread.counters.l1i_accesses
    tight_rate = tight.counters.l1i_misses / tight.counters.l1i_accesses
    assert spread_rate > tight_rate * 5


def test_counters_as_dict_and_rates():
    counters = Counters()
    counters.l1i_accesses = 100
    counters.l1i_misses = 10
    assert counters.as_dict()["l1i_misses"] == 10
    assert counters.miss_rates()["l1i"] == 0.1
    assert counters.miss_rates()["dtlb"] is None


def test_machine_function_at():
    exe, _ = build_executable([("t", "func main() { return helper(); }\n"
                                     "func helper() { return 7; }")])
    # The unwinder resolves return addresses through the loaded image's
    # own address map.
    machine = Machine(exe)
    assert machine.binary is exe
    sym = exe.get_symbol("helper")
    assert exe.function_at(sym.value).name == "helper"
    assert exe.function_at(sym.value + sym.size - 1).name == "helper"
    assert exe.function_at(0x20) is None


def test_uarch_config_custom():
    cpu = run_src("func main() { return 0; }")
    big_config = UarchConfig(l1i_size=65536, llc_size=1 << 20)
    exe, _ = build_executable([("t", "func main() { return 0; }")])
    cpu2 = run_binary(exe, config=big_config)
    assert cpu2.exit_code == 0


def test_uarch_config_base_cpi_must_be_whole():
    """Both engines count whole cycles; 1.5 used to behave as 1.0."""
    with pytest.raises(ValueError, match="base_cpi"):
        UarchConfig(base_cpi=1.5)
    assert UarchConfig(base_cpi=2.0).base_cpi == 2
    assert UarchConfig().base_cpi == 1


@pytest.mark.parametrize("field", [
    "taken_branch_penalty", "mispredict_penalty", "l1_miss_penalty",
    "llc_miss_penalty", "tlb_miss_penalty", "l2_hit_latency"])
@pytest.mark.parametrize("value", [-1, 2.5, "3", None])
def test_uarch_config_penalty_must_be_whole_cycles(field, value):
    with pytest.raises(ValueError, match=field):
        UarchConfig(**{field: value})


@pytest.mark.parametrize("field", [
    "ras_depth", "btb_entries", "itlb_entries", "dtlb_entries"])
def test_uarch_config_sizes_at_least_one(field):
    """A zero-entry return stack or BTB crashed mid-run with
    ``IndexError: pop from empty list``."""
    with pytest.raises(ValueError, match=field):
        UarchConfig(**{field: 0})
    with pytest.raises(ValueError, match=field):
        UarchConfig(**{field: 1.0})
    cpu = run_src("func f(x) { return x + 1; } "
                  "func main() { out f(1); return 0; }",
                  config=UarchConfig(**{field: 1}))
    assert cpu.output == [2]


@pytest.mark.parametrize("field, value", [
    ("l1d_assoc", 0), ("bp_table_bits", -1)])
def test_uarch_config_rejects_unbuildable_geometry(field, value):
    """``l1d_assoc=0`` used to crash mid-run with ``ZeroDivisionError``
    and ``bp_table_bits=-1`` with ``negative shift count``."""
    with pytest.raises(ValueError, match=field):
        UarchConfig(**{field: value})


def test_l2_level_reduces_cycles():
    """Enabling a private L2 reduces L1-miss cost and shows up in the
    counters."""
    src = """
func main() {
  var i = 0;
  var acc = 0;
""" + "\n".join(f"  acc = acc + f{k}(i);" for k in range(48)) + """
  while (i < 40) {
""" + "\n".join(f"    acc = acc + f{k}(i);" for k in range(48)) + """
    i = i + 1;
  }
  out acc;
  return 0;
}
""" + "\n".join(f"func f{k}(x) {{ return x + {k}; }}" for k in range(48))
    from repro.ir import InlinePolicy

    exe, _ = build_executable(
        [("t", src)],
        BuildOptions(inline=InlinePolicy(max_size=0, hot_max_size=0)))
    # The loop's working set exceeds a 1 KiB L1I but fits a 16 KiB L2.
    no_l2 = run_binary(exe, config=UarchConfig(l1i_size=1024))
    with_l2 = run_binary(exe, config=UarchConfig(l1i_size=1024,
                                                 l2_size=16384))
    assert with_l2.output == no_l2.output
    assert with_l2.counters.l2_accesses > 0
    assert with_l2.counters.l2_misses < with_l2.counters.l2_accesses * 0.5
    assert with_l2.counters.cycles < no_l2.counters.cycles
    assert no_l2.counters.l2_accesses == 0


def test_next_line_prefetcher_reduces_l1i_misses():
    src = """
func main() {
  var i = 0;
  var acc = 0;
  while (i < 30) {
""" + "\n".join(f"    acc = acc + {k} * i + (acc >> 1);" for k in range(120)) + """
    i = i + 1;
  }
  out acc;
  return 0;
}
"""
    exe, _ = build_executable([("t", src)], BuildOptions())
    plain = run_binary(exe, config=UarchConfig(l1i_size=2048))
    prefetch = run_binary(exe, config=UarchConfig(l1i_size=2048,
                                                  prefetch_next_line=True))
    assert prefetch.output == plain.output
    # Straight-line code: the next-line prefetcher should cut I-misses.
    assert prefetch.counters.l1i_misses < plain.counters.l1i_misses


def test_cache_install_no_stats():
    cache = Cache(size=1024, assoc=2, line_size=64)
    cache.install(0x40)
    assert cache.accesses == 0 and cache.misses == 0
    assert cache.access(0x40)  # prefetched line hits


@pytest.mark.parametrize("field,value", [
    ("l1i_assoc", 0), ("l1d_assoc", 0), ("llc_assoc", 0), ("l2_assoc", 0),
    ("l1i_size", 0), ("l1d_size", 0), ("llc_size", 0), ("l1d_assoc", 2.0),
    ("l2_size", -1), ("bp_table_bits", -1), ("bp_table_bits", 1.5),
    ("bp_table_bits", "12")])
def test_uarch_config_rejects_unbuildable_geometry(field, value):
    """``l1d_assoc=0`` used to raise ``ZeroDivisionError`` and
    ``bp_table_bits=-1`` ``negative shift count`` only once a run
    started, naming no field."""
    with pytest.raises(ValueError, match=field):
        UarchConfig(**{field: value})


@pytest.mark.parametrize("field", ["line_size", "page_size"])
@pytest.mark.parametrize("value", [0, -64, 48, 64.0, True, "64"])
def test_uarch_config_rejects_bad_line_and_page_size(field, value):
    """``page_size=0`` used to raise ``negative shift count`` and
    ``line_size=0`` ``ZeroDivisionError`` once a run started, naming no
    field."""
    with pytest.raises(ValueError, match=field):
        UarchConfig(**{field: value})


def test_uarch_config_geometry_lower_bounds_run():
    config = UarchConfig(l1d_size=256, l1d_assoc=1, l2_size=0,
                         bp_table_bits=0)
    cpu = run_src("func main() { out 3; return 0; }", config=config)
    assert cpu.output == [3]
