"""Engine equivalence (PR 5): the block-cached engine is bit-exact.

The block engine (``repro.uarch.cpu.BlockCPU``) is a performance
optimization only — every architecturally or microarchitecturally
visible quantity must be *identical* to the preserved per-instruction
reference interpreter (``repro.uarch._reference_cpu.ReferenceCPU``):
counters, cycles, cache/TLB internals, branch-predictor tables, LBR
contents, sample streams (all events, with and without skid/LBR),
fetch-heat maps, program output, exit codes, registers, flags, and
fault messages.

Three layers:

* hypothesis-generated random loop programs x sampler configurations;
* compiled programs exercising ``__throw`` unwinding from inside a
  cached trace;
* self-modifying code: a mid-run store into an executable range must
  invalidate the shared trace cache while replicating the reference
  interpreter's stale per-CPU decode cache.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.belf import Binary, Section, SectionFlag, Symbol, SymbolType
from repro.compiler import build_executable
from repro.isa import (
    CondCode,
    Instruction,
    Op,
    RAX,
    RBX,
    RCX,
    RDX,
    RSI,
    RDI,
    encode,
    instruction_size,
)
from repro.profiling import Sampler, SamplingConfig
from repro.uarch import Machine, MachineFault
from repro.uarch.cpu import CPU, ExecutionLimitExceeded

pytestmark = pytest.mark.perf

BASE = 0x10000
DATA = 0x40000


def I(op, *regs, **kw):
    return Instruction(op, regs, **kw)


def assemble(insns):
    """Resolve label targets and encode a flat instruction list."""
    offsets = {}
    pos = 0
    for item in insns:
        if isinstance(item, str):
            offsets[item] = pos
        else:
            pos += instruction_size(item)
    blob = b""
    pos = 0
    for item in insns:
        if isinstance(item, str):
            continue
        if item.label is not None:
            item.target = BASE + offsets[item.label]
            item.label = None
        blob += encode(item, BASE + pos)
        pos += instruction_size(item)
    return blob


def make_exe(insns):
    return exe_from_code(assemble(list(insns)))


def exe_from_code(code):
    binary = Binary(kind="exec", name="asm")
    binary.add_section(Section(
        ".text", flags=SectionFlag.ALLOC | SectionFlag.EXEC, addr=BASE,
        data=code))
    binary.add_symbol(Symbol("main", value=BASE, size=len(code),
                             type=SymbolType.FUNC, section=".text"))
    binary.entry = BASE
    return binary


#: Sampler configurations from the paper's section 5.1 matrix: every
#: event, skid on/off, LBR on/off.  Small coprime periods so short
#: programs still take plenty of samples.
SAMPLINGS = {
    "none": None,
    "cycles+lbr": SamplingConfig("cycles", period=97, skid=0, use_lbr=True),
    "insns+skid": SamplingConfig("instructions", period=61, skid=3,
                                 use_lbr=False),
    "taken+skid+lbr": SamplingConfig("taken-branches", period=31, skid=1,
                                     use_lbr=True),
}


def _outcome(exe, engine, sampling=None, inputs=None,
             max_instructions=200_000, fetch_heat=False):
    """Run one engine and capture *everything* observable."""
    machine = Machine(exe)
    if inputs:
        for name, values in inputs.items():
            machine.poke_array(name, values)
    sampler = Sampler(sampling) if sampling is not None else None
    cpu = CPU(machine, sampler=sampler, engine=engine)
    if fetch_heat:
        cpu.fetch_heat = {}
    error = None
    try:
        cpu.run(max_instructions)
    except (MachineFault, ExecutionLimitExceeded) as exc:
        error = (type(exc).__name__, str(exc))
    return {
        "error": error,
        "counters": cpu.counters.as_dict(),
        "output": list(cpu.output),
        "exit_code": cpu.exit_code,
        "halted": cpu.halted,
        "pc": cpu.pc,
        "regs": list(cpu.regs),
        "flags": (cpu.flag_a, cpu.flag_b),
        "bp": cpu.bp.state(),
        "lbr": None if cpu.lbr is None else cpu.lbr.state(),
        "samples": None if sampler is None else sampler.state(),
        "caches": {
            name: (unit.accesses, unit.misses)
            for name, unit in (("l1i", cpu.l1i), ("l1d", cpu.l1d),
                               ("llc", cpu.llc), ("itlb", cpu.itlb),
                               ("dtlb", cpu.dtlb))
        },
        "fetch_heat": cpu.fetch_heat,
    }


def assert_engines_match(exe, sampling=None, **kw):
    ref = _outcome(exe, "ref", sampling=sampling, **kw)
    blk = _outcome(exe, "block", sampling=sampling, **kw)
    if ref["counters"] != blk["counters"]:
        diff = {field: (ref["counters"][field], blk["counters"][field])
                for field in ref["counters"]
                if ref["counters"][field] != blk["counters"][field]}
        pytest.fail(f"counters diverged (ref, block): {diff}")
    for key in ref:
        assert blk[key] == ref[key], f"{key} diverged"
    return ref


# ---------------------------------------------------------------------------
# Hypothesis: random loop programs x sampler configurations
# ---------------------------------------------------------------------------

_BODY_REGS = (RAX, RBX, RDX, RDI)

_body_item = st.tuples(
    st.sampled_from(["movi", "addi", "subi", "addr", "cmp_skip",
                     "load", "store", "out", "call"]),
    st.integers(0, len(_BODY_REGS) - 1),
    st.integers(-100, 100),
)


def _build_program(items, loop_n):
    """A counted loop over a random body; always terminates."""
    insns = [
        I(Op.MOV_RI32, RCX, imm=loop_n),
        I(Op.MOV_RI64, RSI, imm=DATA),
        "loop",
    ]
    for k, (kind, which, val) in enumerate(items):
        reg = _BODY_REGS[which]
        other = _BODY_REGS[(which + 1) % len(_BODY_REGS)]
        if kind == "movi":
            insns.append(I(Op.MOV_RI32, reg, imm=val))
        elif kind == "addi":
            insns.append(I(Op.ADD_RI, reg, imm=val))
        elif kind == "subi":
            insns.append(I(Op.SUB_RI, reg, imm=val))
        elif kind == "addr":
            insns.append(I(Op.ADD_RR, reg, other))
        elif kind == "cmp_skip":
            insns.append(I(Op.CMP_RI, reg, imm=val))
            insns.append(I(Op.JCC_SHORT, cc=CondCode.GT,
                           label=f"skip{k}"))
            insns.append(I(Op.ADD_RI, reg, imm=1))
            insns.append(f"skip{k}")
        elif kind == "load":
            insns.append(I(Op.LOAD, reg, RSI, disp=(val % 32) * 8))
        elif kind == "store":
            insns.append(I(Op.STORE, RSI, reg, disp=(val % 32) * 8))
        elif kind == "out":
            insns.append(I(Op.OUT, reg))
        elif kind == "call":
            insns.append(I(Op.CALL, label="sub"))
    insns += [
        I(Op.SUB_RI, RCX, imm=1),
        I(Op.CMP_RI, RCX, imm=0),
        I(Op.JCC_LONG, cc=CondCode.NE, label="loop"),
        I(Op.MOV_RI32, RAX, imm=0),
        I(Op.RET),
        "sub",
        I(Op.ADD_RI, RAX, imm=3),
        I(Op.RET),
    ]
    return make_exe(insns)


@given(st.lists(_body_item, min_size=1, max_size=12),
       st.integers(1, 40),
       st.sampled_from(sorted(SAMPLINGS)))
@settings(deadline=None, max_examples=60)
def test_random_programs_bit_exact(items, loop_n, sampling_name):
    exe = _build_program(items, loop_n)
    assert_engines_match(exe, sampling=SAMPLINGS[sampling_name])


@given(st.lists(_body_item, min_size=1, max_size=8), st.integers(2, 30))
@settings(deadline=None, max_examples=25)
def test_random_programs_fetch_heat(items, loop_n):
    exe = _build_program(items, loop_n)
    assert_engines_match(exe, fetch_heat=True)


@given(st.lists(_body_item, min_size=1, max_size=8),
       st.integers(20, 200))
@settings(deadline=None, max_examples=25)
def test_limit_exceeded_bit_exact(items, budget):
    """Both engines must stop at the same instruction with the same
    message and the same partial state when the budget runs out."""
    exe = _build_program(items, 1_000_000)
    ref = _outcome(exe, "ref", max_instructions=budget)
    blk = _outcome(exe, "block", max_instructions=budget)
    assert ref["error"] is not None
    assert ref["error"][0] == "ExecutionLimitExceeded"
    assert blk == ref


# ---------------------------------------------------------------------------
# Exception unwinding from inside a cached trace
# ---------------------------------------------------------------------------

_THROW_SOURCE = """
func thrower(x) {
  if (x == 3) { throw 333; }
  return x;
}
func middle(x) {
  var local = x * 2;
  return thrower(x) + local;
}
func main() {
  var i = 0;
  var acc = 0;
  while (i < 9) {
    try { acc = acc + middle(i); }
    catch (e) { acc = acc + e; }
    i = i + 1;
  }
  out acc;
  return 0;
}
"""


@pytest.mark.parametrize("sampling_name", sorted(SAMPLINGS))
def test_unwind_inside_cached_trace(sampling_name):
    """The ``__throw`` at i==3 fires after the hot loop traces are
    already cached; the unwinder runs mid-trace on the block engine."""
    exe, _ = build_executable([("t", _THROW_SOURCE)])
    state = assert_engines_match(exe, sampling=SAMPLINGS[sampling_name])
    assert state["error"] is None
    assert state["exit_code"] == 0


def test_uncaught_throw_faults_identically():
    exe, _ = build_executable(
        [("t", "func main() { var i = 0; while (i < 4) { i = i + 1; } "
               "throw 42; }")])
    state = assert_engines_match(exe)
    assert state["error"] is not None
    assert state["error"][0] == "MachineFault"


# ---------------------------------------------------------------------------
# Self-modifying code: write-to-exec-range invalidation
# ---------------------------------------------------------------------------


def _patching_program(patch_word):
    """A loop whose body stores ``patch_word`` over its own tail.

    The patched address has already been fetched before the store, so
    the reference interpreter keeps executing its stale decode; the
    block engine must invalidate its shared traces and replicate that
    staleness exactly.
    """
    insns = [
        I(Op.MOV_RI32, RCX, imm=6),
        I(Op.MOV_RI64, RBX, imm=patch_word),
        "loop",
        "patch",
        I(Op.NOPN, imm=8),                 # 8 bytes of patch target
        I(Op.ADD_RI, RAX, imm=5),
        I(Op.OUT, RAX),
        I(Op.SUB_RI, RCX, imm=1),
        I(Op.CMP_RI, RCX, imm=3),
        I(Op.JCC_SHORT, cc=CondCode.NE, label="skip"),
        # Overwrite the already-executed patch site mid-run.
        I(Op.MOV_RI64, RDX, imm=BASE),
        I(Op.MOV_RI64, RDI, imm=0),        # patch offset, fixed below
        "skip",
        I(Op.CMP_RI, RCX, imm=0),
        I(Op.JCC_LONG, cc=CondCode.NE, label="loop"),
        I(Op.RET),
    ]
    # Compute the patch site address and splice in the actual store.
    offsets = {}
    pos = 0
    for item in insns:
        if isinstance(item, str):
            offsets[item] = pos
        else:
            pos += instruction_size(item)
    patch_addr = BASE + offsets["patch"]
    out = []
    for item in insns:
        if (not isinstance(item, str) and item.op == Op.MOV_RI64
                and item.regs and item.regs[0] == RDI):
            out.append(I(Op.STORE_ABS, RBX, addr=patch_addr))
        elif (not isinstance(item, str) and item.op == Op.MOV_RI64
              and item.regs and item.regs[0] == RDX):
            continue
        else:
            out.append(item)
    return make_exe(out)


@pytest.mark.parametrize("sampling_name", ["none", "cycles+lbr"])
def test_self_modifying_code_invalidates(sampling_name):
    """A store into the executable range mid-run: the engines must stay
    in lockstep both while the stale decode is replayed and afterwards."""
    exe = _patching_program(patch_word=0)   # 0x00... = undecodable bytes
    state = assert_engines_match(exe, sampling=SAMPLINGS[sampling_name])
    # The program runs to completion: the patch site was decoded before
    # the store, and per-CPU decode caches are never invalidated.
    assert state["error"] is None
    assert state["output"] == [5 * (k + 1) for k in range(6)]


def test_code_write_marks_machine_dirty():
    exe = _patching_program(patch_word=0)
    machine = Machine(exe)
    cpu = CPU(machine, engine="block")
    cpu.run(200_000)
    assert machine.code_dirty is True


def test_fresh_decode_after_patch_faults_identically():
    """Jumping to *never-executed* bytes that were overwritten mid-run:
    both engines decode the new (garbage) bytes and fault the same."""
    insns = [
        I(Op.MOV_RI64, RBX, imm=-1),       # 0xFF bytes: invalid opcodes
        I(Op.STORE_ABS, RBX, addr=0),      # placeholder, fixed below
        I(Op.JMP_NEAR, label="patch"),
        "patch",
        I(Op.NOPN, imm=8),
        I(Op.RET),
    ]
    offsets = {}
    pos = 0
    for item in insns:
        if isinstance(item, str):
            offsets[item] = pos
        else:
            pos += instruction_size(item)
    patch_addr = BASE + offsets["patch"]
    fixed = []
    for item in insns:
        if not isinstance(item, str) and item.op == Op.STORE_ABS:
            fixed.append(I(Op.STORE_ABS, RBX, addr=patch_addr))
        else:
            fixed.append(item)
    exe = make_exe(fixed)
    ref = _outcome(exe, "ref")
    blk = _outcome(exe, "block")
    assert ref["error"] is not None
    assert blk == ref


def test_setcc_condition_out_of_range_faults_at_fetch():
    """SETCC bytes naming a condition code past ``CondCode``: the decoder
    rejects them, so both engines fault at fetch with the decoder's
    message and identical counters (no mid-trace ``ValueError``)."""
    head = assemble([
        I(Op.MOV_RI32, RAX, imm=3),
        I(Op.CMP_RI, RAX, imm=3),
        I(Op.SETCC, RBX, imm=int(CondCode.EQ)),
        I(Op.OUT, RBX),
    ])
    bad_pc = BASE + len(head)
    exe = exe_from_code(head + bytes([int(Op.SETCC), RBX, 12])
                        + encode(I(Op.RET), bad_pc + 3))
    ref = _outcome(exe, "ref")
    blk = _outcome(exe, "block")
    assert ref["error"] == (
        "MachineFault", f"invalid SETCC condition code 12 at {bad_pc:#x}")
    assert ref["output"] == [1]
    assert ref["counters"]["instructions"] == 4
    assert blk == ref


# ---------------------------------------------------------------------------
# Compiled workload spot check (kept small; benchmarks cover the rest)
# ---------------------------------------------------------------------------


def test_compiled_workload_bit_exact():
    from repro.harness import build_workload
    from repro.workloads import make_workload

    built = build_workload(make_workload("compiler", iterations=2))
    assert_engines_match(
        built.exe,
        sampling=SamplingConfig("cycles", period=997, skid=0, use_lbr=True),
        inputs=built.workload.inputs,
        max_instructions=5_000_000)
