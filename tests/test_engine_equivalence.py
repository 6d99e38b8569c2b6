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

* hypothesis-generated random loop programs x sampler configurations x
  ``UarchConfig`` variants (prefetch, L2, 1-2-entry TLBs, 8 KiB pages,
  32-byte lines, ``base_cpi=2``), over every register, memory, division
  and indirect-transfer opcode the engine special-cases;
* compiled programs exercising ``__throw`` unwinding from inside a
  cached trace;
* self-modifying code: a mid-run store into an executable range must
  invalidate the shared trace cache while replicating the reference
  interpreter's stale per-CPU decode cache.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.belf import Binary, Section, SectionFlag, Symbol, SymbolType
from repro.compiler import build_executable
from repro.isa import (
    CondCode,
    Instruction,
    Op,
    R8,
    R9,
    R10,
    R11,
    RAX,
    RBX,
    RCX,
    RDX,
    RSI,
    RDI,
    RSP,
    encode,
    instruction_size,
)
from repro.profiling import Sampler, SamplingConfig
from repro.uarch import Machine, MachineFault, UarchConfig
from repro.uarch.cpu import CPU, ExecutionLimitExceeded

pytestmark = pytest.mark.perf

BASE = 0x10000
DATA = 0x40000


def I(op, *regs, **kw):
    return Instruction(op, regs, **kw)


def addr_of(reg, label):
    """``MOV_RI64 reg, <address of label>``, resolved by :func:`assemble`."""
    return ("addr_of", reg, label)


def assemble(insns):
    """Resolve label targets and encode a flat instruction list."""
    insns = [I(Op.MOV_RI64, item[1], imm=0, label=item[2])
             if isinstance(item, tuple) else item for item in insns]
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
        if item.op == Op.MOV_RI64 and item.label is not None:
            item.imm = BASE + offsets[item.label]
            item.label = None
        elif item.label is not None:
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


#: ``UarchConfig`` variants: each moves a boundary the block engine's
#: fetch events, inline hit paths or cycle batching depend on.
CONFIGS = {
    "default": None,
    "prefetch": UarchConfig(prefetch_next_line=True),
    "l2": UarchConfig(l2_size=16384, l1d_size=512, l1d_assoc=2),
    "tiny-tlbs": UarchConfig(itlb_entries=1, dtlb_entries=2),
    "8k-pages": UarchConfig(page_size=8192, dtlb_entries=1),
    "32b-lines": UarchConfig(line_size=32, l1i_size=256, l1i_assoc=2,
                             l1d_size=128, l1d_assoc=2, llc_size=1024),
    "cpi2": UarchConfig(base_cpi=2, taken_branch_penalty=0),
}


def _cache_state(unit):
    if unit is None:
        return None
    return (unit.accesses, unit.misses, tuple(tuple(w) for w in unit.sets))


def _tlb_state(unit):
    return (unit.accesses, unit.misses, tuple(unit.pages), unit._last)


def _memory_digest(memory):
    digest = hashlib.sha256()
    for index in sorted(memory.pages):
        digest.update(index.to_bytes(16, "little"))
        digest.update(memory.pages[index])
    return digest.hexdigest()


def _outcome(exe, engine, sampling=None, inputs=None,
             max_instructions=200_000, fetch_heat=False, config=None):
    """Run one engine and capture *everything* observable."""
    machine = Machine(exe)
    if inputs:
        for name, values in inputs.items():
            machine.poke_array(name, values)
    sampler = Sampler(sampling) if sampling is not None else None
    cpu = CPU(machine, config=config, sampler=sampler, engine=engine)
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
        "sampler_state": (cpu._sample_acc, cpu._skid_remaining,
                          getattr(cpu, "_last_taken", 0)),
        "caches": {
            name: _cache_state(unit)
            for name, unit in (("l1i", cpu.l1i), ("l1d", cpu.l1d),
                               ("l2", cpu.l2), ("llc", cpu.llc))
        },
        "tlbs": {"itlb": _tlb_state(cpu.itlb), "dtlb": _tlb_state(cpu.dtlb)},
        "memory": _memory_digest(machine.memory),
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

# RCX counts the loop, RSI holds DATA; R8-R10 are per-item scratch.
_BODY_REGS = (RAX, RBX, RDX, RDI, R11)

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
_BIG = (_INT64_MIN, _INT64_MAX, -1, 1 << 62, -(1 << 62) - 1)

#: Two-operand ALU ops: wrapping arithmetic, and the bitwise and shift
#: ops the block engine runs without a wrap.
_ALU_RR = (Op.IMUL_RR, Op.AND_RR, Op.OR_RR, Op.XOR_RR, Op.SHL_RR,
           Op.SHR_RR, Op.SAR_RR, Op.ADD_RR, Op.SUB_RR, Op.TEST_RR,
           Op.CMP_RR)
_ALU_RI = (Op.IMUL_RI, Op.AND_RI, Op.OR_RI, Op.XOR_RI, Op.SHL_RI,
           Op.SHR_RI, Op.SAR_RI, Op.TEST_RI, Op.NEG, Op.SETCC, Op.LEA)

_ITEM_KINDS = ("movi", "addi", "subi", "addr", "cmp_skip", "load", "store",
               "out", "call", "big", "alu_rr", "alu_ri", "push_pop", "div",
               "idx", "odd", "icall")


def _items(kinds):
    return st.tuples(st.sampled_from(kinds),
                     st.integers(0, len(_BODY_REGS) - 1),
                     st.integers(-100, 100))


#: Every kind, plus (rarely, so most runs go on) a division by zero.
_body_item = _items(_ITEM_KINDS * 4 + ("div0",))
#: Programs built from these run until the loop ends or the budget does.
_fault_free_item = _items(_ITEM_KINDS)


def _alu_ri(op, reg, val):
    if op == Op.NEG:
        return I(op, reg)
    if op == Op.SETCC:
        return I(op, reg, imm=val % 10)
    if op == Op.LEA:
        return I(op, reg, reg, disp=val)
    if op in (Op.SHL_RI, Op.SHR_RI, Op.SAR_RI):
        return I(op, reg, imm=(0, 1, 63)[val % 3] if val % 2 else val % 64)
    return I(op, reg, imm=val * 1_000_003)


def _build_program(items, loop_n):
    """A counted loop over a random body; always terminates, unless a
    division by zero or a bad address faults it first."""
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
        elif kind == "big":
            insns.append(I(Op.MOV_RI64, reg, imm=_BIG[val % len(_BIG)]))
        elif kind == "alu_rr":
            insns.append(I(_ALU_RR[val % len(_ALU_RR)], reg, other))
        elif kind == "alu_ri":
            insns.append(_alu_ri(_ALU_RI[val % len(_ALU_RI)], reg, val))
        elif kind == "push_pop":
            insns.append(I(Op.PUSH, reg))
            insns.append(I(Op.POP, other))
        elif kind in ("div", "div0"):
            divisor = 0 if kind == "div0" else val or 7
            insns.append(I(Op.MOV_RI32, R8, imm=divisor))
            insns.append(I(Op.IDIV_RR if val % 2 else Op.IMOD_RR, reg, R8))
        elif kind == "idx":
            insns.append(I(Op.MOV_RI32, R9, imm=val % 16))
            disp = (val % 4) * 8 + (val % 3 == 0)     # some unaligned
            if val % 2:
                insns.append(I(Op.LOADIDX, reg, RSI, R9, disp=disp))
            else:
                insns.append(I(Op.STOREIDX, RSI, R9, reg, disp=disp))
        elif kind == "odd":
            # Unaligned, and from 0xFF9 on crossing into the next page.
            disp = 0xFF4 + val % 13
            if val % 2:
                insns.append(I(Op.LOAD, reg, RSI, disp=disp))
            else:
                insns.append(I(Op.STORE, RSI, reg, disp=disp))
        elif kind == "icall":
            which_call = val % 3
            target = "sub" if which_call < 2 else f"back{k}"
            insns.append(addr_of(R10, target))
            if which_call == 0:
                insns.append(I(Op.CALL_REG, R10))
            else:
                insns.append(I(Op.STORE, RSI, R10, disp=0x800))
                insns.append(I(Op.CALL_MEM if which_call == 1
                               else Op.JMP_MEM, addr=DATA + 0x800))
                if which_call == 2:
                    insns.append(f"back{k}")
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
       st.sampled_from(sorted(SAMPLINGS)),
       st.sampled_from(sorted(CONFIGS)))
@settings(deadline=None, max_examples=150)
def test_random_programs_bit_exact(items, loop_n, sampling_name,
                                   config_name):
    exe = _build_program(items, loop_n)
    assert_engines_match(exe, sampling=SAMPLINGS[sampling_name],
                         config=CONFIGS[config_name])


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_every_item_kind_under_each_config(config_name):
    """One program holding every body item, under each config, sampled
    with LBR: no config depends on hypothesis drawing it."""
    items = [(kind, k % len(_BODY_REGS), val)
             for k, kind in enumerate(_ITEM_KINDS) for val in (7, -8, 9)]
    exe = _build_program(items, 9)
    state = assert_engines_match(exe, sampling=SAMPLINGS["cycles+lbr"],
                                 config=CONFIGS[config_name])
    assert state["error"] is None


@pytest.mark.parametrize("op", [Op.IDIV_RR, Op.IMOD_RR])
@pytest.mark.parametrize("sampling_name", ["none", "cycles+lbr"])
def test_division_by_zero_faults_identically(op, sampling_name):
    """The divide faults mid-trace as the first instruction of a new L1I
    line, after a load: the faulting instruction counts, but its cycles,
    the fetch miss included, do not."""
    head = [
        I(Op.MOV_RI64, RSI, imm=DATA),
        I(Op.MOV_RI32, RBX, imm=-9),
        I(Op.LOAD, RDX, RSI, disp=64),
    ]
    pad = 64 - sum(instruction_size(insn) for insn in head)
    while pad:
        length = pad if pad <= 16 else min(14, pad - 2)
        head.append(I(Op.NOPN, imm=length))
        pad -= length
    exe = make_exe(head + [I(op, RBX, RDX), I(Op.RET)])
    state = assert_engines_match(exe, sampling=SAMPLINGS[sampling_name])
    assert state["error"] == ("MachineFault",
                              f"division by zero at pc={BASE + 64:#x}")
    assert state["counters"]["l1i_misses"] == 2


def test_alu_ops_on_int64_extremes():
    """Every ALU, shift and division op on INT64_MIN/MAX-class operands,
    every result and comparison output: a missing or extra wrap in any
    arm changes the output."""
    insns = []
    for x in _BIG:
        for y in _BIG + (1, 2, 63, 64):
            for op in _ALU_RR + (Op.IDIV_RR, Op.IMOD_RR):
                insns += [I(Op.MOV_RI64, RAX, imm=x),
                          I(Op.MOV_RI64, RBX, imm=y),
                          I(op, RAX, RBX),
                          I(Op.OUT, RAX),
                          I(Op.SETCC, RDX, imm=int(CondCode.LT)),
                          I(Op.OUT, RDX)]
        for val in range(-100, 101, 3):
            for op in _ALU_RI:
                insns += [I(Op.MOV_RI64, RAX, imm=x),
                          _alu_ri(op, RAX, val),
                          I(Op.OUT, RAX),
                          I(Op.SETCC, RDX, imm=int(CondCode.ULT)),
                          I(Op.OUT, RDX)]
    state = assert_engines_match(make_exe(insns + [I(Op.RET)]))
    assert state["error"] is None
    assert _INT64_MIN in state["output"] and _INT64_MAX in state["output"]


def test_pop_into_rsp_adds_eight_to_the_loaded_value():
    """``POP RSP`` loads RSP, then adds 8 to the loaded value."""
    exe = make_exe([
        I(Op.MOV_RR, RDI, RSP),
        I(Op.MOV_RI64, RBX, imm=DATA + 0x200),
        I(Op.PUSH, RBX),
        I(Op.POP, RSP),
        I(Op.OUT, RSP),
        I(Op.MOV_RR, RSP, RDI),
        I(Op.RET),
    ])
    state = assert_engines_match(exe)
    assert state["output"] == [DATA + 0x208]


@given(st.lists(_body_item, min_size=1, max_size=12),
       st.integers(1, 3_000))
@settings(deadline=None, max_examples=60)
def test_registers_stay_in_int64_range(items, budget):
    """The invariant the block engine's unwrapped bitwise ops and int64
    word views rely on: every register and flag operand is always in
    [-2**63, 2**63), wherever the run is cut."""
    exe = _build_program(items, 1_000_000)
    for engine in ("ref", "block"):
        state = _outcome(exe, engine, max_instructions=budget)
        values = state["regs"] + list(state["flags"])
        assert all(_INT64_MIN <= v <= _INT64_MAX for v in values), values


@given(st.lists(_body_item, min_size=1, max_size=8), st.integers(2, 30))
@settings(deadline=None, max_examples=25)
def test_random_programs_fetch_heat(items, loop_n):
    exe = _build_program(items, loop_n)
    assert_engines_match(exe, fetch_heat=True)


@given(st.lists(_fault_free_item, min_size=1, max_size=8),
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
