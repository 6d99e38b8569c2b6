"""Block-cached execution engine for the BX86 simulator.

The pre-PR 5 per-instruction interpreter lives on verbatim in
:mod:`repro.uarch._reference_cpu` (class :class:`ReferenceCPU`) as the
equivalence oracle.  This module adds :class:`BlockCPU`, a bit-exact
but several-times-faster engine built on three ideas:

1. **Per-binary trace cache.**  Code is immutable after load, so
   straight-line instruction runs are pre-decoded once into traces
   keyed by entry pc and shared by every CPU instance executing the
   same :class:`~repro.belf.binary.Binary` (fleet shard collection
   decodes each binary once instead of once per host).  Each step is a
   flat tuple ``(kind, a, b, c, d, pc, fetch_events)`` with operands
   pre-extracted — no per-instruction ``insn.regs[0]`` attribute
   chases and no 60-arm opcode dispatch.

2. **Block-hoisted fetch accounting.**  Within a straight-line trace
   the i-side access stream is consecutive addresses, so every L1I
   access to the same line as the previous ifetch is a guaranteed
   MRU-fast-path hit (``ways[0] == tag``: no LRU state change), and
   every ITLB access to the same page is a guaranteed ``_last`` hit.
   Only the *events* — the first access of a trace and each line/page
   change, computed at build time — need real ``access()`` calls (at
   their exact position in the stream, preserving shared-LLC ordering
   against data misses); the rest are flushed as batched counter
   increments.  With ``prefetch_next_line`` enabled, prefetch installs
   can disturb LRU state between ifetches, so every L1I access becomes
   an event (the trace-cache key includes the flag).

3. **Write-to-exec-range invalidation.**  Every store is bounds-checked
   against the executable ranges; the first write that lands in code
   sets ``machine.code_dirty``, the engine seeds the reference decode
   cache with exactly the instructions fetched so far (reference
   semantics: stale decodes persist for already-fetched pcs), and
   execution falls back to the inherited interpretive loop — still
   bit-exact, including for self-modifying code.

Per-instruction sampler/skid ticks, LBR records, branch-predictor
updates and data-side cache/TLB accounting stay exact by construction:
they run per step, in stream order, on the same model objects.
"""

import weakref

from repro.belf import BUILTIN_BASE
from repro.isa import decode, DecodeError, RAX, RSP
from repro.isa.opcodes import Op, CondCode
from repro.uarch._reference_cpu import (
    _MASK,
    _wrap,
    ExecutionLimitExceeded,
    ReferenceCPU,
)
from repro.uarch.config import UarchConfig
from repro.uarch.machine import Machine, MachineFault, EXIT_MAGIC

_U64 = 0xFFFFFFFFFFFFFFFF
_SIGN = 0x8000000000000000
_TWO64 = 0x10000000000000000

#: Maximum instructions per cached trace.
_TRACE_CAP = 256

# Straight-line step kinds (hot ones first: executor dispatch is an
# if/elif chain in this order).
_K_LOAD = 0
_K_MOV_RI = 1
_K_MOV_RR = 2
_K_ADD_RI = 3
_K_ADD_RR = 4
_K_STORE = 5
_K_CMP_RI = 6
_K_CMP_RR = 7
_K_SUB_RR = 8
_K_SUB_RI = 9
_K_LEA = 10
_K_LOADIDX = 11
_K_STOREIDX = 12
_K_PUSH = 13
_K_POP = 14
_K_IMUL_RR = 15
_K_IMUL_RI = 16
_K_AND_RR = 17
_K_AND_RI = 18
_K_OR_RR = 19
_K_OR_RI = 20
_K_XOR_RR = 21
_K_XOR_RI = 22
_K_SHL_RI = 23
_K_SHR_RI = 24
_K_SAR_RI = 25
_K_SHL_RR = 26
_K_SHR_RR = 27
_K_SAR_RR = 28
_K_NEG = 29
_K_IDIV = 30
_K_IMOD = 31
_K_TEST_RR = 32
_K_TEST_RI = 33
_K_SETCC = 34
_K_LOAD_ABS = 35
_K_STORE_ABS = 36
_K_OUT = 37
_K_NOP = 38

# Terminator kinds (separate dispatch space).
_T_JCC = 0
_T_JMP = 1
_T_CALL = 2
_T_CALL_REG = 3
_T_CALL_MEM = 4
_T_JMP_REG = 5
_T_JMP_MEM = 6
_T_RET = 7
_T_HALT = 8
_T_TRAP = 9
_T_UNKNOWN = 10

_CC_EQ = int(CondCode.EQ)
_CC_NE = int(CondCode.NE)
_CC_LT = int(CondCode.LT)
_CC_LE = int(CondCode.LE)
_CC_GT = int(CondCode.GT)
_CC_GE = int(CondCode.GE)
_CC_ULT = int(CondCode.ULT)
_CC_ULE = int(CondCode.ULE)
_CC_UGT = int(CondCode.UGT)


def _cc_eval(cc, a, b):
    """Condition evaluation, same chain as ReferenceCPU._cc_true."""
    if cc == _CC_EQ:
        return a == b
    if cc == _CC_NE:
        return a != b
    if cc == _CC_LT:
        return a < b
    if cc == _CC_LE:
        return a <= b
    if cc == _CC_GT:
        return a > b
    if cc == _CC_GE:
        return a >= b
    ua, ub = a & _MASK, b & _MASK
    if cc == _CC_ULT:
        return ua < ub
    if cc == _CC_ULE:
        return ua <= ub
    if cc == _CC_UGT:
        return ua > ub
    return ua >= ub


#: Binary -> {(line_size, page_size, prefetch): {entry_pc: trace}}.
#: Traces describe the *pristine* code image, so they are valid for any
#: Machine freshly loaded from the same Binary; machines whose code has
#: been written (``machine.code_dirty``) stop using and feeding this.
#: The Binary itself is never re-checked: see its immutability contract.
_TRACE_CACHES = weakref.WeakKeyDictionary()


def _shared_traces(binary, key):
    try:
        per_binary = _TRACE_CACHES.get(binary)
        if per_binary is None:
            per_binary = {}
            _TRACE_CACHES[binary] = per_binary
    except TypeError:           # un-weakref-able binary stand-in: no sharing
        return {}
    cache = per_binary.get(key)
    if cache is None:
        cache = {}
        per_binary[key] = cache
    return cache


class BlockCPU(ReferenceCPU):
    """Trace-cached engine; bit-exact with :class:`ReferenceCPU`."""

    def __init__(self, machine, config=None, sampler=None):
        super().__init__(machine, config=config, sampler=sampler)
        cfg = self.config
        self._traces = _shared_traces(
            machine.binary,
            (cfg.line_size, cfg.page_size, bool(cfg.prefetch_next_line)))
        self._trace_fetched = {}    # entry pc -> instructions fetched
        self._dirty_seeded = False

    # -- dirty-code fallback --------------------------------------------------

    def _seed_decode_cache(self):
        """Reproduce the reference decode cache at the dirty transition.

        The reference interpreter never invalidates its per-CPU decode
        cache, so after a code write, already-fetched pcs keep their
        stale decodes while never-fetched pcs see the new bytes.  Seed
        exactly the fetched prefix of every executed trace, then the
        inherited interpretive loop behaves as if it had run all along.
        """
        if self._dirty_seeded:
            return
        self._dirty_seeded = True
        dc = self._decode_cache
        traces = self._traces
        for entry, cnt in self._trace_fetched.items():
            trace = traces.get(entry)
            if trace is None:       # pragma: no cover - traces are never evicted
                continue
            pcs = trace[2]
            insns = trace[4]
            for j in range(cnt):
                dc[pcs[j]] = insns[j]
        self._trace_fetched.clear()

    # -- data-side accounting (cold arms; hot arms inline this) ---------------

    def _dacc(self, addr, pc, is_write):
        if addr < 0:
            kind = "write" if is_write else "read"
            raise MachineFault(f"bad {kind} address {addr:#x} at pc={pc:#x}")
        c = self.counters
        cyc = 0
        c.dtlb_accesses += 1
        if not self.dtlb.access(addr):
            c.dtlb_misses += 1
            cyc += self.config.tlb_miss_penalty
        c.l1d_accesses += 1
        if not self.l1d.access(addr):
            c.l1d_misses += 1
            cyc += self._miss_path(addr)
        if is_write:
            c.mem_writes += 1
        else:
            c.mem_reads += 1
        return cyc

    # -- trace construction ---------------------------------------------------

    def _build_trace(self, entry):
        """Decode a straight-line run starting at ``entry``.

        Returns ``(steps, term, pcs, sizes, insns, cum_ia, cum_evi,
        cum_evp, fall_pc, total)``.  Raises MachineFault exactly when
        the reference fetch of ``entry`` would (non-executable entry or
        decode error); mid-trace fetch problems truncate the trace so
        the fault is raised on the *next* trace build, preserving the
        reference's raise timing.
        """
        machine = self.machine
        memory = machine.memory
        cfg = self.config
        line_bits = self.l1i.line_bits
        page_bits = self.itlb.page_bits
        ev_all = cfg.prefetch_next_line
        steps = []
        pcs = []
        sizes = []
        insns = []
        cum_ia = []
        cum_evi = []
        cum_evp = []
        term = None
        pc = entry
        prev_line = None
        prev_page = None
        ia = evi = evp = 0
        first = True

        while True:
            if first:
                first = False
                if not machine.is_executable_address(pc):
                    raise MachineFault(
                        f"jump to non-executable address {pc:#x}")
                try:
                    insn = decode(memory.read_bytes(pc, 16), 0, pc)
                except DecodeError as exc:
                    raise MachineFault(str(exc)) from None
            else:
                if not machine.is_executable_address(pc):
                    break
                try:
                    insn = decode(memory.read_bytes(pc, 16), 0, pc)
                except DecodeError:
                    break
            size = insn.size

            # Fetch events: accesses whose line/page differs from the
            # previous ifetch access must be real access() calls.
            ev = []
            page = pc >> page_bits
            if page != prev_page:
                ev.append((0, pc))
                evp += 1
                prev_page = page
            line = pc >> line_bits
            n_ia = 1
            if ev_all or line != prev_line:
                ev.append((1, pc))
                evi += 1
            prev_line = line
            end = pc + size - 1
            end_line = end >> line_bits
            if end_line != line:
                n_ia = 2
                ev.append((1, end))
                evi += 1
                prev_line = end_line
            ia += n_ia
            fev = tuple(ev) if ev else None

            pcs.append(pc)
            sizes.append(size)
            insns.append(insn)
            cum_ia.append(ia)
            cum_evi.append(evi)
            cum_evp.append(evp)

            op = insn.op
            npc = pc + size
            prepped = _prep_straight(op, insn)
            if prepped is None:
                term = _prep_term(op, insn, pc, npc, fev)
                break
            k, a, b, c, d = prepped
            steps.append((k, a, b, c, d, pc, fev))
            # A fallthrough into the builtin region cannot occur for
            # linked binaries (code sits far below BUILTIN_BASE), but
            # truncate defensively rather than mis-handle it.
            if npc >= BUILTIN_BASE or len(steps) >= _TRACE_CAP:
                break
            pc = npc

        fall_pc = pcs[-1] + sizes[-1]
        return (steps, term, pcs, sizes, insns, cum_ia, cum_evi, cum_evp,
                fall_pc, len(pcs))

    # -- main loop ------------------------------------------------------------

    def run(self, max_instructions=50_000_000):
        """Run until halt; returns the exit code (rax at exit)."""
        machine = self.machine
        if machine.code_dirty:
            self._seed_decode_cache()
            return ReferenceCPU.run(self, max_instructions)
        if self.halted:
            return self.exit_code

        regs = self.regs
        counters = self.counters
        cfg = self.config
        memory = machine.memory
        read_word = memory.read_word
        write_word = memory.write_word
        l1i = self.l1i
        itlb = self.itlb
        l1i_access = l1i.access
        itlb_access = itlb.access
        dtlb_access = self.dtlb.access
        l1d_access = self.l1d.access
        bp = self.bp
        lbr = self.lbr
        sampler = self.sampler
        out_append = self.output.append
        base_cpi = int(cfg.base_cpi)
        taken_pen = cfg.taken_branch_penalty
        mispred_pen = cfg.mispredict_penalty
        tlb_pen = cfg.tlb_miss_penalty
        line_size = cfg.line_size
        prefetch = cfg.prefetch_next_line
        exec_lo, exec_hi = machine.exec_bounds()
        traces = self._traces
        tf = self._trace_fetched
        fetch_heat = self.fetch_heat
        rsp_i = RSP
        rax_i = RAX
        builtin_base = BUILTIN_BASE
        exit_magic = EXIT_MAGIC
        remaining = max_instructions

        fa = self.flag_a
        fb = self.flag_b
        acc = skid_rem = last_taken = 0
        if sampler is not None:
            take_sample = sampler.take_sample
            ev_name = sampler.event
            s_event = (0 if ev_name == "cycles"
                       else 1 if ev_name == "instructions" else 2)
            s_period = sampler.period
            s_skid = sampler.skid
            acc = self._sample_acc
            skid_rem = self._skid_remaining
            last_taken = getattr(self, "_last_taken", 0)

            def tick(tpc, tcyc):
                nonlocal acc, skid_rem, last_taken
                if s_event == 0:
                    acc += tcyc
                elif s_event == 1:
                    acc += 1
                else:
                    tb = counters.taken_branches
                    acc += tb - last_taken
                    last_taken = tb
                if skid_rem >= 0:
                    if skid_rem == 0:
                        take_sample(
                            tpc, lbr.snapshot() if lbr is not None else None)
                        skid_rem = -1
                    else:
                        skid_rem -= 1
                if acc >= s_period:
                    acc -= s_period
                    if s_skid <= 0:
                        take_sample(
                            tpc, lbr.snapshot() if lbr is not None else None)
                    else:
                        skid_rem = s_skid - 1

        def sync():
            self.flag_a = fa
            self.flag_b = fb
            if sampler is not None:
                self._sample_acc = acc
                self._skid_remaining = skid_rem
                self._last_taken = last_taken

        while True:
            if remaining <= 0:
                sync()
                raise ExecutionLimitExceeded(
                    f"exceeded {max_instructions} instructions"
                    f" at pc={self.pc:#x}")
            entry = self.pc
            trace = traces.get(entry)
            if trace is None:
                try:
                    trace = self._build_trace(entry)
                except MachineFault:
                    sync()
                    raise
                traces[entry] = trace
            (steps, term, pcs, sizes, insns, cum_ia, cum_evi, cum_evp,
             fall_pc, total) = trace
            n_straight = total if term is None else total - 1
            if remaining >= total:
                count = total
                run_steps = steps
            else:
                count = remaining
                run_steps = steps if count >= n_straight else steps[:count]
            done = 0
            cyc_total = 0
            bail = False
            executed_term = False
            pc = entry

            try:
                for st in run_steps:
                    k, a, b, c, d, pc, fev = st
                    cyc = 0
                    if fev is not None:
                        for ek, eaddr in fev:
                            if ek:
                                if not l1i_access(eaddr):
                                    counters.l1i_misses += 1
                                    cyc += self._miss_path(eaddr)
                                    if prefetch:
                                        l1i.install(eaddr + line_size)
                            elif not itlb_access(eaddr):
                                counters.itlb_misses += 1
                                cyc += tlb_pen

                    if k == 0:          # LOAD
                        addr = regs[b] + c
                        if addr < 0:
                            raise MachineFault(
                                f"bad read address {addr:#x} at pc={pc:#x}")
                        counters.dtlb_accesses += 1
                        if not dtlb_access(addr):
                            counters.dtlb_misses += 1
                            cyc += tlb_pen
                        counters.l1d_accesses += 1
                        if not l1d_access(addr):
                            counters.l1d_misses += 1
                            cyc += self._miss_path(addr)
                        counters.mem_reads += 1
                        regs[a] = read_word(addr)
                    elif k == 1:        # MOV_RI32 / MOV_RI64
                        regs[a] = b
                    elif k == 2:        # MOV_RR
                        regs[a] = regs[b]
                    elif k == 3:        # ADD_RI
                        v = (regs[a] + b) & _U64
                        regs[a] = v - _TWO64 if v >= _SIGN else v
                    elif k == 4:        # ADD_RR
                        v = (regs[a] + regs[b]) & _U64
                        regs[a] = v - _TWO64 if v >= _SIGN else v
                    elif k == 5:        # STORE
                        addr = regs[a] + b
                        if addr < 0:
                            raise MachineFault(
                                f"bad write address {addr:#x} at pc={pc:#x}")
                        counters.dtlb_accesses += 1
                        if not dtlb_access(addr):
                            counters.dtlb_misses += 1
                            cyc += tlb_pen
                        counters.l1d_accesses += 1
                        if not l1d_access(addr):
                            counters.l1d_misses += 1
                            cyc += self._miss_path(addr)
                        counters.mem_writes += 1
                        write_word(addr, regs[c])
                        if (addr < exec_hi and addr + 8 > exec_lo
                                and machine.code_write_check(addr)):
                            bail = True
                    elif k == 6:        # CMP_RI
                        fa = regs[a]
                        fb = b
                    elif k == 7:        # CMP_RR
                        fa = regs[a]
                        fb = regs[b]
                    elif k == 8:        # SUB_RR
                        v = (regs[a] - regs[b]) & _U64
                        regs[a] = v - _TWO64 if v >= _SIGN else v
                    elif k == 9:        # SUB_RI
                        v = (regs[a] - b) & _U64
                        regs[a] = v - _TWO64 if v >= _SIGN else v
                    elif k == 10:       # LEA
                        v = (regs[b] + c) & _U64
                        regs[a] = v - _TWO64 if v >= _SIGN else v
                    elif k == 11:       # LOADIDX
                        addr = regs[b] + 8 * regs[c] + d
                        cyc += self._dacc(addr, pc, False)
                        regs[a] = read_word(addr)
                    elif k == 12:       # STOREIDX
                        addr = regs[a] + 8 * regs[b] + c
                        cyc += self._dacc(addr, pc, True)
                        write_word(addr, regs[d])
                        if (addr < exec_hi and addr + 8 > exec_lo
                                and machine.code_write_check(addr)):
                            bail = True
                    elif k == 13:       # PUSH
                        rsp = _wrap(regs[rsp_i] - 8)
                        regs[rsp_i] = rsp
                        cyc += self._dacc(rsp, pc, True)
                        write_word(rsp, regs[a])
                        if (rsp < exec_hi and rsp + 8 > exec_lo
                                and machine.code_write_check(rsp)):
                            bail = True
                    elif k == 14:       # POP
                        rsp = regs[rsp_i]
                        cyc += self._dacc(rsp, pc, False)
                        regs[a] = read_word(rsp)
                        regs[rsp_i] = _wrap(rsp + 8)
                    elif k == 15:       # IMUL_RR
                        regs[a] = _wrap(regs[a] * regs[b])
                    elif k == 16:       # IMUL_RI
                        regs[a] = _wrap(regs[a] * b)
                    elif k == 17:       # AND_RR
                        regs[a] = _wrap(regs[a] & regs[b])
                    elif k == 18:       # AND_RI
                        regs[a] = _wrap(regs[a] & b)
                    elif k == 19:       # OR_RR
                        regs[a] = _wrap(regs[a] | regs[b])
                    elif k == 20:       # OR_RI
                        regs[a] = _wrap(regs[a] | b)
                    elif k == 21:       # XOR_RR
                        regs[a] = _wrap(regs[a] ^ regs[b])
                    elif k == 22:       # XOR_RI
                        regs[a] = _wrap(regs[a] ^ b)
                    elif k == 23:       # SHL_RI
                        regs[a] = _wrap(regs[a] << (b & 63))
                    elif k == 24:       # SHR_RI
                        regs[a] = _wrap((regs[a] & _MASK) >> (b & 63))
                    elif k == 25:       # SAR_RI
                        regs[a] = _wrap(regs[a] >> (b & 63))
                    elif k == 26:       # SHL_RR
                        regs[a] = _wrap(regs[a] << (regs[b] & 63))
                    elif k == 27:       # SHR_RR
                        regs[a] = _wrap((regs[a] & _MASK) >> (regs[b] & 63))
                    elif k == 28:       # SAR_RR
                        regs[a] = _wrap(regs[a] >> (regs[b] & 63))
                    elif k == 29:       # NEG
                        regs[a] = _wrap(-regs[a])
                    elif k == 30 or k == 31:    # IDIV_RR / IMOD_RR
                        divisor = regs[b]
                        if divisor == 0:
                            raise MachineFault(
                                f"division by zero at pc={pc:#x}")
                        dividend = regs[a]
                        quotient = abs(dividend) // abs(divisor)
                        if (dividend < 0) != (divisor < 0):
                            quotient = -quotient
                        if k == 30:
                            regs[a] = _wrap(quotient)
                        else:
                            regs[a] = _wrap(dividend - quotient * divisor)
                    elif k == 32:       # TEST_RR
                        fa = _wrap(regs[a] & regs[b])
                        fb = 0
                    elif k == 33:       # TEST_RI
                        fa = _wrap(regs[a] & b)
                        fb = 0
                    elif k == 34:       # SETCC
                        regs[a] = 1 if _cc_eval(b, fa, fb) else 0
                    elif k == 35:       # LOAD_ABS
                        cyc += self._dacc(b, pc, False)
                        regs[a] = read_word(b)
                    elif k == 36:       # STORE_ABS
                        cyc += self._dacc(a, pc, True)
                        write_word(a, regs[b])
                        if (a < exec_hi and a + 8 > exec_lo
                                and machine.code_write_check(a)):
                            bail = True
                    elif k == 37:       # OUT
                        out_append(regs[a])
                    # k == 38: NOP / NOPN

                    cyc += base_cpi
                    cyc_total += cyc
                    done += 1
                    if sampler is not None:
                        tick(pc, cyc)
                    if bail:
                        break

                if term is not None and not bail and count == total:
                    tk, a, b, pc, npc, fev = term
                    cyc = 0
                    if fev is not None:
                        for ek, eaddr in fev:
                            if ek:
                                if not l1i_access(eaddr):
                                    counters.l1i_misses += 1
                                    cyc += self._miss_path(eaddr)
                                    if prefetch:
                                        l1i.install(eaddr + line_size)
                            elif not itlb_access(eaddr):
                                counters.itlb_misses += 1
                                cyc += tlb_pen

                    if tk == 0:         # JCC_SHORT / JCC_LONG
                        counters.cond_branches += 1
                        taken = _cc_eval(a, fa, fb)
                        correct = bp.update_cond(pc, taken)
                        if not correct:
                            counters.branch_misses += 1
                            cyc += mispred_pen
                        if taken:
                            counters.cond_taken += 1
                            counters.taken_branches += 1
                            cyc += taken_pen
                            if lbr is not None:
                                lbr.record(pc, b, not correct)
                            npc = b
                    elif tk == 7:       # RET / REPZ_RET
                        counters.returns += 1
                        rsp = regs[rsp_i]
                        cyc += self._dacc(rsp, pc, False)
                        target = read_word(rsp) & _MASK
                        regs[rsp_i] = _wrap(rsp + 8)
                        correct = bp.predict_return(target)
                        if not correct:
                            counters.branch_misses += 1
                            cyc += mispred_pen
                        if target == exit_magic:
                            self.halted = True
                            self.exit_code = regs[rax_i]
                            npc = pc
                        else:
                            counters.taken_branches += 1
                            cyc += taken_pen
                            if lbr is not None:
                                lbr.record(pc, target, not correct)
                            npc = target
                    elif tk == 2:       # CALL
                        counters.calls += 1
                        rsp = _wrap(regs[rsp_i] - 8)
                        regs[rsp_i] = rsp
                        cyc += self._dacc(rsp, pc, True)
                        write_word(rsp, npc)
                        if rsp < exec_hi and rsp + 8 > exec_lo:
                            machine.code_write_check(rsp)
                        bp.push_return(npc)
                        counters.taken_branches += 1
                        cyc += taken_pen
                        if lbr is not None:
                            lbr.record(pc, a, False)
                        npc = a
                    elif tk == 1:       # JMP_SHORT / JMP_NEAR
                        counters.uncond_branches += 1
                        counters.taken_branches += 1
                        cyc += taken_pen
                        if lbr is not None:
                            lbr.record(pc, a, False)
                        npc = a
                    elif tk == 3 or tk == 4:    # CALL_REG / CALL_MEM
                        counters.calls += 1
                        counters.indirect_branches += 1
                        if tk == 3:
                            target = regs[a] & _MASK
                        else:
                            cyc += self._dacc(a, pc, False)
                            target = read_word(a) & _MASK
                        correct = bp.predict_indirect(pc, target)
                        if not correct:
                            counters.branch_misses += 1
                            cyc += mispred_pen
                        rsp = _wrap(regs[rsp_i] - 8)
                        regs[rsp_i] = rsp
                        cyc += self._dacc(rsp, pc, True)
                        write_word(rsp, npc)
                        if rsp < exec_hi and rsp + 8 > exec_lo:
                            machine.code_write_check(rsp)
                        bp.push_return(npc)
                        counters.taken_branches += 1
                        cyc += taken_pen
                        if lbr is not None:
                            lbr.record(pc, target, not correct)
                        npc = target
                    elif tk == 5 or tk == 6:    # JMP_REG / JMP_MEM
                        counters.uncond_branches += 1
                        counters.indirect_branches += 1
                        if tk == 5:
                            target = regs[a] & _MASK
                        else:
                            cyc += self._dacc(a, pc, False)
                            target = read_word(a) & _MASK
                        correct = bp.predict_indirect(pc, target)
                        if not correct:
                            counters.branch_misses += 1
                            cyc += mispred_pen
                        counters.taken_branches += 1
                        cyc += taken_pen
                        if lbr is not None:
                            lbr.record(pc, target, not correct)
                        npc = target
                    elif tk == 8:       # HALT
                        self.halted = True
                        self.exit_code = regs[rax_i]
                        npc = pc
                    elif tk == 9:       # TRAP
                        raise MachineFault(f"trap at pc={pc:#x}")
                    else:               # pragma: no cover
                        raise MachineFault(
                            f"unimplemented opcode {a!r} at {pc:#x}")

                    cyc += base_cpi
                    cyc_total += cyc
                    done += 1
                    executed_term = True
                    term_pc = pc
                    term_cyc = cyc
            except MachineFault:
                # Dispatch-phase fault at `pc`: the reference counts the
                # faulting instruction (fetched) but not its cycles.
                counters.instructions += done + 1
                counters.cycles += cyc_total
                idx = done
                counters.l1i_accesses += cum_ia[idx]
                l1i.accesses += cum_ia[idx] - cum_evi[idx]
                counters.itlb_accesses += idx + 1
                itlb.accesses += idx + 1 - cum_evp[idx]
                if fetch_heat is not None:
                    for j in range(idx + 1):
                        p = pcs[j]
                        fetch_heat[p] = fetch_heat.get(p, 0) + sizes[j]
                if done + 1 > tf.get(entry, 0):
                    tf[entry] = done + 1
                self.pc = pc
                sync()
                raise

            # Flush block-batched accounting for the `done` completed steps.
            counters.instructions += done
            counters.cycles += cyc_total
            if done:
                idx = done - 1
                counters.l1i_accesses += cum_ia[idx]
                l1i.accesses += cum_ia[idx] - cum_evi[idx]
                counters.itlb_accesses += done
                itlb.accesses += done - cum_evp[idx]
                if fetch_heat is not None:
                    for j in range(done):
                        p = pcs[j]
                        fetch_heat[p] = fetch_heat.get(p, 0) + sizes[j]
                if done > tf.get(entry, 0):
                    tf[entry] = done
            remaining -= done

            if executed_term:
                if npc >= builtin_base and not self.halted:
                    self.pc = npc
                    sync()
                    self._run_builtin(npc)  # may raise; sets self.pc on return
                else:
                    self.pc = npc
                if sampler is not None:
                    tick(term_pc, term_cyc)
                if self.halted:
                    sync()
                    return self.exit_code
            else:
                self.pc = pcs[done] if done < total else fall_pc

            if machine.code_dirty:
                sync()
                self._seed_decode_cache()
                try:
                    return ReferenceCPU.run(self, remaining)
                except ExecutionLimitExceeded:
                    raise ExecutionLimitExceeded(
                        f"exceeded {max_instructions} instructions"
                        f" at pc={self.pc:#x}") from None


def _prep_straight(op, insn):
    """(kind, a, b, c, d) for a straight-line op; None for terminators."""
    r = insn.regs
    if op == Op.LOAD:
        return (_K_LOAD, r[0], r[1], insn.disp, 0)
    if op == Op.MOV_RI32 or op == Op.MOV_RI64:
        return (_K_MOV_RI, r[0], insn.imm, 0, 0)
    if op == Op.MOV_RR:
        return (_K_MOV_RR, r[0], r[1], 0, 0)
    if op == Op.ADD_RI:
        return (_K_ADD_RI, r[0], insn.imm, 0, 0)
    if op == Op.ADD_RR:
        return (_K_ADD_RR, r[0], r[1], 0, 0)
    if op == Op.STORE:
        return (_K_STORE, r[0], insn.disp, r[1], 0)
    if op == Op.CMP_RI:
        return (_K_CMP_RI, r[0], insn.imm, 0, 0)
    if op == Op.CMP_RR:
        return (_K_CMP_RR, r[0], r[1], 0, 0)
    if op == Op.SUB_RR:
        return (_K_SUB_RR, r[0], r[1], 0, 0)
    if op == Op.SUB_RI:
        return (_K_SUB_RI, r[0], insn.imm, 0, 0)
    if op == Op.LEA:
        return (_K_LEA, r[0], r[1], insn.disp, 0)
    if op == Op.LOADIDX:
        return (_K_LOADIDX, r[0], r[1], r[2], insn.disp)
    if op == Op.STOREIDX:
        return (_K_STOREIDX, r[0], r[1], insn.disp, r[2])
    if op == Op.PUSH:
        return (_K_PUSH, r[0], 0, 0, 0)
    if op == Op.POP:
        return (_K_POP, r[0], 0, 0, 0)
    if op == Op.IMUL_RR:
        return (_K_IMUL_RR, r[0], r[1], 0, 0)
    if op == Op.IMUL_RI:
        return (_K_IMUL_RI, r[0], insn.imm, 0, 0)
    if op == Op.AND_RR:
        return (_K_AND_RR, r[0], r[1], 0, 0)
    if op == Op.AND_RI:
        return (_K_AND_RI, r[0], insn.imm, 0, 0)
    if op == Op.OR_RR:
        return (_K_OR_RR, r[0], r[1], 0, 0)
    if op == Op.OR_RI:
        return (_K_OR_RI, r[0], insn.imm, 0, 0)
    if op == Op.XOR_RR:
        return (_K_XOR_RR, r[0], r[1], 0, 0)
    if op == Op.XOR_RI:
        return (_K_XOR_RI, r[0], insn.imm, 0, 0)
    if op == Op.SHL_RI:
        return (_K_SHL_RI, r[0], insn.imm, 0, 0)
    if op == Op.SHR_RI:
        return (_K_SHR_RI, r[0], insn.imm, 0, 0)
    if op == Op.SAR_RI:
        return (_K_SAR_RI, r[0], insn.imm, 0, 0)
    if op == Op.SHL_RR:
        return (_K_SHL_RR, r[0], r[1], 0, 0)
    if op == Op.SHR_RR:
        return (_K_SHR_RR, r[0], r[1], 0, 0)
    if op == Op.SAR_RR:
        return (_K_SAR_RR, r[0], r[1], 0, 0)
    if op == Op.NEG:
        return (_K_NEG, r[0], 0, 0, 0)
    if op == Op.IDIV_RR:
        return (_K_IDIV, r[0], r[1], 0, 0)
    if op == Op.IMOD_RR:
        return (_K_IMOD, r[0], r[1], 0, 0)
    if op == Op.TEST_RR:
        return (_K_TEST_RR, r[0], r[1], 0, 0)
    if op == Op.TEST_RI:
        return (_K_TEST_RI, r[0], insn.imm, 0, 0)
    if op == Op.SETCC:
        # Resolved once per trace, not per execution.
        return (_K_SETCC, r[0], int(CondCode(insn.imm)), 0, 0)
    if op == Op.LOAD_ABS:
        return (_K_LOAD_ABS, r[0], insn.addr, 0, 0)
    if op == Op.STORE_ABS:
        return (_K_STORE_ABS, insn.addr, r[0], 0, 0)
    if op == Op.OUT:
        return (_K_OUT, r[0], 0, 0, 0)
    if op == Op.NOP or op == Op.NOPN:
        return (_K_NOP, 0, 0, 0, 0)
    return None


def _prep_term(op, insn, pc, npc, fev):
    """Terminator step tuple ``(kind, a, b, pc, npc, fev)``."""
    if op == Op.JCC_SHORT or op == Op.JCC_LONG:
        return (_T_JCC, int(insn.cc), insn.target, pc, npc, fev)
    if op == Op.JMP_SHORT or op == Op.JMP_NEAR:
        return (_T_JMP, insn.target, 0, pc, npc, fev)
    if op == Op.CALL:
        return (_T_CALL, insn.target, 0, pc, npc, fev)
    if op == Op.CALL_REG:
        return (_T_CALL_REG, insn.regs[0], 0, pc, npc, fev)
    if op == Op.CALL_MEM:
        return (_T_CALL_MEM, insn.addr, 0, pc, npc, fev)
    if op == Op.JMP_REG:
        return (_T_JMP_REG, insn.regs[0], 0, pc, npc, fev)
    if op == Op.JMP_MEM:
        return (_T_JMP_MEM, insn.addr, 0, pc, npc, fev)
    if op == Op.RET or op == Op.REPZ_RET:
        return (_T_RET, 0, 0, pc, npc, fev)
    if op == Op.HALT:
        return (_T_HALT, 0, 0, pc, npc, fev)
    if op == Op.TRAP:
        return (_T_TRAP, 0, 0, pc, npc, fev)
    return (_T_UNKNOWN, op, 0, pc, npc, fev)


def CPU(machine, config=None, sampler=None, engine=None):
    """Build a CPU for ``machine`` using the selected execution engine.

    ``engine`` chooses between the block-cached engine (``"block"`` or
    None, the default) and the preserved per-instruction reference
    interpreter (``"ref"``), kept as the oracle for equivalence checks.
    Both produce bit-identical architectural and microarchitectural
    results.
    """
    cfg = config or UarchConfig()
    if engine == "ref":
        return ReferenceCPU(machine, config=cfg, sampler=sampler)
    if engine not in (None, "block"):
        raise ValueError(f"unknown execution engine {engine!r}")
    return BlockCPU(machine, config=cfg, sampler=sampler)


def run_binary(binary, *, inputs=None, config=None, sampler=None,
               max_instructions=50_000_000, fetch_heat=False, engine=None):
    """Convenience: load, optionally poke input arrays, run.

    ``inputs``: {array link name: [values]} written before execution.
    ``engine``: "block" (default) | "ref" (the reference oracle).
    Returns the CPU (with counters, output, exit code).
    """
    machine = Machine(binary)
    if inputs:
        for link_name, values in inputs.items():
            machine.poke_array(link_name, values)
    cpu = CPU(machine, config=config, sampler=sampler, engine=engine)
    if fetch_heat:
        cpu.fetch_heat = {}
    cpu.run(max_instructions)
    return cpu
