"""Block-cached execution engine for the BX86 simulator.

The pre-PR 5 per-instruction interpreter lives on verbatim in
:mod:`repro.uarch._reference_cpu` (class :class:`ReferenceCPU`) as the
equivalence oracle.  This module adds :class:`BlockCPU`, a bit-exact
but several-times-faster engine.  Its ideas, each exact by
construction:

1. **Per-binary trace cache.**  Code is immutable after load, so
   straight-line instruction runs are pre-decoded once into traces
   keyed by entry pc and shared by every CPU instance executing the
   same :class:`~repro.belf.binary.Binary` (fleet shard collection
   decodes each binary once instead of once per host).  Each step is a
   flat tuple ``(kind, a, b, c, d, pc, fetch_events)`` with operands
   pre-extracted; the trace's terminator is its last step.

2. **Block-hoisted fetch accounting.**  Within a straight-line trace
   the i-side access stream is consecutive addresses, so every L1I
   access to the same line as the previous ifetch is a guaranteed
   MRU hit (``ways[0] == tag``: no LRU state change), and every ITLB
   access to the same page is a guaranteed ``_last`` hit.  Only the
   *events* -- the first access of a trace and each line/page change,
   computed at build time -- are looked up, at their exact position in
   the stream (preserving shared-LLC ordering against data misses).
   With ``prefetch_next_line`` enabled, prefetch installs can disturb
   LRU state between ifetches, so every L1I access becomes an event
   (the trace-cache key includes the flag).

3. **Inline hit paths.**  An access that hits the L1I/L1D set's MRU
   way or the TLB's ``_last`` page changes no model state, so the run
   loop tests for those hits itself and only counts them; a TLB hit on
   another page is the dict move ``TLB.access`` would make, also done
   inline.  Every other access calls the unchanged ``access()`` in
   stream order.  Counters and the caches' and TLBs' ``accesses`` are
   kept in run-level locals and flushed on every exit from
   :meth:`BlockCPU.run` (halt, fault, budget, a faulting builtin and
   the code-dirty fallback); ``counters.taken_branches`` stays live
   because the taken-branches sampler reads it.  The cycles sampler is
   advanced inline and calls out only when a sample or skid is due,
   and return-stack pushes and pops are inlined.

4. **Word views.**  Aligned loads and stores index the page's int64
   view (:attr:`Memory.words`) instead of slicing bytes.  They store
   register values, which are always in ``[-2**63, 2**63)``: every
   write to a register is a signed immediate, a signed memory word, a
   0/1 flag, a wrapped result, or a bitwise op or arithmetic right
   shift of in-range values -- which is also why those last need no
   wrap.  Views are native-order, so a big-endian host runs the
   reference loop instead.

5. **Write-to-exec-range invalidation.**  Every store is bounds-checked
   against the executable ranges; the first write that lands in code
   sets ``machine.code_dirty``, the engine seeds the reference decode
   cache with exactly the instructions fetched so far (reference
   semantics: stale decodes persist for already-fetched pcs), and
   execution falls back to the inherited interpretive loop -- still
   bit-exact, including for self-modifying code.

Sampler/skid ticks, LBR records, branch-predictor updates and the
data-side cache/TLB stream run per instruction, in stream order, on the
same model objects as the reference.
"""

import sys
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
from repro.uarch.machine import (
    _PAGE_BITS,
    _PAGE_MASK,
    EXIT_MAGIC,
    Machine,
    MachineFault,
)

_SIGN = 0x8000000000000000
_NSIGN = -_SIGN
_WORD_VIEWS = sys.byteorder == "little"

#: Maximum instructions per cached trace.
_TRACE_CAP = 256

# Step kinds in three bands -- register ops (k < _K_MEM), memory ops
# (_K_MEM <= k < _K_TERM) and terminators -- so dispatch tests the band
# first.  Within a band, arms are in this order, which follows measured
# dynamic frequency on the compiler and proxygen workloads (MOV_RR alone
# is a quarter of all instructions).
(_K_MOV_RR, _K_ADD_RR, _K_MOV_RI, _K_IMOD, _K_IMUL_RI, _K_SAR_RI, _K_CMP_RI,
 _K_AND_RI, _K_SUB_RI, _K_XOR_RI, _K_XOR_RR, _K_SUB_RR, _K_ADD_RI, _K_CMP_RR,
 _K_LEA, _K_IMUL_RR, _K_AND_RR, _K_OR_RR, _K_OR_RI, _K_SHL_RI, _K_SHR_RI,
 _K_TEST_RR, _K_TEST_RI, _K_SETCC, _K_SHL_RR, _K_SHR_RR, _K_SAR_RR, _K_NEG,
 _K_IDIV, _K_OUT, _K_NOP,
 _K_PUSH, _K_POP, _K_STORE, _K_LOAD, _K_LOADIDX, _K_LOAD_ABS, _K_STOREIDX,
 _K_STORE_ABS,
 _T_RET, _T_CALL, _T_JCC, _T_JMP, _T_JMP_MEM, _T_JMP_REG, _T_CALL_REG,
 _T_CALL_MEM, _T_HALT, _T_TRAP, _T_UNKNOWN) = range(50)
_K_MEM = _K_PUSH
_K_TERM = _T_RET

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
            pcs = trace[1]
            insns = trace[3]
            for j in range(cnt):
                dc[pcs[j]] = insns[j]
        self._trace_fetched.clear()

    # -- sampling -------------------------------------------------------------

    def _tick_straight(self, pcs, n, extras, acc, skid_rem, last_taken):
        """Sampler ticks of a trace's first ``n`` steps, all straight-line.

        Run after those steps and before the trace's terminator: until
        then neither the LBR nor ``taken_branches`` changes, so each tick
        sees what it would have seen in stream order.  ``extras`` lists
        ``(pc, cycles)`` those steps spent beyond ``base_cpi``.  Returns
        the new ``(acc, skid_rem, last_taken)``.
        """
        sampler = self.sampler
        event = sampler.event
        base_cpi = int(self.config.base_cpi)
        extra = {}
        for p, cyc in extras:
            extra[p] = extra.get(p, 0) + cyc
        for j in range(n):
            p = pcs[j]
            if event == "cycles":
                acc += base_cpi + extra.get(p, 0)
            elif event == "instructions":
                acc += 1
            else:
                tb = self.counters.taken_branches
                acc += tb - last_taken
                last_taken = tb
            if skid_rem >= 0 or acc >= sampler.period:
                acc, skid_rem = self._sample_due(p, acc, skid_rem)
        return acc, skid_rem, last_taken

    def _sample_due(self, pc, acc, skid_rem):
        """The tail of ReferenceCPU._sampler_tick after the accumulator
        was advanced: count down a pending skid, then take or schedule a
        sample once ``acc`` reaches the period.  Returns the new
        ``(acc, skid_rem)``."""
        sampler = self.sampler
        lbr = self.lbr
        if skid_rem >= 0:
            if skid_rem == 0:
                sampler.take_sample(
                    pc, lbr.snapshot() if lbr is not None else None)
                skid_rem = -1
            else:
                skid_rem -= 1
        if acc >= sampler.period:
            acc -= sampler.period
            if sampler.skid <= 0:
                sampler.take_sample(
                    pc, lbr.snapshot() if lbr is not None else None)
            else:
                skid_rem = sampler.skid - 1
        return acc, skid_rem

    # -- trace construction ---------------------------------------------------

    def _build_trace(self, entry):
        """Decode a straight-line run starting at ``entry``.

        Returns ``(steps, pcs, sizes, insns, cum_ia, total)``: the step
        tuples (a terminator, if the run ends in one, is the last), the
        pc, size and decoded instruction of each, and the running count
        of L1I accesses.  Each step's fetch events are ``(is_l1i, addr,
        line or page)``.  Raises MachineFault exactly when the reference
        fetch of ``entry`` would (non-executable entry or decode error);
        mid-trace fetch problems truncate the trace so the fault is
        raised on the *next* trace build, preserving the reference's
        raise timing.
        """
        machine = self.machine
        memory = machine.memory
        line_bits = self.l1i.line_bits
        page_bits = self.itlb.page_bits
        ev_all = self.config.prefetch_next_line
        steps = []
        pcs = []
        sizes = []
        insns = []
        cum_ia = []
        pc = entry
        prev_line = None
        prev_page = None
        ia = 0

        while True:
            if not machine.is_executable_address(pc):
                if pc == entry:
                    raise MachineFault(
                        f"jump to non-executable address {pc:#x}")
                break
            try:
                insn = decode(memory.read_bytes(pc, 16), 0, pc)
            except DecodeError as exc:
                if pc == entry:
                    raise MachineFault(str(exc)) from None
                break
            size = insn.size

            # Fetch events: accesses whose line/page differs from the
            # previous ifetch access must be looked up.
            ev = []
            page = pc >> page_bits
            if page != prev_page:
                ev.append((False, pc, page))
                prev_page = page
            line = pc >> line_bits
            ia += 1
            if ev_all or line != prev_line:
                ev.append((True, pc, line))
            prev_line = line
            end = pc + size - 1
            end_line = end >> line_bits
            if end_line != line:
                ia += 1
                ev.append((True, end, end_line))
                prev_line = end_line
            fev = tuple(ev) if ev else None

            pcs.append(pc)
            sizes.append(size)
            insns.append(insn)
            cum_ia.append(ia)

            op = insn.op
            npc = pc + size
            step = _prep_straight(op, insn)
            if step is None:
                tk, a, b = _prep_term(op, insn)
                steps.append((tk, a, b, npc, 0, pc, fev))
                break
            k, a, b, c, d = step
            steps.append((k, a, b, c, d, pc, fev))
            # A fallthrough into the builtin region cannot occur for
            # linked binaries (code sits far below BUILTIN_BASE), but
            # truncate defensively rather than mis-handle it.
            if npc >= BUILTIN_BASE or len(steps) >= _TRACE_CAP:
                break
            pc = npc

        return steps, pcs, sizes, insns, cum_ia, len(pcs)

    # -- main loop ------------------------------------------------------------

    def run(self, max_instructions=50_000_000):
        """Run until halt; returns the exit code (rax at exit)."""
        machine = self.machine
        if machine.code_dirty or not _WORD_VIEWS:
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
        words = memory.words
        word_view = memory.word_view
        code_write_check = machine.code_write_check
        exec_lo, exec_hi = machine.exec_bounds()
        miss_path = self._miss_path
        l1i = self.l1i
        l1i_access = l1i.access
        l1i_install = l1i.install
        isets = l1i.sets
        imask = l1i.set_mask
        ishift = l1i.tag_shift
        l1d = self.l1d
        l1d_access = l1d.access
        dsets = l1d.sets
        dmask = l1d.set_mask
        dshift = l1d.tag_shift
        dlb = l1d.line_bits
        itlb = self.itlb
        itlb_access = itlb.access
        ipages = itlb.pages
        ilast = itlb._last
        dtlb = self.dtlb
        dtlb_access = dtlb.access
        dpages = dtlb.pages
        dpb = dtlb.page_bits
        dlast = dtlb._last
        bp = self.bp
        update_cond = bp.update_cond
        predict_indirect = bp.predict_indirect
        ras = bp.ras
        ras_depth = bp.ras_depth
        lbr = self.lbr
        out_append = self.output.append
        base_cpi = int(cfg.base_cpi)
        taken_pen = cfg.taken_branch_penalty
        mispred_pen = cfg.mispredict_penalty
        tlb_pen = cfg.tlb_miss_penalty
        line_size = cfg.line_size
        prefetch = cfg.prefetch_next_line
        traces = self._traces
        build_trace = self._build_trace
        tf = self._trace_fetched
        fetch_heat = self.fetch_heat
        rsp_i = RSP
        sign = _SIGN
        nsign = _NSIGN
        u64 = _MASK
        two64 = _MASK + 1
        page_bits = _PAGE_BITS
        page_mask = _PAGE_MASK
        builtin_base = BUILTIN_BASE
        exit_magic = EXIT_MAGIC

        sampler = self.sampler
        sampling = sampler is not None
        acc = self._sample_acc
        skid_rem = self._skid_remaining
        last_taken = getattr(self, "_last_taken", 0)
        s_cycles = sampling and sampler.event == "cycles"
        s_period = sampler.period if sampling else 0
        tick_straight = self._tick_straight
        # Straight steps are ticked in one go before the terminator;
        # until then `sx` holds their (pc, cycles) beyond base_cpi and
        # `sxc` the sum of those cycles.
        sx = []
        sxc = 0

        fa = self.flag_a
        fb = self.flag_b
        cur = self.pc               # pc of the next trace
        halted = False
        bail = False                # a store hit code: leave for the ref loop
        remaining = max_instructions

        # Run-level batched counts, flushed by the `finally` below.
        # cycles = base_cpi * n_ins + xc; the object-side `accesses` of
        # a cache or TLB are its accesses minus the access() calls made.
        n_ins = n_ia = xc = fx = 0
        n_rd = n_wr = 0
        il_calls = it_calls = dl_calls = dt_calls = 0
        n_cond = n_cond_taken = n_uncond = n_miss = 0
        n_calls = n_rets = n_ind = 0

        try:
            while True:
                if remaining <= 0:
                    raise ExecutionLimitExceeded(
                        f"exceeded {max_instructions} instructions"
                        f" at pc={cur:#x}")
                trace = traces.get(cur)
                if trace is None:
                    trace = traces[cur] = build_trace(cur)
                steps, pcs, sizes, _, cum_ia, total = trace
                if remaining >= total:
                    count = total
                    run_steps = steps
                else:
                    count = remaining
                    run_steps = steps[:count]

                try:
                    for k, a, b, c, d, pc, fev in run_steps:
                        if fev is not None:
                            fx = 0
                            for is_l1i, eaddr, key in fev:
                                if is_l1i:
                                    ways = isets[key & imask]
                                    tag = key >> ishift
                                    if ways and ways[0] == tag:
                                        pass
                                    elif tag in ways:
                                        ways.remove(tag)
                                        ways.insert(0, tag)
                                    else:
                                        il_calls += 1
                                        l1i_access(eaddr)   # a miss
                                        counters.l1i_misses += 1
                                        fx += miss_path(eaddr)
                                        if prefetch:
                                            l1i_install(eaddr + line_size)
                                elif key != ilast:
                                    if key in ipages:
                                        del ipages[key]
                                        ipages[key] = True
                                        itlb._last = key
                                    else:
                                        it_calls += 1
                                        itlb_access(eaddr)
                                        counters.itlb_misses += 1
                                        fx += tlb_pen
                                    ilast = key
                            if fx:
                                xc += fx
                                if sampling and k < _K_TERM:
                                    sx.append((pc, fx))
                                    sxc += fx

                        if k < _K_MEM:
                            if k == _K_MOV_RR:
                                regs[a] = regs[b]
                            elif k == _K_ADD_RR:
                                v = regs[a] + regs[b]
                                if v >= sign or v < nsign:
                                    v = ((v + sign) & u64) - sign
                                regs[a] = v
                            elif k == _K_MOV_RI:
                                regs[a] = b
                            elif k == _K_IMOD:
                                divisor = regs[b]
                                if divisor == 0:
                                    raise MachineFault(
                                        f"division by zero at pc={pc:#x}")
                                # C remainder: the sign of the dividend,
                                # smaller than the divisor (no wrap).
                                dividend = regs[a]
                                v = dividend % divisor
                                if v and (dividend < 0) != (divisor < 0):
                                    v -= divisor
                                regs[a] = v
                            elif k == _K_IMUL_RI:
                                v = regs[a] * b
                                if v >= sign or v < nsign:
                                    v = ((v + sign) & u64) - sign
                                regs[a] = v
                            elif k == _K_SAR_RI:
                                regs[a] = regs[a] >> b
                            elif k == _K_CMP_RI:
                                fa = regs[a]
                                fb = b
                            elif k == _K_AND_RI:
                                regs[a] &= b
                            elif k == _K_SUB_RI:
                                v = regs[a] - b
                                if v >= sign or v < nsign:
                                    v = ((v + sign) & u64) - sign
                                regs[a] = v
                            elif k == _K_XOR_RI:
                                regs[a] ^= b
                            elif k == _K_XOR_RR:
                                regs[a] ^= regs[b]
                            elif k == _K_SUB_RR:
                                v = regs[a] - regs[b]
                                if v >= sign or v < nsign:
                                    v = ((v + sign) & u64) - sign
                                regs[a] = v
                            elif k == _K_ADD_RI:
                                v = regs[a] + b
                                if v >= sign or v < nsign:
                                    v = ((v + sign) & u64) - sign
                                regs[a] = v
                            elif k == _K_CMP_RR:
                                fa = regs[a]
                                fb = regs[b]
                            elif k == _K_LEA:
                                v = regs[b] + c
                                if v >= sign or v < nsign:
                                    v = ((v + sign) & u64) - sign
                                regs[a] = v
                            elif k == _K_IMUL_RR:
                                regs[a] = _wrap(regs[a] * regs[b])
                            elif k == _K_AND_RR:
                                regs[a] &= regs[b]
                            elif k == _K_OR_RR:
                                regs[a] |= regs[b]
                            elif k == _K_OR_RI:
                                regs[a] |= b
                            elif k == _K_SHL_RI:
                                regs[a] = _wrap(regs[a] << b)
                            elif k == _K_SHR_RI:
                                # b in 1..63 (a zero count is a NOP step):
                                # the result is below 2**63.
                                regs[a] = (regs[a] & u64) >> b
                            elif k == _K_TEST_RR:
                                fa = regs[a] & regs[b]
                                fb = 0
                            elif k == _K_TEST_RI:
                                fa = regs[a] & b
                                fb = 0
                            elif k == _K_SETCC:
                                regs[a] = 1 if _cc_eval(b, fa, fb) else 0
                            elif k == _K_SHL_RR:
                                regs[a] = _wrap(regs[a] << (regs[b] & 63))
                            elif k == _K_SHR_RR:
                                regs[a] = _wrap(
                                    (regs[a] & u64) >> (regs[b] & 63))
                            elif k == _K_SAR_RR:
                                regs[a] = regs[a] >> (regs[b] & 63)
                            elif k == _K_NEG:
                                regs[a] = _wrap(-regs[a])
                            elif k == _K_IDIV:
                                divisor = regs[b]
                                if divisor == 0:
                                    raise MachineFault(
                                        f"division by zero at pc={pc:#x}")
                                dividend = regs[a]
                                quotient = abs(dividend) // abs(divisor)
                                if (dividend < 0) != (divisor < 0):
                                    quotient = -quotient
                                regs[a] = _wrap(quotient)
                            elif k == _K_OUT:
                                out_append(regs[a])
                            # _K_NOP: nothing

                        elif k < _K_TERM:
                            if k == _K_PUSH:
                                addr = regs[rsp_i] - 8
                                if addr < nsign:
                                    addr += two64
                                regs[rsp_i] = addr
                                val = regs[a]
                                wr = True
                            elif k == _K_POP:
                                addr = regs[rsp_i]
                                wr = False
                            elif k == _K_STORE:
                                addr = regs[a] + b
                                val = regs[c]
                                wr = True
                            elif k == _K_LOAD:
                                addr = regs[b] + c
                                wr = False
                            elif k == _K_LOADIDX:
                                addr = regs[b] + 8 * regs[c] + d
                                wr = False
                            elif k == _K_LOAD_ABS:
                                addr = b
                                wr = False
                            elif k == _K_STOREIDX:
                                addr = regs[a] + 8 * regs[b] + c
                                val = regs[d]
                                wr = True
                            else:           # STORE_ABS
                                addr = a
                                val = regs[b]
                                wr = True
                            if addr < 0:
                                raise MachineFault(
                                    f"bad {'write' if wr else 'read'} address"
                                    f" {addr:#x} at pc={pc:#x}")
                            page = addr >> dpb
                            if page != dlast:
                                if page in dpages:
                                    del dpages[page]
                                    dpages[page] = True
                                    dtlb._last = page
                                else:
                                    dt_calls += 1
                                    dtlb_access(addr)
                                    counters.dtlb_misses += 1
                                    xc += tlb_pen
                                    if sampling:
                                        sx.append((pc, tlb_pen))
                                        sxc += tlb_pen
                                dlast = page
                            line = addr >> dlb
                            ways = dsets[line & dmask]
                            tag = line >> dshift
                            if ways and ways[0] == tag:
                                pass
                            elif tag in ways:
                                ways.remove(tag)
                                ways.insert(0, tag)
                            else:
                                dl_calls += 1
                                l1d_access(addr)            # a miss
                                counters.l1d_misses += 1
                                m = miss_path(addr)
                                xc += m
                                if sampling:
                                    sx.append((pc, m))
                                    sxc += m
                            if wr:
                                n_wr += 1
                                if addr & 7:
                                    write_word(addr, val)
                                else:
                                    w = words.get(addr >> page_bits)
                                    if w is None:
                                        w = word_view(addr >> page_bits)
                                    w[(addr & page_mask) >> 3] = val
                                if (addr < exec_hi and addr + 8 > exec_lo
                                        and code_write_check(addr)):
                                    bail = True
                            else:
                                n_rd += 1
                                if addr & 7:
                                    regs[a] = read_word(addr)
                                else:
                                    w = words.get(addr >> page_bits)
                                    regs[a] = (0 if w is None else
                                               w[(addr & page_mask) >> 3])
                                if k == _K_POP:
                                    # After the load: POP RSP pops into
                                    # RSP, then adds 8 to the loaded value.
                                    v = regs[rsp_i] + 8
                                    if v >= sign:
                                        v -= two64
                                    regs[rsp_i] = v

                        else:
                            # Terminator: last step of the trace.  The
                            # straight steps before it are ticked first,
                            # as it may change the LBR.  Its own extra
                            # cycles gather in `tc` and reach `xc` once
                            # it cannot fault any more.
                            if sampling and total > 1:
                                g = base_cpi * (total - 1) + sxc
                                if (s_cycles and skid_rem < 0
                                        and acc + g < s_period):
                                    acc += g
                                else:
                                    acc, skid_rem, last_taken = tick_straight(
                                        pcs, total - 1, sx, acc, skid_rem,
                                        last_taken)
                                if sx:
                                    sx = []
                                    sxc = 0
                            tc = 0
                            if k == _T_RET:
                                n_rets += 1
                                addr = regs[rsp_i]
                                if addr < 0:
                                    raise MachineFault(
                                        f"bad read address {addr:#x}"
                                        f" at pc={pc:#x}")
                                page = addr >> dpb
                                if page != dlast:
                                    if page in dpages:
                                        del dpages[page]
                                        dpages[page] = True
                                        dtlb._last = page
                                    else:
                                        dt_calls += 1
                                        dtlb_access(addr)
                                        counters.dtlb_misses += 1
                                        tc += tlb_pen
                                    dlast = page
                                line = addr >> dlb
                                ways = dsets[line & dmask]
                                if not ways or ways[0] != line >> dshift:
                                    dl_calls += 1
                                    if not l1d_access(addr):
                                        counters.l1d_misses += 1
                                        tc += miss_path(addr)
                                n_rd += 1
                                if addr & 7:
                                    target = read_word(addr) & u64
                                else:
                                    w = words.get(addr >> page_bits)
                                    target = (0 if w is None else
                                              w[(addr & page_mask) >> 3] & u64)
                                v = addr + 8
                                if v >= sign:
                                    v -= two64
                                regs[rsp_i] = v
                                if not ras or ras.pop() != target:
                                    n_miss += 1
                                    tc += mispred_pen
                                    mis = True
                                else:
                                    mis = False
                                if target == exit_magic:
                                    self.halted = halted = True
                                    self.exit_code = regs[RAX]
                                    npc = pc
                                else:
                                    counters.taken_branches += 1
                                    tc += taken_pen
                                    if lbr is not None:
                                        lbr.record(pc, target, mis)
                                    npc = target
                            elif k == _T_JCC:
                                n_cond += 1
                                taken = _cc_eval(a, fa, fb)
                                if update_cond(pc, taken):
                                    mis = False
                                else:
                                    n_miss += 1
                                    tc += mispred_pen
                                    mis = True
                                if taken:
                                    n_cond_taken += 1
                                    counters.taken_branches += 1
                                    tc += taken_pen
                                    if lbr is not None:
                                        lbr.record(pc, b, mis)
                                    npc = b
                                else:
                                    npc = c
                            elif k == _T_JMP:
                                n_uncond += 1
                                counters.taken_branches += 1
                                tc += taken_pen
                                if lbr is not None:
                                    lbr.record(pc, a, False)
                                npc = a
                            elif k < _T_HALT:
                                # CALL and the indirect transfers.
                                if k == _T_CALL:
                                    target = a
                                    mis = False
                                else:
                                    n_ind += 1
                                    if k == _T_JMP_MEM or k == _T_CALL_MEM:
                                        addr = a    # abs32: never negative
                                        page = addr >> dpb
                                        if page != dlast:
                                            if page in dpages:
                                                del dpages[page]
                                                dpages[page] = True
                                                dtlb._last = page
                                            else:
                                                dt_calls += 1
                                                dtlb_access(addr)
                                                counters.dtlb_misses += 1
                                                tc += tlb_pen
                                            dlast = page
                                        line = addr >> dlb
                                        ways = dsets[line & dmask]
                                        if (not ways
                                                or ways[0] != line >> dshift):
                                            dl_calls += 1
                                            if not l1d_access(addr):
                                                counters.l1d_misses += 1
                                                tc += miss_path(addr)
                                        n_rd += 1
                                        target = read_word(addr) & u64
                                    else:
                                        target = regs[a] & u64
                                    if predict_indirect(pc, target):
                                        mis = False
                                    else:
                                        n_miss += 1
                                        tc += mispred_pen
                                        mis = True
                                if k == _T_CALL or k >= _T_CALL_REG:
                                    n_calls += 1
                                    addr = regs[rsp_i] - 8
                                    if addr < nsign:
                                        addr += two64
                                    regs[rsp_i] = addr
                                    if addr < 0:
                                        raise MachineFault(
                                            f"bad write address {addr:#x}"
                                            f" at pc={pc:#x}")
                                    page = addr >> dpb
                                    if page != dlast:
                                        if page in dpages:
                                            del dpages[page]
                                            dpages[page] = True
                                            dtlb._last = page
                                        else:
                                            dt_calls += 1
                                            dtlb_access(addr)
                                            counters.dtlb_misses += 1
                                            tc += tlb_pen
                                        dlast = page
                                    line = addr >> dlb
                                    ways = dsets[line & dmask]
                                    if not ways or ways[0] != line >> dshift:
                                        dl_calls += 1
                                        if not l1d_access(addr):
                                            counters.l1d_misses += 1
                                            tc += miss_path(addr)
                                    n_wr += 1
                                    if addr & 7:
                                        write_word(addr, c)
                                    else:
                                        w = words.get(addr >> page_bits)
                                        if w is None:
                                            w = word_view(addr >> page_bits)
                                        w[(addr & page_mask) >> 3] = c
                                    if (addr < exec_hi and addr + 8 > exec_lo
                                            and code_write_check(addr)):
                                        bail = True
                                    if len(ras) >= ras_depth:
                                        del ras[0]
                                    ras.append(c)
                                else:
                                    n_uncond += 1
                                counters.taken_branches += 1
                                tc += taken_pen
                                if lbr is not None:
                                    lbr.record(pc, target, mis)
                                npc = target
                            elif k == _T_HALT:
                                self.halted = halted = True
                                self.exit_code = regs[RAX]
                                npc = pc
                            elif k == _T_TRAP:
                                raise MachineFault(f"trap at pc={pc:#x}")
                            else:           # pragma: no cover
                                raise MachineFault(
                                    f"unimplemented opcode {a!r} at {pc:#x}")
                            xc += tc
                            break           # ticked after the builtin

                        if bail:
                            break
                except MachineFault:
                    # Dispatch-phase fault at `pc`: the reference counts
                    # the faulting instruction (fetched) but not its
                    # cycles, fetch misses included.
                    done = pcs.index(pc) + 1
                    if sampling and k < _K_TERM:
                        acc, skid_rem, last_taken = tick_straight(
                            pcs, done - 1, [e for e in sx if e[0] != pc],
                            acc, skid_rem, last_taken)
                    n_ins += done
                    n_ia += cum_ia[done - 1]
                    xc -= base_cpi
                    if steps[done - 1][6] is not None:
                        xc -= fx
                    if fetch_heat is not None:
                        for j in range(done):
                            p = pcs[j]
                            fetch_heat[p] = fetch_heat.get(p, 0) + sizes[j]
                    if done > tf.get(cur, 0):
                        tf[cur] = done
                    cur = pc
                    raise

                done = pcs.index(pc) + 1 if bail else count
                n_ins += done
                n_ia += cum_ia[done - 1]
                remaining -= done
                if fetch_heat is not None:
                    for j in range(done):
                        p = pcs[j]
                        fetch_heat[p] = fetch_heat.get(p, 0) + sizes[j]
                if done == total:
                    tf[cur] = total
                elif done > tf.get(cur, 0):
                    tf[cur] = done

                if k >= _K_TERM:
                    if npc >= builtin_base and not halted:
                        cur = npc
                        self.pc = npc
                        self._run_builtin(npc)  # may raise; sets self.pc
                        cur = self.pc
                    else:
                        cur = npc
                    if sampling:
                        if s_cycles:
                            acc += base_cpi + tc
                            if fev is not None:
                                acc += fx
                        elif sampler.event == "instructions":
                            acc += 1
                        else:
                            tb = counters.taken_branches
                            acc += tb - last_taken
                            last_taken = tb
                        if skid_rem >= 0 or acc >= s_period:
                            acc, skid_rem = self._sample_due(
                                pc, acc, skid_rem)
                    if halted:
                        return self.exit_code
                else:
                    if sampling:
                        acc, skid_rem, last_taken = tick_straight(
                            pcs, done, sx, acc, skid_rem, last_taken)
                        sx = []
                        sxc = 0
                    cur = pcs[done - 1] + sizes[done - 1]
                if bail:
                    break
        finally:
            self.pc = cur
            self.flag_a = fa
            self.flag_b = fb
            if sampling:
                self._sample_acc = acc
                self._skid_remaining = skid_rem
                self._last_taken = last_taken
            counters.instructions += n_ins
            counters.cycles += base_cpi * n_ins + xc
            counters.itlb_accesses += n_ins
            itlb.accesses += n_ins - it_calls
            counters.l1i_accesses += n_ia
            l1i.accesses += n_ia - il_calls
            n_mem = n_rd + n_wr
            counters.dtlb_accesses += n_mem
            dtlb.accesses += n_mem - dt_calls
            counters.l1d_accesses += n_mem
            l1d.accesses += n_mem - dl_calls
            counters.mem_reads += n_rd
            counters.mem_writes += n_wr
            counters.cond_branches += n_cond
            counters.cond_taken += n_cond_taken
            counters.uncond_branches += n_uncond
            counters.branch_misses += n_miss
            counters.calls += n_calls
            counters.returns += n_rets
            counters.indirect_branches += n_ind

        # A store wrote code: continue on the reference loop.
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
    if op == Op.MOV_RR:
        return (_K_MOV_RR, r[0], r[1], 0, 0)
    if op == Op.ADD_RR:
        return (_K_ADD_RR, r[0], r[1], 0, 0)
    if op == Op.MOV_RI32 or op == Op.MOV_RI64:
        return (_K_MOV_RI, r[0], insn.imm, 0, 0)
    if op == Op.PUSH:
        return (_K_PUSH, r[0], 0, 0, 0)
    if op == Op.POP:
        return (_K_POP, r[0], 0, 0, 0)
    if op == Op.STORE:
        return (_K_STORE, r[0], insn.disp, r[1], 0)
    if op == Op.LOAD:
        return (_K_LOAD, r[0], r[1], insn.disp, 0)
    if op == Op.IMOD_RR:
        return (_K_IMOD, r[0], r[1], 0, 0)
    if op == Op.IMUL_RI:
        return (_K_IMUL_RI, r[0], insn.imm, 0, 0)
    if op == Op.SAR_RI:
        return (_K_SAR_RI, r[0], insn.imm & 63, 0, 0)
    if op == Op.CMP_RI:
        return (_K_CMP_RI, r[0], insn.imm, 0, 0)
    if op == Op.AND_RI:
        return (_K_AND_RI, r[0], insn.imm, 0, 0)
    if op == Op.SUB_RI:
        return (_K_SUB_RI, r[0], insn.imm, 0, 0)
    if op == Op.XOR_RI:
        return (_K_XOR_RI, r[0], insn.imm, 0, 0)
    if op == Op.XOR_RR:
        return (_K_XOR_RR, r[0], r[1], 0, 0)
    if op == Op.SUB_RR:
        return (_K_SUB_RR, r[0], r[1], 0, 0)
    if op == Op.ADD_RI:
        return (_K_ADD_RI, r[0], insn.imm, 0, 0)
    if op == Op.CMP_RR:
        return (_K_CMP_RR, r[0], r[1], 0, 0)
    if op == Op.LEA:
        return (_K_LEA, r[0], r[1], insn.disp, 0)
    if op == Op.LOADIDX:
        return (_K_LOADIDX, r[0], r[1], r[2], insn.disp)
    if op == Op.LOAD_ABS:
        return (_K_LOAD_ABS, r[0], insn.addr, 0, 0)
    if op == Op.STOREIDX:
        return (_K_STOREIDX, r[0], r[1], insn.disp, r[2])
    if op == Op.STORE_ABS:
        return (_K_STORE_ABS, insn.addr, r[0], 0, 0)
    if op == Op.IMUL_RR:
        return (_K_IMUL_RR, r[0], r[1], 0, 0)
    if op == Op.AND_RR:
        return (_K_AND_RR, r[0], r[1], 0, 0)
    if op == Op.OR_RR:
        return (_K_OR_RR, r[0], r[1], 0, 0)
    if op == Op.OR_RI:
        return (_K_OR_RI, r[0], insn.imm, 0, 0)
    if op == Op.SHL_RI:
        return (_K_SHL_RI, r[0], insn.imm & 63, 0, 0)
    if op == Op.SHR_RI:
        # A zero count leaves an in-range register as it is.
        if insn.imm & 63 == 0:
            return (_K_NOP, 0, 0, 0, 0)
        return (_K_SHR_RI, r[0], insn.imm & 63, 0, 0)
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
    if op == Op.TEST_RR:
        return (_K_TEST_RR, r[0], r[1], 0, 0)
    if op == Op.TEST_RI:
        return (_K_TEST_RI, r[0], insn.imm, 0, 0)
    if op == Op.SETCC:
        # Resolved once per trace, not per execution.
        return (_K_SETCC, r[0], int(CondCode(insn.imm)), 0, 0)
    if op == Op.OUT:
        return (_K_OUT, r[0], 0, 0, 0)
    if op == Op.NOP or op == Op.NOPN:
        return (_K_NOP, 0, 0, 0, 0)
    return None


def _prep_term(op, insn):
    """``(kind, a, b)`` of a terminator."""
    if op == Op.RET or op == Op.REPZ_RET:
        return (_T_RET, 0, 0)
    if op == Op.CALL:
        return (_T_CALL, insn.target, 0)
    if op == Op.JCC_SHORT or op == Op.JCC_LONG:
        return (_T_JCC, int(insn.cc), insn.target)
    if op == Op.JMP_SHORT or op == Op.JMP_NEAR:
        return (_T_JMP, insn.target, 0)
    if op == Op.JMP_MEM:
        return (_T_JMP_MEM, insn.addr, 0)
    if op == Op.JMP_REG:
        return (_T_JMP_REG, insn.regs[0], 0)
    if op == Op.CALL_REG:
        return (_T_CALL_REG, insn.regs[0], 0)
    if op == Op.CALL_MEM:
        return (_T_CALL_MEM, insn.addr, 0)
    if op == Op.HALT:
        return (_T_HALT, 0, 0)
    if op == Op.TRAP:
        return (_T_TRAP, 0, 0)
    return (_T_UNKNOWN, op, 0)


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
