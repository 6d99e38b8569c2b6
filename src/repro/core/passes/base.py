"""Pass framework + the Table 1 pipeline order.

Error containment (paper section 3.1 spirit): a pass crashing on one
function must never take down the whole rewrite.  If a per-function
pass raises, ``BinaryPass._attempt`` demotes the function to
non-simple through ``demote_to_raw`` — original bytes emitted verbatim,
exactly like functions BOLT conservatively skips at CFG-construction
time — and records a structured diagnostic.  Whole-context passes
(ICF, inlining, function reordering) are contained at pass granularity
instead.

No snapshot is taken before a pass runs.  ``demote_to_raw`` resets
every field a per-function pass may change (blocks, jump tables,
analysis facts, frame record, entry label, cold-fragment flag) and
rebuilds the function from its input bytes, so whatever half-done
state the pass left behind is discarded; no ``run_on_function`` pass
assigns a function's scalar fields.  The ``copy.deepcopy`` snapshot
the pipeline once took is kept in :mod:`tests.oracles.reference_kernels`
for the processing-time benchmarks.

A pass that corrupts a CFG *without* raising is caught after the
pipeline instead: the rewriter's default-on lint gate
(``BoltOptions.lint``) runs the :mod:`repro.analysis` checkers —
``validate_function``'s structural invariants among them (BL007) — on
every still-simple function and demotes violators through the same
``demote_to_raw``.
"""

import time


def contain_function_failure(context, func, component, exc):
    """Demote a function a pass failed on; record a diagnostic."""
    from repro.core.cfg_builder import demote_to_raw

    context.diagnostics.warning(
        component,
        f"contained {type(exc).__name__}: {exc}; function demoted to "
        f"non-simple (original bytes kept)",
        function=func.name)
    demote_to_raw(context, func, f"contained failure in {component}")


class BinaryPass:
    """Base class: a transformation over the whole BinaryContext."""

    name = "pass"

    def prepare(self, context):
        """Compute pass-wide state once, before the function loop.

        Anything cached on ``self`` is shared by every
        ``run_on_function`` call of this run.
        """

    def run(self, context):
        """Run over every optimizable function; returns a stats dict."""
        stats = {}
        funcs = context.simple_functions()
        if not funcs:
            return stats
        self.prepare(context)
        for func in funcs:
            # Containment for function k happens before k+1 runs.
            result = self._attempt(context, func)
            if result:
                for key, value in result.items():
                    stats[key] = stats.get(key, 0) + value
        return stats

    def _attempt(self, context, func):
        """Run on one function; a failure demotes it, with no snapshot
        to restore (see the module docstring), and returns None."""
        try:
            return self.run_on_function(context, func)
        except Exception as exc:
            contain_function_failure(context, func, f"pass:{self.name}", exc)
            return None

    def run_on_function(self, context, func):  # pragma: no cover - abstract
        raise NotImplementedError


class PassManager:
    def __init__(self, passes):
        self.passes = passes
        self.stats = {}

    def run(self, context, dyno_before=None):
        """Run every pass; ``dyno_before`` is the context's dyno stats
        as they stand, if the caller has them (a timed run computes them
        otherwise, as the base of the first pass's delta)."""
        timing = getattr(context, "timing", None)
        time_passes = timing is not None and timing.time_passes
        if time_passes:
            # The per-pass dyno-stats walks are their own phase, not
            # pass time: see ``TimingReport.record_phase``.
            from repro.core.dyno_stats import compute_dyno_stats
            started = time.perf_counter()
            dyno_prev = (compute_dyno_stats(context) if dyno_before is None
                         else dyno_before)
            dyno_seconds = time.perf_counter() - started
        for pass_ in self.passes:
            started = time.perf_counter() if time_passes else None
            functions = len(context.simple_functions()) if time_passes else None
            try:
                self.stats[pass_.name] = pass_.run(context) or {}
            except Exception as exc:
                # Whole-context passes (ICF, inline, reorder-functions)
                # are contained at pass granularity: skip the pass, keep
                # the pipeline alive.
                from repro.core.diagnostics import StrictModeError
                if isinstance(exc, StrictModeError):
                    raise
                context.diagnostics.error(
                    f"pass:{pass_.name}",
                    f"pass failed ({type(exc).__name__}: {exc}); skipped")
                self.stats[pass_.name] = {}
            if time_passes:
                ended = time.perf_counter()
                dyno_now = compute_dyno_stats(context)
                dyno_seconds += time.perf_counter() - ended
                timing.record_pass(pass_.name, ended - started,
                                   functions=functions,
                                   dyno_delta=dyno_now.delta_vs(dyno_prev))
                dyno_prev = dyno_now
        if time_passes and timing.time_phases:
            timing.record_phase("dyno-stats (per pass)", dyno_seconds)
        return self.stats


def build_pipeline(options):
    """The exact Table 1 sequence, honoring option toggles."""
    from repro.core.passes.strip_rep_ret import StripRepRet
    from repro.core.passes.icf import IdenticalCodeFolding
    from repro.core.passes.icp import IndirectCallPromotion
    from repro.core.passes.peepholes import Peepholes
    from repro.core.passes.inline_small import InlineSmall
    from repro.core.passes.simplify_ro_loads import SimplifyRoLoads
    from repro.core.passes.plt import PLTCalls
    from repro.core.passes.reorder_bbs import ReorderBasicBlocks
    from repro.core.passes.uce import EliminateUnreachable
    from repro.core.passes.fixup_branches import FixupBranches
    from repro.core.passes.reorder_functions import ReorderFunctions
    from repro.core.passes.sctc import SimplifyConditionalTailCalls
    from repro.core.passes.frame_opts import FrameOptimization
    from repro.core.passes.shrink_wrapping import ShrinkWrapping

    passes = []
    if options.strip_rep_ret:
        passes.append(StripRepRet())                    # 1
    if options.icf:
        passes.append(IdenticalCodeFolding(round=1))    # 2
    if options.icp:
        passes.append(IndirectCallPromotion())          # 3
    if options.peepholes:
        passes.append(Peepholes(round=1))               # 4
    if options.inline_small:
        passes.append(InlineSmall())                    # 5
    if options.simplify_ro_loads:
        passes.append(SimplifyRoLoads())                # 6
    if options.icf:
        passes.append(IdenticalCodeFolding(round=2))    # 7
    if options.plt:
        passes.append(PLTCalls())                       # 8
    passes.append(ReorderBasicBlocks())                 # 9 (honors options)
    if options.peepholes:
        passes.append(Peepholes(round=2))               # 10
    if options.uce:
        passes.append(EliminateUnreachable())           # 11
    passes.append(FixupBranches())                      # 12
    passes.append(ReorderFunctions())                   # 13 (honors options)
    if options.sctc:
        passes.append(SimplifyConditionalTailCalls())   # 14
        if options.uce:
            passes.append(EliminateUnreachable(name="uce-2"))
        passes.append(FixupBranches(name="fixup-branches-2"))
    if options.frame_opts:
        passes.append(FrameOptimization())              # 15
    if options.shrink_wrapping:
        passes.append(ShrinkWrapping())                 # 16
    return PassManager(passes)
