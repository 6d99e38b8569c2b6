"""Pass framework + the Table 1 pipeline order.

Error containment (paper section 3.1 spirit): a pass crashing on one
function must never take down the whole rewrite.  ``BinaryPass.run``
snapshots each function's CFG before transforming it; if the pass
raises, the snapshot is restored and the function is demoted to
non-simple — original bytes emitted verbatim, exactly like functions
BOLT conservatively skips at CFG-construction time — and a structured
diagnostic is recorded.  Whole-context passes (ICF, inlining, function
reordering) are contained at pass granularity instead.

Snapshots are taken with :meth:`BinaryFunction.clone` — a hand-rolled
deep copy of exactly the mutable CFG state — rather than generic
``copy.deepcopy``, which dominated rewrite wall time (the pre-PR
snapshot is preserved in :mod:`repro.core._reference_kernels` for the
processing-time benchmarks).

A pass that corrupts a CFG *without* raising is caught after the
pipeline instead: the rewriter's default-on lint gate
(``BoltOptions.lint``) runs the :mod:`repro.analysis` checkers —
``validate_function``'s structural invariants among them (BL007) — on
every still-simple function and demotes violators through the same
``demote_to_raw``.
"""

import time


def snapshot_function(func):
    """A restorable deep snapshot of a function's mutable CFG state."""
    return func.clone()


def restore_function(func, snapshot):
    """Restore a function to a previously-taken snapshot, in place."""
    func.__dict__.update(snapshot.clone().__dict__)
    return func


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
            result, exc = self._attempt(context, func)
            if exc is not None:
                contain_function_failure(
                    context, func, f"pass:{self.name}", exc)
                continue
            if result:
                for key, value in result.items():
                    stats[key] = stats.get(key, 0) + value
        return stats

    def _attempt(self, context, func):
        """Run on one function with snapshot/restore containment."""
        snapshot = snapshot_function(func)
        try:
            return self.run_on_function(context, func), None
        except Exception as exc:
            restore_function(func, snapshot)
            return None, exc

    def run_on_function(self, context, func):  # pragma: no cover - abstract
        raise NotImplementedError


class PassManager:
    def __init__(self, passes):
        self.passes = passes
        self.stats = {}

    def run(self, context):
        timing = getattr(context, "timing", None)
        time_passes = timing is not None and timing.time_passes
        dyno_prev = None
        if time_passes and context.options.dyno_stats:
            from repro.core.dyno_stats import compute_dyno_stats
            dyno_prev = compute_dyno_stats(context)
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
                elapsed = time.perf_counter() - started
                delta = None
                if dyno_prev is not None:
                    from repro.core.dyno_stats import compute_dyno_stats
                    dyno_now = compute_dyno_stats(context)
                    delta = dyno_now.delta_vs(dyno_prev)
                    dyno_prev = dyno_now
                timing.record_pass(pass_.name, elapsed,
                                   functions=functions, dyno_delta=delta)
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
