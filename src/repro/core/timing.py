"""Per-pass and per-phase timing for the rewrite pipeline.

The paper sells BOLT as *practical* partly on processing time (section
6.6: the HHVM binary is rewritten in minutes, single-threaded).
llvm-bolt exposes ``-time-opts`` (per-pass wall time) and
``-time-rewrite`` (per-phase wall time of the whole rewrite); this
module is the analog.  A :class:`TimingReport` hangs off the
``BinaryContext`` while the pipeline runs, collects wall time,
functions processed, and per-pass dyno-stat deltas, and renders both a
human table (``BOLT-INFO`` style, via :func:`repro.core.reports.
format_timing_table`) and a machine-readable JSON document consumed by
the ``BENCH_pr3.json`` trajectory harness.
"""

import json
import time


class PassTiming:
    """One timed unit: an optimization pass or a rewrite phase."""

    __slots__ = ("name", "seconds", "functions", "dyno_delta")

    def __init__(self, name, seconds, functions=None, dyno_delta=None):
        self.name = name
        self.seconds = seconds
        self.functions = functions      # simple functions seen, or None
        self.dyno_delta = dyno_delta    # {field: fraction} vs previous pass

    def as_dict(self):
        out = {"name": self.name, "seconds": round(self.seconds, 6)}
        if self.functions is not None:
            out["functions"] = self.functions
        if self.dyno_delta:
            out["dyno_delta"] = {k: round(v, 6)
                                 for k, v in self.dyno_delta.items()
                                 if v is not None}
        return out


class TimingReport:
    """Collected timings for one ``optimize_binary`` invocation."""

    def __init__(self, time_passes=False, time_phases=False):
        self.time_passes = time_passes      # --time-opts
        self.time_phases = time_phases      # --time-rewrite
        self.passes = []                    # [PassTiming]
        self.phases = []                    # [PassTiming]
        self.total_seconds = None
        self._open = []                     # running _PhaseTimers

    # -- recording ---------------------------------------------------------

    def record_pass(self, name, seconds, functions=None, dyno_delta=None):
        self.passes.append(PassTiming(name, seconds, functions, dyno_delta))

    def record_phase(self, name, seconds):
        """Record a phase; one recorded while a phase timer runs is
        carved out of that timer's phase, so the two do not overlap."""
        if self._open:
            self._open[-1].nested += seconds
        self.phases.append(PassTiming(name, seconds))

    def phase(self, name):
        """Context manager timing one rewrite phase (when enabled)."""
        return _PhaseTimer(self, name)

    # -- output ------------------------------------------------------------

    def as_dict(self):
        out = {}
        if self.total_seconds is not None:
            out["total_seconds"] = round(self.total_seconds, 6)
        if self.passes:
            out["passes"] = [p.as_dict() for p in self.passes]
        if self.phases:
            out["phases"] = [p.as_dict() for p in self.phases]
        return out

    def to_json(self, indent=2):
        return json.dumps(self.as_dict(), indent=indent)

    def __bool__(self):
        return bool(self.passes or self.phases)


class _PhaseTimer:
    __slots__ = ("report", "name", "nested", "_start")

    def __init__(self, report, name):
        self.report = report
        self.name = name
        self.nested = 0.0       # seconds of phases recorded inside this one
        self._start = None

    def __enter__(self):
        self.report._open.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self._start
        report = self.report
        report._open.pop()
        if report.time_phases:
            report.record_phase(self.name, elapsed - self.nested)
        return False


def timing_report_for(options):
    """A TimingReport when any timing option is on, else None."""
    time_passes = getattr(options, "time_opts", False)
    time_phases = getattr(options, "time_rewrite", False)
    if not (time_passes or time_phases):
        return None
    return TimingReport(time_passes=time_passes, time_phases=time_phases)
