"""Structured BOLT-style diagnostics for the rewrite pipeline.

Real BOLT never silently swallows a problem: every function it cannot
optimize and every profile record it cannot attribute produces a
``BOLT-WARNING``/``BOLT-ERROR`` line, while the run itself keeps going
(paper section 3.1: unsafe functions are "conservatively skipped").
This module is the collecting side of that contract — pipeline stages
record what went wrong and why, and the final report surfaces it.

Severities:

* ``NOTE`` — informational; e.g. "profile is stale, fuzzy-matched".
* ``WARNING`` — something was contained: a function demoted, a profile
  record dropped, a degradation rung taken.  The output binary is
  still correct.
* ``ERROR`` — a stage failed outright and the pipeline degraded (or,
  under ``--strict``, aborted).
"""

import enum


class Severity(enum.IntEnum):
    NOTE = 0
    WARNING = 1
    ERROR = 2

    @property
    def tag(self):
        return {
            Severity.NOTE: "BOLT-INFO",
            Severity.WARNING: "BOLT-WARNING",
            Severity.ERROR: "BOLT-ERROR",
        }[self]


class Diagnostic:
    """One structured record: what happened, where, and how bad."""

    __slots__ = ("severity", "component", "message", "function")

    def __init__(self, severity, component, message, function=None):
        self.severity = severity
        self.component = component      # pipeline stage, e.g. "pass:icp"
        self.message = message
        self.function = function        # link name, or None for global

    def render(self):
        where = f" [{self.function}]" if self.function else ""
        return f"{self.severity.tag}: {self.component}{where}: {self.message}"

    def __repr__(self):
        return f"<Diagnostic {self.render()}>"


class StrictModeError(Exception):
    """Raised in --strict mode where tolerant mode would only warn."""


class Diagnostics:
    """Collector attached to a BinaryContext.

    In strict mode (``BoltOptions.strict``) recording a WARNING or
    ERROR raises :class:`StrictModeError` instead of containing it, so
    the CLI can fail hard on any anomaly.
    """

    def __init__(self, strict=False):
        self.records = []
        self.strict = strict

    # -- recording ---------------------------------------------------------

    def note(self, component, message, function=None):
        return self._record(Severity.NOTE, component, message, function)

    def warning(self, component, message, function=None):
        return self._record(Severity.WARNING, component, message, function)

    def error(self, component, message, function=None):
        return self._record(Severity.ERROR, component, message, function)

    def _record(self, severity, component, message, function):
        diag = Diagnostic(severity, component, message, function)
        self.records.append(diag)
        if self.strict and severity >= Severity.WARNING:
            raise StrictModeError(diag.render())
        return diag

    def extend(self, diagnostics):
        """Replay records collected elsewhere (e.g. a per-shard
        collector, or one restored from the shard cache) into this one,
        re-applying this collector's strictness."""
        for diag in diagnostics:
            self._record(diag.severity, diag.component, diag.message,
                         diag.function)

    # -- queries -----------------------------------------------------------

    def by_severity(self, severity):
        return [d for d in self.records if d.severity == severity]

    @property
    def warnings(self):
        return self.by_severity(Severity.WARNING)

    @property
    def errors(self):
        return self.by_severity(Severity.ERROR)

    def worst(self):
        return max((d.severity for d in self.records), default=None)

    def for_function(self, name):
        return [d for d in self.records if d.function == name]

    def render(self, min_severity=Severity.NOTE):
        return [d.render() for d in self.records if d.severity >= min_severity]

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)
