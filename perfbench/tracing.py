"""Spans around the benchmark's calls into each layer of ``src/repro``.

A span is ``(name, start, end, parent, op, phase)``.  The layer is the
part of the name before the first dot (``uarch.run_binary`` belongs to
``uarch``).  Spans live in memory and are written out once, when the
run ends.  A disabled tracer records nothing, so the end-to-end runs
pay only for a context-manager call per layer call (each of which
takes milliseconds to seconds).
"""

import json
import time
from contextlib import contextmanager

#: Layers of ``src/repro`` as the benchmark names them (span prefixes).
LAYERS = ("toolchain", "belf", "uarch", "profiling", "core", "analysis")

#: Rewrite phases the lint and validate gates of ``repro.analysis`` run
#: in; they execute inside ``core.optimize_binary``, so their spans are
#: derived from the rewrite's own phase timer.
GATE_PHASES = {"lint gate": "analysis.lint_gate",
               "validate gate": "analysis.validate_gate"}


class Tracer:
    """Records spans and per-layer counts for one benchmark run."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.counts = {}
        self.phase = "setup"
        self.op = None
        self._stack = []
        # Simulator runs, recorded with tracing on or off because the
        # end-to-end simulated-MIPS figure is computed from them:
        # (phase, sampled, engine, instructions, seconds).
        self.runs = []

    @contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "op": self.op, "phase": self.phase}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def count(self, name, value=1):
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + value

    def gate_spans(self, timing):
        """Child spans for the analysis gates of the rewrite that just
        ended, laid back to back from the end of the enclosing
        ``core.optimize_binary`` span in the rewrite's phase order (the
        phase timer records durations, not start times)."""
        if not self.enabled or timing is None or not self._stack:
            return
        parent = self._stack[-1]
        end = time.perf_counter()
        for phase in reversed(timing.phases):
            start = end - phase.seconds
            name = GATE_PHASES.get(phase.name)
            if name is not None:
                self.spans.append({"name": name, "start": start, "end": end,
                                   "parent": parent, "op": self.op,
                                   "phase": self.phase})
            end = start

    def durations(self, name):
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self):
        """{phase: {layer: seconds}}: each span's duration minus the time
        its child spans cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child[span["parent"]] += span["end"] - span["start"]
        out = {}
        for span, covered in zip(self.spans, child):
            layer = span["name"].split(".", 1)[0]
            by_layer = out.setdefault(span["phase"], {})
            by_layer[layer] = (by_layer.get(layer, 0.0)
                               + span["end"] - span["start"] - covered)
        return out

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans,
                                    "counts": self.counts}))


@contextmanager
def phase(tracer, name):
    previous, tracer.phase = tracer.phase, name
    try:
        yield
    finally:
        tracer.phase = previous
