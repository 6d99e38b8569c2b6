"""Lint rule registry, findings, suppression, and report rendering.

Every checker and validator in :mod:`repro.analysis` reports through a
stable rule ID so CI can gate on (and users can suppress) individual
classes of problems:

* ``BL0xx`` — IR-level CFG/dataflow checkers (per reconstructed
  function).
* ``BL1xx`` — whole-binary metadata and decode checks.
* ``BL2xx`` — translation validation (pre- vs post-rewrite matching).

Severities reuse :class:`repro.core.diagnostics.Severity`, so findings
render as the familiar ``BOLT-WARNING:``/``BOLT-ERROR:`` lines and the
rewriter's post-pass gate can feed them straight into the PR 1
containment machinery.
"""

import json

from repro.core.diagnostics import Rule, Severity

_E = Severity.ERROR
_W = Severity.WARNING

RULES = {r.id: r for r in [
    # IR-level checkers (abstract interpretation over one function).
    Rule("BL001", "stack-height", _E,
         "a path reaches RET (or a tail call) with a non-zero stack "
         "height: push/pop or frame setup/teardown is unbalanced"),
    Rule("BL002", "callee-saved", _E,
         "a callee-saved register is provably clobbered on some path to "
         "an exit without being restored from its save slot"),
    Rule("BL003", "flags-undefined", _W,
         "a conditional branch or setcc consumes flags that are "
         "provably undefined (no compare on any path, or clobbered by "
         "a call)"),
    Rule("BL004", "unreachable-code", _W,
         "a basic block is unreachable from the function entry"),
    Rule("BL005", "bad-fallthrough", _E,
         "a block that can fall through is not physically followed by "
         "its fall-through successor (control would run off the end)"),
    Rule("BL006", "jump-table", _E,
         "a jump-table entry does not land on a real block head, or "
         "table entries and CFG successors disagree"),
    Rule("BL007", "cfg-invariant", _E,
         "structural CFG invariants do not hold (validate_function)"),
    # Whole-binary checks.
    Rule("BL101", "entry-point", _E,
         "the entry point does not land in executable bytes"),
    Rule("BL102", "undecodable-body", _E,
         "a function body contains bytes that do not decode"),
    Rule("BL103", "symbol-bounds", _E,
         "a function symbol's address range escapes its section "
         "(truncated or mislaid section)"),
    Rule("BL104", "overlapping-symbols", _W,
         "two function symbols overlap without being exact aliases"),
    Rule("BL105", "symbol-size", _E,
         "a function symbol's size disagrees with its code: the body "
         "ends mid-instruction or without a terminator"),
    Rule("BL106", "dangling-relocation", _E,
         "a relocation names a symbol that does not exist"),
    # Translation validation (pre- vs post-rewrite).
    Rule("BL201", "translation-mismatch", _E,
         "an output block's instructions do not match the optimized IR "
         "the rewrite promised to emit"),
    Rule("BL202", "translation-layout", _E,
         "emitted block layout breaks a fall-through edge"),
    Rule("BL203", "translation-jump-table", _E,
         "an emitted jump-table slot does not point at the entry "
         "block's new address"),
    Rule("BL204", "translation-missing-label", _E,
         "a basic block present in the IR was not emitted"),
]}


class Finding:
    """One lint finding, attributed to a stable rule ID."""

    __slots__ = ("rule", "message", "function", "block", "address")

    def __init__(self, rule, message, function=None, block=None,
                 address=None):
        if rule not in RULES:
            raise ValueError(f"unknown lint rule {rule!r}")
        self.rule = rule
        self.message = message
        self.function = function
        self.block = block
        self.address = address

    @property
    def severity(self):
        return RULES[self.rule].severity

    def render(self):
        where = f" [{self.function}]" if self.function else ""
        if self.block:
            where += f" {self.block}:"
        return f"{self.severity.tag}: lint{where} {self.rule}: {self.message}"

    def to_dict(self):
        return {
            "rule": self.rule,
            "name": RULES[self.rule].name,
            "severity": self.severity.name.lower(),
            "function": self.function,
            "block": self.block,
            "address": self.address,
            "message": self.message,
        }

    def __repr__(self):
        return f"<Finding {self.render()}>"


def parse_suppressions(spec):
    """Normalize suppression directives to a set of (function, rule).

    Accepts an iterable of strings (or one comma-separated string):

    * ``"BL003"`` — suppress a rule everywhere.
    * ``"crc32:BL001"`` — suppress a rule in one function.
    * ``"crc32:*"`` — suppress every rule in one function.
    """
    if isinstance(spec, str):
        spec = spec.split(",")
    out = set()
    for item in spec or ():
        item = item.strip()
        if not item:
            continue
        if ":" in item:
            function, rule = item.rsplit(":", 1)
            out.add((function, rule))
        else:
            out.add((None, item))
    return frozenset(out)


class LintReport:
    """Collected findings with suppression and rendering."""

    def __init__(self, suppressions=()):
        self.suppressions = parse_suppressions(suppressions) \
            if not isinstance(suppressions, frozenset) else suppressions
        self.findings = []
        self.suppressed = 0

    def add(self, finding):
        """Record one finding unless suppressed; returns True if kept."""
        sup = self.suppressions
        if ((None, finding.rule) in sup
                or (finding.function, finding.rule) in sup
                or (finding.function, "*") in sup):
            self.suppressed += 1
            return False
        self.findings.append(finding)
        return True

    def extend(self, findings):
        for finding in findings:
            self.add(finding)

    @property
    def errors(self):
        return [f for f in self.findings if f.severity >= Severity.ERROR]

    @property
    def warnings(self):
        return [f for f in self.findings
                if f.severity == Severity.WARNING]

    def worst(self):
        return max((f.severity for f in self.findings), default=None)

    def rules_hit(self):
        return sorted({f.rule for f in self.findings})

    def for_function(self, name):
        return [f for f in self.findings if f.function == name]

    def render_lines(self, min_severity=Severity.NOTE):
        return [f.render() for f in self.findings
                if f.severity >= min_severity]

    def to_json(self, indent=2):
        return json.dumps({
            "findings": [f.to_dict() for f in self.findings],
            "summary": {
                "total": len(self.findings),
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "suppressed": self.suppressed,
                "rules": self.rules_hit(),
            },
        }, indent=indent)

    def __len__(self):
        return len(self.findings)

    def __iter__(self):
        return iter(self.findings)
