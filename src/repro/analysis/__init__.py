"""repro.analysis — static analysis, lint, and translation validation.

A standalone subsystem layered on the CFG/dataflow core:

* :mod:`repro.analysis.absint` — generic worklist abstract
  interpretation (forward/backward, lattice joins, per-block transfer
  functions); the one fixpoint engine, which also runs
  :mod:`repro.core.dataflow`'s liveness and dominators.
* :mod:`repro.analysis.checkers` — IR-level checkers (stack height,
  callee-saved preservation, flags use-before-def, unreachable code,
  fall-through layout, jump-table soundness).
* :mod:`repro.analysis.binlint` — whole-binary lint over metadata,
  decode, and reconstructed CFGs.
* :mod:`repro.analysis.validation` — pre- vs post-rewrite translation
  validation (the ``--validate static`` tier).
* :mod:`repro.analysis.rules` — stable rule IDs (``BL001``...),
  severities, suppression, JSON reports.
"""

from repro.analysis.absint import (
    BOTTOM,
    TOP,
    AnalysisError,
    BlockResult,
    FlatLattice,
    Lattice,
    SetLattice,
    TupleLattice,
    solve,
)
from repro.analysis.binlint import lint_binary, lint_context
from repro.analysis.checkers import check_function
from repro.analysis.rules import (
    RULES,
    Finding,
    LintReport,
    parse_suppressions,
)
from repro.analysis.validation import validate_translation

__all__ = [
    "AnalysisError",
    "BlockResult",
    "BOTTOM",
    "check_function",
    "Finding",
    "FlatLattice",
    "Lattice",
    "lint_binary",
    "lint_context",
    "LintReport",
    "parse_suppressions",
    "RULES",
    "SetLattice",
    "solve",
    "TOP",
    "TupleLattice",
    "validate_translation",
]
