"""Test-only oracles: the implementations faster code replaced.

Each module here is an earlier implementation kept verbatim so that
tests and benchmarks can check its replacement gives the same results:

- :mod:`tests.oracles.lexer` and :mod:`tests.oracles.parser`: the BC
  front end before the regex scanner and the value-keyed parser;
- :mod:`tests.oracles.reference_interp`: the BC tree-walking
  interpreter before closure compilation;
- :mod:`tests.oracles.reference_kernels`: the ordering kernels,
  pass snapshot, line-table lookup, use/def and ICF-key walks,
  shrink-wrapping scan, ICF sweep and BL001-BL003 checkers before the
  processing-time rewrites;
- :mod:`tests.oracles.mcf_networkx`: the non-LBR edge-count recovery
  through networkx before the package's own min-cost-flow solver.

No module under ``src/repro`` imports this package.
"""

import random

from repro.lang import astnodes as _ast
from repro.workloads import PRESETS, generate_workload


def _slots(cls):
    names = []
    for klass in reversed(cls.__mro__):
        names.extend(klass.__dict__.get("__slots__", ()))
    return tuple(names)


def ast_key(node):
    """A nested tuple of every field of a BC AST, for equality tests.

    AST nodes define no ``__eq__``; two trees are equal when their keys
    are.  Lists, tuples (switch cases) and scalars are walked as values.
    """
    if isinstance(node, _ast.Node):
        cls = type(node)
        return (cls.__name__,) + tuple(
            ast_key(getattr(node, name)) for name in _slots(cls))
    if isinstance(node, (list, tuple)):
        return (type(node).__name__,) + tuple(ast_key(item) for item in node)
    return node


def preset_sources(seed):
    """``(name, text)`` of every preset's BC sources at a perfbench seed.

    Seed 0 is the preset itself; other seeds derive the generator seed
    from the seed and the preset name, as perfbench's ``derive`` does.
    """
    sources = []
    for name, spec in PRESETS.items():
        if seed:
            spec = spec.copy(
                seed=random.Random(f"{seed}:{name}").randrange(1, 1 << 30))
        workload = generate_workload(spec)
        sources += (workload.sources + workload.lib_sources
                    + workload.asm_sources)
    return sources
