"""The closure-compiled interpreter against the tree-walker it replaced.

``repro.lang.interp.Interpreter`` compiles each function body to
closures; ``tests.oracles.reference_interp.ReferenceInterpreter`` is the
AST walker it was, kept as the oracle.  Every program must give both the
same ``steps``, ``output``, return value, and error type and message.
``steps`` matters beyond the oracle: perfbench rescales each seeded
workload's iteration count by a probe's ``steps``, so any drift would
change every workload.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.lang import parse_module
from repro.lang.interp import BCError, Interpreter
from repro.workloads import PRESETS, generate_workload
from tests.oracles.reference_interp import ReferenceInterpreter
from tests.strategies import workload_specs


def outcome(cls, sources, inputs=None, max_steps=10_000_000):
    modules = [parse_module(text, name) for name, text in sources]
    interp = cls(modules, max_steps=max_steps)
    for link_name, values in (inputs or {}).items():
        module, array = link_name.split("::")
        interp.set_array(module, array, values)
    try:
        result = interp.run("main")
    except (BCError, KeyError) as exc:
        result = (type(exc), str(exc))
    return {"result": result, "output": interp.output, "steps": interp.steps}


def assert_equivalent(sources, inputs=None, max_steps=10_000_000):
    ref = outcome(ReferenceInterpreter, sources, inputs, max_steps)
    new = outcome(Interpreter, sources, inputs, max_steps)
    assert new == ref
    return new


def workload_sources(workload):
    return workload.sources + workload.lib_sources + workload.asm_sources


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(spec=workload_specs())
def test_generated_workloads_match_reference(spec):
    workload = generate_workload(spec)
    got = assert_equivalent(workload_sources(workload), workload.inputs,
                            max_steps=80_000_000)
    assert got["output"] and got["result"] == 0


@pytest.mark.parametrize("preset", ["mini", "proxygen"])
def test_seeded_probes_count_equal_steps(preset):
    """The calibration probes perfbench sizes its workloads with."""
    for seed in (7, 1_234, 99_991, 524_287):
        spec = PRESETS[preset].copy(seed=seed, iterations=64)
        workload = generate_workload(spec)
        ref = outcome(ReferenceInterpreter, workload_sources(workload),
                      workload.inputs, max_steps=200_000_000)
        new = outcome(Interpreter, workload_sources(workload),
                      workload.inputs, max_steps=200_000_000)
        assert new["steps"] == ref["steps"], seed
        assert new == ref


# -- hand-written edge cases ---------------------------------------------------

EDGE_CASES = {
    "divide_by_zero": """
        func main() { var z = 0; out 1; out 7 / z + 1; return 0; }""",
    "modulo_by_zero": """
        func id(x) { return x; }
        func main() { out 2; out id(1) + 7 % id(0) * 3; return 0; }""",
    "division_by_constants": """
        func main() { var a = -7; out a / 2 + a % 2; out a / 1 * 3;
                      out a % -2; return a / -7; }""",
    "uncaught_throw": """
        func f(x) { throw x * 2; }
        func main() { out 1; f(21); out 2; return 0; }""",
    "throw_caught_across_calls": """
        func g(x) { if (x > 2) { throw x * 10; } return x; }
        func f(x) { return g(x) + 1; }
        func main() {
          var s = 0;
          for (var i = 0; i < 5; i += 1) {
            try { s += f(i) * 2 + i; out s; }
            catch (e) { s += e; out e; }
          }
          try { try { f(9); } catch (e) { throw e + 1; } }
          catch (e) { out e; }
          out s;
          return s;
        }""",
    "throw_unwinds_scopes": """
        var x = 100;
        func main() {
          try { var x = 1; { var y = 2; throw x + y; } } catch (e) { out e; }
          out x;
          return x;
        }""",
    "indirect_call_through_non_function": """
        array t[4];
        func main() { out 1; out t[1](2) + 1; return 0; }""",
    "call_through_non_function_variable": """
        func main() { var f = 3; out 1; out f(1) + 2; return 0; }""",
    "loops_break_continue": """
        func main() {
          var s = 0;
          for (var i = 0; i < 10; i += 1) {
            if (i % 3 == 0) { continue; }
            if (i == 8) { break; }
            s += i;
          }
          out s;
          var k = 0;
          while (k < 10) {
            k += 1;
            if (k % 2) continue;
            if (k > 7) break;
            out k;
          }
          for (;;) { k += 5; if (k > 30) { break; } }
          out k;
          for (var j = 0; j < 9; j += x) var x = 2;
          return s;
        }""",
    "switch_in_loop": """
        func main() {
          for (var i = 0; i < 6; i += 1) {
            switch (i % 4) {
              case 0: { continue; }
              case 1: out 100 + i;
              case 3: { out 300 + i; }
              default: { out 200 + i; }
            }
            out i;
            switch (i) { case 2: { break; } }
          }
          switch (&main) { case 0: { out 0; } default: { out 1; } }
          return 0;
        }""",
    "return_from_nested_loops_and_try": """
        func find(n) {
          for (var i = 0; i < n; i += 1) {
            var j = 0;
            while (1) {
              try {
                if (i * j == 6) { return i * 10 + j; }
                if (j > i) { throw j; }
              } catch (e) { break; }
              j += 1;
            }
          }
          return -1;
        }
        func main() { out find(5); out find(2); return find(4); }""",
    "conditional_var_taken": """
        func main() { var c = 1; if (c) var x = 5; out x; return x; }""",
    "conditional_var_not_taken": """
        func main() { var c = 0; out 1; if (c) var x = 5; out x + 1;
                      return 0; }""",
    "conditional_var_assigned_while_missing": """
        func g(a) { return a + 1; }
        func main() {
          var c = 0;
          if (c) var x = 5;
          x = 7;
          out x;
          if (c) var g = 0;
          out g(1);
          g = 5;
          out g(1);
          return 0;
        }""",
    "short_circuit_calls": """
        func side(x) { out x; return x; }
        func main() {
          out side(0) && side(1);
          out side(2) || side(3);
          out side(4) && side(0) || side(5);
          var n = 0;
          while (n < 3 && side(n) < 2) { n += 1; }
          out (side(0) || side(0)) + 10;
          return n;
        }""",
    "function_pointers": """
        func inc(x) { return x + 1; }
        func dbl(x) { return x * 2; }
        array ops[2];
        var gp = 0;
        func main() {
          var f = &inc;
          out f(1);
          var inc = &dbl;
          out inc(5);
          out &inc == &inc;
          out f == f;
          ops[0] = &inc;
          ops[1] = f;
          out ops[1](ops[0](4));
          gp = &dbl;
          return gp(gp(3));
        }""",
    "wrapping_and_unsigned": """
        func main() {
          var big = 9223372036854775807;
          out big + 1; out -(big + 1); out big * 3;
          out (big + 1) < 5; out -1 >= 1; out 1 << 70; out -8 >> 1;
          out !0 + !7; out 6 ^ 3 | 8 & 12;
          return 18446744073709551615;
        }""",
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_case_matches_reference(name):
    assert_equivalent([("t", EDGE_CASES[name])])


def test_edge_cases_reach_their_errors():
    """The edge-case programs fail where they are meant to."""
    def result(name):
        return outcome(Interpreter, [("t", EDGE_CASES[name])])["result"]

    assert result("divide_by_zero") == (BCError, "division by zero")
    assert result("modulo_by_zero") == (BCError, "division by zero")
    assert result("uncaught_throw") == (
        BCError, "uncaught exception (value=42)")
    assert result("indirect_call_through_non_function") == (
        BCError, "indirect call through non-function value")
    assert result("call_through_non_function_variable") == (
        BCError, "call through non-function value")
    assert result("conditional_var_not_taken") == (KeyError, "('t', 'x')")
    assert result("conditional_var_assigned_while_missing") == (
        BCError, "call through non-function value")


@pytest.mark.parametrize("caller", [
    "func main() { out 1; return h(1, 2) + 1; }",
    "func main() { var p = &h; out 1; return p(1, 2) + 1; }",
])
def test_arity_mismatch_matches_reference(caller):
    got = assert_equivalent([("t", caller), ("x", "func h(a) { return a; }")])
    assert got["result"] == (BCError, "arity mismatch calling h")


def test_undefined_function_matches_reference():
    for body in ("out 1; return nowhere(1) + 2;",
                 "out 1; var p = &nowhere; return 0;"):
        got = assert_equivalent([("t", f"func main() {{ {body} }}")])
        assert got["result"] == (BCError, "undefined function nowhere")


BUDGET_PROGRAM = """
    func g(x) { if (x > 2) { throw x * 10; } return x; }
    func f(x) { return g(x) + 1; }
    func side(x) { out x; return x; }
    func mid(a) { var z = a - a; return 5 / (a - 1) + 100 % (z + 3); }
    func main() {
      var s = 0;
      for (var i = 0; i < 5; i += 1) {
        try { s += f(i) * 2 + i; out s; } catch (e) { s += e; out e; }
      }
      out side(0) && side(1);
      out side(2) || side(3) + mid(2);
      if (s) var x = mid(3) * 2;
      out x + side(4) * 2 + 1;
      switch (s % 3) { case 0: { out 0; } case 1: { out 1; } default: { out 2; } }
      return s;
    }"""


def test_step_budget_exhaustion_at_every_budget():
    """At every budget the two raise the same error with the same output
    and ``steps`` (one past the budget), or both finish."""
    sources = [("t", BUDGET_PROGRAM)]
    full = outcome(ReferenceInterpreter, sources)
    assert isinstance(full["result"], int) and full["steps"] > 100
    for budget in range(full["steps"] + 2):
        got = assert_equivalent(sources, max_steps=budget)
        if budget < full["steps"]:
            assert got["result"] == (BCError, "step budget exceeded")
            assert got["steps"] == budget + 1
        else:
            assert got == full


def test_budget_lowered_between_runs():
    """``steps`` accumulates across runs and ``max_steps`` may change
    between them."""
    modules = [("t", EDGE_CASES["loops_break_continue"])]
    seen = []
    for cls in (ReferenceInterpreter, Interpreter):
        interp = cls([parse_module(text, name) for name, text in modules])
        first = interp.run("main")
        interp.max_steps = interp.steps + 25
        with pytest.raises(BCError, match="step budget exceeded"):
            interp.run("main")
        seen.append((first, interp.output, interp.steps))
    assert seen[0] == seen[1]
