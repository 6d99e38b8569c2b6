"""Differential semantics tests: compiled binaries must produce the
same output stream as the reference interpreter, at every optimization
level, with and without LTO/tail calls, and after BOLT."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.codegen import CodegenOptions
from repro.compiler import BuildOptions, build_executable
from repro.core import optimize_binary, BoltOptions
from repro.lang import parse_module
from repro.lang.interp import Interpreter, BCError
from repro.uarch import run_binary, MachineFault


def reference_output(sources):
    interp = Interpreter([parse_module(t, n) for n, t in sources])
    interp.run("main")
    return interp.output


def compiled_output(sources, options=None, bolt=False):
    exe, _ = build_executable(sources, options, emit_relocs=bolt)
    if bolt:
        exe = optimize_binary(exe, None, BoltOptions()).binary
    cpu = run_binary(exe)
    return cpu.output


def check_all_configs(text, extra_modules=()):
    sources = [("t", text)] + [(f"x{i}", m) for i, m in enumerate(extra_modules)]
    expected = reference_output(sources)
    configs = [
        BuildOptions(opt_level=0),
        BuildOptions(opt_level=2),
        BuildOptions(opt_level=2, lto=True),
        BuildOptions(opt_level=2, codegen=CodegenOptions(tail_calls=False)),
        BuildOptions(opt_level=2, codegen=CodegenOptions(
            repz_ret=False, align_loops=False, naive_param_homing=False)),
    ]
    for options in configs:
        got = compiled_output(sources, options)
        assert got == expected, f"mismatch with {options.__dict__}: " \
                                f"{got} != {expected}"
    assert compiled_output(sources, BuildOptions(), bolt=True) == expected
    return expected


# -- targeted semantics -------------------------------------------------------


def test_arith_matrix():
    check_all_configs("""
func main() {
  out 17 + 25; out 17 - 25; out 17 * -25;
  out 170 / 25; out -170 / 25; out 170 % 26; out -170 % 26;
  out 17 & 12; out 17 | 12; out 17 ^ 12;
  out 3 << 5; out -96 >> 3;
  out 5 > 3; out 5 < 3; out 5 == 5; out 5 != 5;
  out 5 >= 5; out 4 <= 3;
  out !0; out !7; out -(-9);
  return 0;
}
""")


def test_runtime_values_not_folded():
    # Feed values through an array so the compiler cannot constant-fold.
    check_all_configs("""
array v[4] = {17, -25, 3, 0};
func main() {
  out v[0] + v[1]; out v[0] * v[1];
  out v[0] / v[2]; out v[1] % v[2];
  out v[0] > v[1]; out (v[0] << 2) >> 1;
  out v[1] >> 1;
  out !v[3]; out !v[0];
  return 0;
}
""")


def test_control_flow():
    check_all_configs("""
func main() {
  var i = 0;
  var s = 0;
  while (i < 20) {
    if (i % 3 == 0 && i % 2 == 0) { s = s + 100; }
    else { if (i % 5 == 1 || i > 15) { s = s + 10; } else { s = s + 1; } }
    i = i + 1;
  }
  out s;
  var j = 0;
  while (1) {
    j = j + 1;
    if (j % 2 == 0) { continue; }
    if (j > 7) { break; }
    s = s + j;
  }
  out s;
  return 0;
}
""")


def test_switch_semantics():
    check_all_configs("""
func pick(x) {
  switch (x) {
    case 0: { return 100; }
    case 1: { return 200; }
    case 2: { return 300; }
    case 3: { return 400; }
    case 5: { return 600; }
    default: { return -1; }
  }
}
func sparse(x) {
  switch (x) { case 10: { return 1; } case 5000: { return 2; } }
  return 3;
}
func main() {
  var i = -2;
  while (i < 8) { out pick(i); i = i + 1; }
  out sparse(10); out sparse(5000); out sparse(0);
  return 0;
}
""")


def test_calls_and_recursion():
    check_all_configs("""
func fib(n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
func apply2(f, x) { return f(f(x)); }
func inc(x) { return x + 1; }
func main() {
  out fib(12);
  out apply2(&inc, 5);
  return 0;
}
""")


def test_exceptions_through_frames():
    check_all_configs("""
func thrower(x) {
  if (x == 3) { throw 333; }
  return x;
}
func middle(x) {
  var local = x * 2;
  return thrower(x) + local;
}
func main() {
  var i = 0;
  var acc = 0;
  while (i < 6) {
    try { acc = acc + middle(i); }
    catch (e) { acc = acc + e; }
    i = i + 1;
  }
  out acc;
  return 0;
}
""")


def test_nested_try():
    check_all_configs("""
func f(x) {
  try {
    try {
      if (x == 1) { throw 10; }
      if (x == 2) { throw 20; }
      return x;
    } catch (inner) {
      if (inner == 10) { return 100; }
      throw inner + 1;
    }
  } catch (outer) {
    return outer;
  }
}
func main() {
  out f(0); out f(1); out f(2); out f(3);
  return 0;
}
""")


def test_rethrow_to_caller():
    check_all_configs("""
func inner(x) {
  try { throw x; } catch (e) { throw e * 2; }
}
func main() {
  try { inner(21); } catch (e) { out e; }
  return 0;
}
""")


def test_globals_cross_function():
    check_all_configs("""
var counter = 0;
array log[8];
func bump(x) {
  counter = counter + x;
  log[counter % 8] = counter;
  return counter;
}
func main() {
  var i = 0;
  while (i < 10) { bump(i); i = i + 1; }
  out counter;
  out log[counter % 8];
  out log[3];
  return 0;
}
""")


def test_cross_module_behaviour():
    check_all_configs(
        """
func main() {
  out api_a(5);
  out api_b(5);
  out shared(7);
  return 0;
}
""",
        extra_modules=[
            """
static func helper(x) { return x * 10; }
func api_a(x) { return helper(x) + 1; }
func shared(x) { return x + 1000; }
""",
            """
static func helper(x) { return x * 20; }
func api_b(x) { return helper(x) + 2; }
""",
        ],
    )


def test_function_pointer_table():
    check_all_configs("""
var fp = 0;
func h1(x) { return x + 1; }
func h2(x) { return x * 2; }
func h3(x) { return x - 3; }
func main() {
  var i = 0;
  var acc = 0;
  while (i < 9) {
    if (i % 3 == 0) { fp = &h1; }
    if (i % 3 == 1) { fp = &h2; }
    if (i % 3 == 2) { fp = &h3; }
    var f = fp;
    acc = acc + f(i);
    i = i + 1;
  }
  out acc;
  return 0;
}
""")


def test_division_by_zero_faults():
    sources = [("t", "array z[2]; func main() { return 5 / z[0]; }")]
    exe, _ = build_executable(sources)
    with pytest.raises(MachineFault):
        run_binary(exe)
    with pytest.raises(BCError):
        reference_output(sources)


def test_uncaught_exception_faults():
    sources = [("t", "func main() { throw 42; }")]
    exe, _ = build_executable(sources)
    with pytest.raises(MachineFault):
        run_binary(exe)


def test_deep_expression_pressure():
    check_all_configs("""
array v[8] = {1, 2, 3, 4, 5, 6, 7};
func main() {
  out ((v[0] + v[1]) * (v[2] + v[3])) + ((v[4] + v[5]) * (v[6] + v[0]))
      + ((v[1] * v[2]) + (v[3] * v[4])) * ((v[5] + v[6]) * (v[0] + v[2]));
  return 0;
}
""")


def test_many_locals_promotion():
    check_all_configs("""
func main() {
  var a = 1; var b = 2; var c = 3; var d = 4; var e = 5;
  var f = 6; var g = 7; var h = 8;
  var i = 0;
  while (i < 5) {
    a = a + b; b = b + c; c = c + d; d = d + e;
    e = e + f; f = f + g; g = g + h; h = h + a;
    i = i + 1;
  }
  out a + b + c + d + e + f + g + h;
  return 0;
}
""")


# -- property-based: random programs --------------------------------------------

_INT = st.integers(min_value=-100, max_value=100)


@st.composite
def _expr(draw, depth=0, vars_=("a", "b")):
    if depth > 2:
        choice = draw(st.integers(0, 1))
    else:
        choice = draw(st.integers(0, 3))
    if choice == 0:
        return str(draw(_INT))
    if choice == 1:
        return draw(st.sampled_from(vars_))
    if choice == 2:
        op = draw(st.sampled_from(("+", "-", "*", "&", "|", "^", "<<",
                                   ">>", "<", ">", "==", "!=")))
        left = draw(_expr(depth=depth + 1, vars_=vars_))
        right = draw(_expr(depth=depth + 1, vars_=vars_))
        if op in ("<<", ">>"):
            right = str(draw(st.integers(0, 8)))
        return f"({left} {op} {right})"
    operand = draw(_expr(depth=depth + 1, vars_=vars_))
    return f"(!{operand})" if draw(st.booleans()) else f"(-{operand})"


@st.composite
def _program(draw):
    n_stmts = draw(st.integers(1, 5))
    lines = ["func helper(a, b) {",
             f"  return {draw(_expr())};",
             "}",
             "func main() {",
             "  var a = 3; var b = -7;"]
    for i in range(n_stmts):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            lines.append(f"  a = {draw(_expr())};")
        elif kind == 1:
            lines.append(f"  if ({draw(_expr())}) {{ b = {draw(_expr())}; }}"
                         f" else {{ b = {draw(_expr())}; }}")
        elif kind == 2:
            lines.append(f"  a = helper({draw(_expr())}, b);")
        else:
            lines.append(f"  out {draw(_expr())};")
    lines.append("  out a; out b;")
    lines.append("  return 0;")
    lines.append("}")
    return "\n".join(lines)


@settings(max_examples=25, deadline=None)
@given(text=_program())
def test_prop_compiled_matches_interpreter(text):
    sources = [("t", text)]
    expected = reference_output(sources)
    assert compiled_output(sources, BuildOptions(opt_level=2)) == expected
    assert compiled_output(sources, BuildOptions(opt_level=0)) == expected


def test_for_loops_all_configs():
    check_all_configs("""
array grid[16];
func main() {
  var acc = 0;
  for (var i = 0; i < 12; i += 1) {
    for (var j = i; j > 0; j -= 2) {
      acc += j;
      grid[i + j] ^= acc;
      if (acc % 7 == 0) { continue; }
      if (acc > 200) { break; }
    }
  }
  out acc;
  for (var k = 0; k < 16; k += 1) { out grid[k]; }
  return 0;
}
""")


# -- input arrays ---------------------------------------------------------------

_INPUT_PROGRAM = """
array a[4];
array b[4] = {7, 8, 9, 10};
func main() { out a[0] + a[3]; out b[0]; out b[1]; return 0; }
"""


def test_input_of_exact_array_size_accepted_on_both_paths():
    values = [1, 2, 3, 4]
    interp = Interpreter([parse_module(_INPUT_PROGRAM, "t")])
    interp.set_array("t", "a", values)
    interp.run("main")
    exe, _ = build_executable([("t", _INPUT_PROGRAM)])
    cpu = run_binary(exe, inputs={"t::a": values})
    assert interp.output == cpu.output == [5, 7, 8]


def test_oversized_input_rejected_on_both_paths():
    """An input longer than its array is refused, not written past the
    array's end, with one message on both paths."""
    values = [1, 2, 3, 4, 5, 6]
    message = "input for array t::a has 6 values but the array holds 4"
    interp = Interpreter([parse_module(_INPUT_PROGRAM, "t")])
    with pytest.raises(ValueError) as interp_error:
        interp.set_array("t", "a", values)
    exe, _ = build_executable([("t", _INPUT_PROGRAM)])
    with pytest.raises(ValueError) as machine_error:
        run_binary(exe, inputs={"t::a": values})
    assert str(interp_error.value) == str(machine_error.value) == message
    # Nothing was written: a shorter input still runs as before.
    interp.set_array("t", "a", [1])
    interp.run("main")
    assert interp.output == [1, 7, 8]
