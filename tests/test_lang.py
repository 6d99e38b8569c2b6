"""Front-end tests: lexer, parser, semantic checks, reference interpreter."""

import gc
import weakref

import pytest
from hypothesis import given, strategies as st

from repro.lang import (
    Lexer,
    LexError,
    ParseError,
    SemaError,
    TokenType,
    ast,
    check_module,
    parse_module,
)
from repro.lang.interp import Interpreter, BCError
from tests.strategies import bc_text


def lex(text):
    return Lexer(text, "t.bc").tokens()


def parse(text):
    return parse_module(text, "t")


def check(text):
    module = parse(text)
    return module, check_module(module)


# -- lexer -----------------------------------------------------------------


def test_lex_numbers():
    tokens = lex("0 42 0x1F 0xff")
    assert [t.value for t in tokens[:-1]] == [0, 42, 0x1F, 0xFF]


def test_lex_keywords_vs_idents():
    tokens = lex("func funky if iffy")
    assert tokens[0].type == TokenType.KEYWORD
    assert tokens[1].type == TokenType.IDENT
    assert tokens[2].type == TokenType.KEYWORD
    assert tokens[3].type == TokenType.IDENT


def test_lex_punct_maximal_munch():
    tokens = lex("a<<b <= < == = && &")
    values = [t.value for t in tokens[:-1]]
    assert values == ["a", "<<", "b", "<=", "<", "==", "=", "&&", "&"]


def test_lex_comments_and_lines():
    tokens = lex("a // comment\nb")
    assert tokens[0].line == 1
    assert tokens[1].line == 2


def test_lex_error():
    with pytest.raises(LexError):
        lex("a $ b")


def test_lex_bad_hex():
    with pytest.raises(LexError):
        lex("0x")


def test_lex_eof():
    assert lex("")[-1].type == TokenType.EOF


@pytest.mark.parametrize("text, line, char", [
    ("func main() { return \u00b2; }", 1, "\u00b2"),
    ("a\n1\u00b2", 2, "\u00b2"),
    ("\n\n\u00b2x", 3, "\u00b2"),
    ("\u00bd", 1, "\u00bd"),
])
def test_lex_non_decimal_digit_is_lex_error(text, line, char):
    # ``²`` passes ``str.isdigit`` but not ``int()``: the character loop
    # raised a bare ValueError with no file or line.
    with pytest.raises(LexError) as exc:
        lex(text)
    assert str(exc.value) == f"t.bc:{line}: unexpected character {char!r}"
    assert exc.value.line == line


def test_lex_unicode_decimal_digits_and_letters():
    tokens = lex("1\u0663 \u0663 x\u00b2 \u00e9t\u00e9")
    assert [(t.type, t.value) for t in tokens[:-1]] == [
        (TokenType.NUM, 13), (TokenType.NUM, 3),
        (TokenType.IDENT, "x\u00b2"), (TokenType.IDENT, "\u00e9t\u00e9")]


@given(bc_text())
def test_prop_only_keyword_and_punct_tokens_carry_their_strings(text):
    """The parser compares token values only; this is why that is safe."""
    from repro.lang.lexer import KEYWORDS, _PUNCTUATION

    fixed = KEYWORDS | set(_PUNCTUATION)
    try:
        tokens = lex(text)
    except LexError:
        return
    for token in tokens:
        if token.type in (TokenType.KEYWORD, TokenType.PUNCT):
            assert token.value in fixed
        elif token.type == TokenType.NUM:
            assert type(token.value) is int
        elif token.type == TokenType.IDENT:
            assert isinstance(token.value, str) and token.value not in fixed
        else:
            assert token.value is None


def test_parser_only_compares_keywords_and_punctuators():
    """Every string the parser matches a token's value against is a
    keyword or punctuator, so a value match implies the token type."""
    import ast as pyast
    import inspect

    from repro.lang import parser as parser_module
    from repro.lang.lexer import KEYWORDS, _PUNCTUATION

    fixed = KEYWORDS | set(_PUNCTUATION)
    matched = set(parser_module._PRECEDENCE) | set(parser_module._COMPOUND_OPS)
    tree = pyast.parse(inspect.getsource(parser_module))
    for node in pyast.walk(tree):
        if (isinstance(node, pyast.Call)
                and isinstance(node.func, pyast.Attribute)
                and node.func.attr in ("check", "accept", "expect")):
            assert len(node.args) == 1
            assert isinstance(node.args[0], pyast.Constant), pyast.dump(node)
            matched.add(node.args[0].value)
        elif isinstance(node, pyast.Compare) and any(
                isinstance(side, pyast.Attribute) and side.attr == "value"
                or isinstance(side, pyast.Name) and side.id == "value"
                for side in [node.left, *node.comparators]):
            for side in [node.left, *node.comparators]:
                if isinstance(side, pyast.Constant):
                    matched.add(side.value)
                elif isinstance(side, pyast.Tuple):
                    matched.update(elt.value for elt in side.elts)
    assert {"var", "static", "<<=", "[", "!"} <= matched
    assert matched <= fixed, matched - fixed


# -- parser -----------------------------------------------------------------


def test_parse_function():
    module = parse("func f(a, b) { return a + b; }")
    assert len(module.functions) == 1
    func = module.functions[0]
    assert func.name == "f" and func.params == ["a", "b"]
    assert not func.static


def test_parse_static():
    module = parse("static func f() { return 0; }")
    assert module.functions[0].static


def test_parse_globals():
    module = parse("var g = 5;\nconst K = 7;\nvar n = -3;\n"
                   "array a[8] = {1, 2};\nconst array c[4] = {9};")
    kinds = [(d.name, d.const) for d in module.globals]
    assert kinds == [("g", False), ("K", True), ("n", False),
                     ("a", False), ("c", True)]
    assert module.globals[2].init == -3
    assert module.globals[3].size == 8 and module.globals[3].init == [1, 2]


def test_parse_precedence():
    module = parse("func f() { return 1 + 2 * 3 == 7 && 1; }")
    expr = module.functions[0].body.stmts[0].value
    assert isinstance(expr, ast.Binary) and expr.op == "&&"
    left = expr.left
    assert left.op == "=="


def test_parse_unary_chain():
    module = parse("func f(x) { return !-x; }")
    expr = module.functions[0].body.stmts[0].value
    assert expr.op == "!" and expr.operand.op == "-"


def test_parse_call_and_index():
    module = parse("array a[4];\nfunc f(x) { return g(a[x], 1)(2); }")
    call = module.functions[0].body.stmts[0].value
    assert call.indirect  # g(...) returns a value that is then called


def test_parse_funcref():
    module = parse("func g() { return 0; } func f() { return &g; }")
    expr = module.functions[1].body.stmts[0].value
    assert isinstance(expr, ast.FuncRef) and expr.name == "g"


def test_parse_switch():
    module = parse("""
func f(x) {
  switch (x) {
    case 0: { return 1; }
    case -2: { return 2; }
    default: { return 3; }
  }
}
""")
    sw = module.functions[0].body.stmts[0]
    assert [v for v, _ in sw.cases] == [0, -2]
    assert sw.default is not None


def test_parse_switch_duplicate_case():
    with pytest.raises(ParseError):
        parse("func f(x) { switch (x) { case 1: {} case 1: {} } }")


def test_parse_try_catch_throw():
    module = parse("func f() { try { throw 5; } catch (e) { return e; } }")
    stmt = module.functions[0].body.stmts[0]
    assert isinstance(stmt, ast.Try) and stmt.catch_var == "e"


def test_parse_errors():
    for bad in (
        "func f( {",
        "func f() { return 1 }",
        "func f() { if x { } }",
        "var = 3;",
        "func f() { 1 + ; }",
        "func f() { x[1 = 2; }",
        "garbage",
        "func f() { (1 + 2 = 3; }",
        "array a[2] = {1, 2, 3};",
    ):
        with pytest.raises(ParseError):
            parse(bad)


def test_parse_assignment_target_validation():
    with pytest.raises(ParseError):
        parse("func f() { f() = 3; }")


def test_parse_unterminated_block():
    with pytest.raises(ParseError):
        parse("func f() { if (1) {")


# -- sema ----------------------------------------------------------------------


def test_sema_ok():
    _, info = check("""
var g = 1;
array a[8];
func helper(x) { return x; }
func main() {
  var y = helper(g) + a[0];
  a[1] = y;
  g = y;
  return y;
}
""")
    assert "helper" in info.functions
    assert not info.extern_calls


def test_sema_undeclared_variable():
    with pytest.raises(SemaError):
        check("func f() { return nope; }")


def test_sema_assign_to_const():
    with pytest.raises(SemaError):
        check("const K = 1; func f() { K = 2; return 0; }")


def test_sema_assign_to_const_array():
    with pytest.raises(SemaError):
        check("const array a[4] = {1}; func f() { a[0] = 2; return 0; }")


def test_sema_array_as_value():
    with pytest.raises(SemaError):
        check("array a[4]; func f() { return a; }")


def test_sema_index_unknown_array():
    with pytest.raises(SemaError):
        check("func f() { return b[0]; }")


def test_sema_break_outside_loop():
    with pytest.raises(SemaError):
        check("func f() { break; }")


def test_sema_continue_outside_loop():
    with pytest.raises(SemaError):
        check("func f() { continue; }")


def test_sema_arity_mismatch():
    with pytest.raises(SemaError):
        check("func g(a, b) { return a; } func f() { return g(1); }")


def test_sema_extern_calls_allowed():
    _, info = check("func f() { return other_module_func(1); }")
    assert "other_module_func" in info.extern_calls


def test_sema_duplicate_global():
    with pytest.raises(SemaError):
        check("var g = 1; var g = 2;")


def test_sema_duplicate_function():
    with pytest.raises(SemaError):
        check("func f() { return 0; } func f() { return 1; }")


def test_sema_redeclaration_in_scope():
    with pytest.raises(SemaError):
        check("func f() { var x = 1; var x = 2; return x; }")


def test_sema_shadowing_allowed():
    check("func f() { var x = 1; { var x = 2; } return x; }")


def test_sema_duplicate_param():
    with pytest.raises(SemaError):
        check("func f(a, a) { return a; }")


def test_sema_array_size_power_of_two():
    with pytest.raises(SemaError):
        check("array a[6];")
    check("array a[8];")


def test_sema_catch_var_scoped():
    with pytest.raises(SemaError):
        check("func f() { try { } catch (e) { } return e; }")


# -- reference interpreter ----------------------------------------------------------


def run_bc(text, entry="main", modules_extra=(), inputs=None):
    modules = [parse_module(text, "t")]
    for i, extra in enumerate(modules_extra):
        modules.append(parse_module(extra, f"x{i}"))
    interp = Interpreter(modules)
    if inputs:
        for (mod, name), values in inputs.items():
            interp.set_array(mod, name, values)
    result = interp.run(entry)
    return result, interp.output


def test_interp_arith():
    result, out = run_bc("func main() { out 2 + 3 * 4; return 6 / 4; }")
    assert out == [14] and result == 1


def test_interp_division_semantics():
    _, out = run_bc("func main() { out -7 / 2; out -7 % 2; out 7 % -2; return 0; }")
    assert out == [-3, -1, 1]  # C-style truncation


def test_interp_division_by_zero():
    with pytest.raises(BCError):
        run_bc("func main() { var z = 0; return 1 / z; }")


def test_interp_shifts():
    _, out = run_bc("func main() { out 1 << 4; out -16 >> 2; return 0; }")
    assert out == [16, -4]


def test_interp_wrapping():
    _, out = run_bc(
        "func main() { out 0x7FFFFFFFFFFFFFFF + 0x7FFFFFFFFFFFFFFF + 2; return 0; }")
    assert out == [0]


def test_interp_loops_and_break():
    _, out = run_bc("""
func main() {
  var i = 0;
  var s = 0;
  while (1) {
    i = i + 1;
    if (i % 2 == 0) { continue; }
    if (i > 9) { break; }
    s = s + i;
  }
  out s;
  return 0;
}
""")
    assert out == [1 + 3 + 5 + 7 + 9]


def test_interp_switch_fall_out():
    _, out = run_bc("""
func main() {
  var i = 0;
  while (i < 5) {
    switch (i) {
      case 0: { out 10; }
      case 2: { out 20; }
      default: { out 99; }
    }
    i = i + 1;
  }
  return 0;
}
""")
    assert out == [10, 99, 20, 99, 99]


def test_interp_exceptions_nested():
    _, out = run_bc("""
func deep(x) {
  if (x > 2) { throw x * 10; }
  return x;
}
func mid(x) { return deep(x) + 100; }
func main() {
  try { out mid(1); out mid(5); out 777; }
  catch (e) { out e; }
  return 0;
}
""")
    assert out == [101, 50]


def test_interp_uncaught():
    with pytest.raises(BCError):
        run_bc("func main() { throw 3; }")


def test_interp_function_pointers():
    _, out = run_bc("""
func a(x) { return x + 1; }
func b(x) { return x * 2; }
func main() {
  var f = &a;
  out f(10);
  f = &b;
  out f(10);
  return 0;
}
""")
    assert out == [11, 20]


def test_interp_cross_module_static():
    main = "func main() { out api(1); return 0; }"
    other = """
static func helper(x) { return x + 41; }
func api(x) { return helper(x); }
"""
    _, out = run_bc(main, modules_extra=[other])
    assert out == [42]


def test_interp_array_mask_semantics():
    _, out = run_bc("""
array a[4] = {10, 20, 30, 40};
func main() {
  out a[5];
  out a[-1];
  a[7] = 99;
  out a[3];
  return 0;
}
""")
    assert out == [20, 40, 99]


def test_interp_short_circuit_effects():
    _, out = run_bc("""
var calls = 0;
func tick() { calls = calls + 1; return 1; }
func main() {
  var r = 0 && tick();
  out calls;
  r = 1 || tick();
  out calls;
  r = 1 && tick();
  out calls;
  return 0;
}
""")
    assert out == [0, 0, 1]


@given(a=st.integers(-(2**63), 2**63 - 1), b=st.integers(-(2**63), 2**63 - 1))
def test_prop_interp_wrap_matches_ctypes(a, b):
    """+ - * all wrap like two's-complement 64-bit."""
    import ctypes

    _, out = run_bc(
        f"func main() {{ out ({a}) + ({b}); out ({a}) * ({b}); return 0; }}")
    assert out[0] == ctypes.c_int64(a + b).value
    assert out[1] == ctypes.c_int64(a * b).value


# -- for loops & compound assignment ------------------------------------------


def test_parse_for_loop():
    module = parse("func f() { for (var i = 0; i < 3; i += 1) { out i; } return 0; }")
    loop = module.functions[0].body.stmts[0]
    assert isinstance(loop, ast.For)
    assert isinstance(loop.init, ast.VarDecl)
    assert loop.cond is not None and loop.step is not None


def test_parse_for_empty_parts():
    module = parse("func f() { for (;;) { break; } return 0; }")
    loop = module.functions[0].body.stmts[0]
    assert loop.init is None and loop.cond is None and loop.step is None


def test_compound_assign_desugars():
    module = parse("func f() { var x = 1; x += 2; x <<= 1; return x; }")
    stmt = module.functions[0].body.stmts[1]
    assert isinstance(stmt, ast.Assign)
    assert isinstance(stmt.value, ast.Binary) and stmt.value.op == "+"
    shift = module.functions[0].body.stmts[2]
    assert shift.value.op == "<<"


def test_compound_assign_invalid_target():
    with pytest.raises(ParseError):
        parse("func f() { f() += 1; }")


def test_sema_for_init_scope():
    # The loop variable is not visible after the loop.
    with pytest.raises(SemaError):
        check("func f() { for (var i = 0; i < 3; i += 1) { } return i; }")


def test_interp_for_continue_runs_step():
    _, out = run_bc("""
func main() {
  var s = 0;
  for (var i = 0; i < 6; i += 1) {
    if (i % 2 == 0) { continue; }
    s += i;
  }
  out s;
  return 0;
}
""")
    assert out == [1 + 3 + 5]


def test_interp_compound_on_array():
    _, out = run_bc("""
array a[4] = {1, 2, 3, 4};
func main() {
  a[1] *= 10;
  a[2] += a[1];
  out a[1]; out a[2];
  return 0;
}
""")
    assert out == [20, 23]


def test_interp_freed_without_garbage_collection():
    """A recursive function's compiled closures form a cycle; they and
    the Interpreter still go as soon as it is dropped."""
    interp = Interpreter([parse_module(
        "func f(n) { if (n) { return f(n - 1) + 1; } return 0; }"
        " func main() { out f(5); return 0; }", "t")])
    enabled = gc.isenabled()
    gc.disable()
    try:
        interp.run("main")
        assert interp.output == [5]
        functions = list(interp._functions.values())
        assert all(function.body is not None for function in functions)
        alive = weakref.ref(interp)
        del interp
        assert alive() is None
        assert all(function.body is None for function in functions)
    finally:
        if enabled:
            gc.enable()
