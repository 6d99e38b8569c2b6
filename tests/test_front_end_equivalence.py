"""The regex scanner and value-keyed parser against the code they replaced.

``repro.lang.lexer`` scans each line with one compiled regex and
``repro.lang.parser`` matches tokens by value; ``tests.oracles.lexer``
and ``tests.oracles.parser`` are the character-loop lexer and the
type-and-value parser they were, kept verbatim.  Both front ends must
give the same tokens (type, value, file, line), the same AST, or the
same ``LexError``/``ParseError`` text.  The one allowed difference is a
fixed defect: where the old lexer handed a non-decimal Unicode digit
(``²``) to ``int()`` and raised a bare ``ValueError``, the scanner raises
``LexError`` for that character at the same line.
"""

import pytest
from hypothesis import given, settings

from repro.lang import Lexer, parse_module
from repro.workloads import PRESETS
from tests.oracles import ast_key, preset_sources
from tests.oracles import lexer as old_lexer
from tests.oracles import parser as old_parser
from tests.strategies import bc_text


def _tokens(lexer_cls, text):
    try:
        tokens = lexer_cls(text, "t.bc").tokens()
    except Exception as exc:  # noqa: BLE001 -- the error is the outcome
        return (type(exc).__name__, str(exc))
    return [(t.type.value, t.value, t.file, t.line) for t in tokens]


def _parse(parse, text):
    try:
        module = parse(text, "t")
    except Exception as exc:  # noqa: BLE001 -- the error is the outcome
        return (type(exc).__name__, str(exc))
    return ast_key(module)


def _is_fixed_digit_defect(old, new):
    """Old raised ``ValueError`` from ``int()``; new names the digit."""
    if not (old[0] == "ValueError" and new[0] == "LexError"):
        return False
    char = new[1][-2]       # "t.bc:<line>: unexpected character '²'"
    return (new[1].endswith(f"unexpected character {char!r}")
            and char.isdigit() and not char.isdecimal())


@settings(max_examples=400, deadline=None)
@given(bc_text())
def test_prop_front_end_matches_oracle(text):
    old, new = _tokens(old_lexer.Lexer, text), _tokens(Lexer, text)
    if _is_fixed_digit_defect(old, new):
        old_ast, new_ast = _parse(old_parser.parse_module, text), \
            _parse(parse_module, text)
        assert old_ast[0] == "ValueError" and new_ast == new
        return
    assert new == old
    assert _parse(parse_module, text) == _parse(old_parser.parse_module, text)


@pytest.mark.parametrize("text", [
    "",
    "\n",
    "0x",
    "0X1fg",
    "00x1",
    "a//b\n//c",
    "a/ /b /=/",
    "a\r\n// c\n\n",
    "var v = \x0c;",
    "func f() {\r\n  return 1 <<= 2;\r\n}",
    "func f() { return 5(3); }",
    "func f() { return 5[1]; }",
    "func f() { x = ; }",
    "func f() { if (1) {",
])
def test_front_end_matches_oracle_on_edge_cases(text):
    assert _tokens(Lexer, text) == _tokens(old_lexer.Lexer, text)
    assert _parse(parse_module, text) == _parse(old_parser.parse_module, text)


def test_non_decimal_digit_is_the_one_difference():
    text = "func main() { return ²; }"
    assert _tokens(old_lexer.Lexer, text)[0] == "ValueError"
    assert _tokens(Lexer, text) == (
        "LexError", "t.bc:1: unexpected character '²'")
    assert _parse(parse_module, text) == (
        "LexError", "t.bc:1: unexpected character '²'")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_presets_parse_to_identical_asts(seed):
    sources = preset_sources(seed)
    assert len(sources) >= len(PRESETS)
    for name, text in sources:
        new = parse_module(text, name)
        assert ast_key(new) == ast_key(old_parser.parse_module(text, name)), \
            name

