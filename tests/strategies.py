"""Hypothesis strategies shared by several test modules."""

from hypothesis import strategies as st

from repro.workloads import WorkloadSpec


@st.composite
def workload_specs(draw):
    """A randomly shaped generated workload: switches, function
    pointers, EH, indirect tail calls, duplicate leaves, an asm module
    and the runtime library each come and go."""
    return WorkloadSpec(
        "fuzz",
        seed=draw(st.integers(0, 10_000)),
        modules=draw(st.integers(1, 3)),
        workers_per_module=draw(st.integers(2, 5)),
        leaves_per_module=draw(st.integers(1, 3)),
        iterations=draw(st.integers(20, 60)),
        hot_entries=draw(st.integers(1, 2)),
        switch_funcs_per_module=draw(st.integers(0, 2)),
        fptr_funcs_per_module=draw(st.integers(0, 1)),
        itail_funcs_per_module=draw(st.integers(0, 1)),
        eh_funcs_per_module=draw(st.integers(0, 1)),
        dup_leaf_groups=draw(st.integers(0, 2)),
        asm_module=draw(st.booleans()),
        cold_modulus=draw(st.sampled_from((17, 41, 101))),
        use_runtime_lib=draw(st.booleans()),
        input_kind=draw(st.sampled_from(("uniform", "skewed", "bursty"))),
    )


# Whole BC statements and declarations, so that some texts parse.
_BC_STATEMENTS = (
    "return a + b * 2;", "var y = -3;", "out t[f(1, 2)];", "x += 1;",
    "if (x < 3) { out x; } else { out 0; }", "out -!a & 7 | b ^ 1;",
    "while (a != 0 && b >= 1 || !a) { a >>= 1; }", "break;", "continue;",
    "for (var i = 0; i <= 9; i += 1) { t[i] = i % 3 - 1; }",
    "switch (x) { case 1: out 1; case -2: { } default: out 2; }",
    "try { throw 1; } catch (e) { out e; }", "p = &g; (p)(1, 2);",
    "return;", "{ }", "q[1] <<= 2 == 1;",
    "return a << b + c * d - e >> 1 == x < y && a | b & c;",
)

# BC source fragments: every punctuator, keywords, identifiers, number
# edge cases (``0x`` with no digits, hex running into letters, Unicode
# digits that are and are not decimal), comments, the blanks the lexer
# skips, whitespace it does not, and statements and declarations.
_BC_FRAGMENTS = (
    "<<=", ">>=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<",
    ">>", "==", "!=", "<=", ">=", "&&", "||", "(", ")", "{", "}", "[",
    "]", ",", ";", ":", "=", "+", "-", "*", "/", "%", "&", "|", "^", "<",
    ">", "!",
    "func", "static", "var", "const", "array", "if", "else", "while",
    "for", "switch", "case", "default", "return", "out", "try", "catch",
    "throw", "break", "continue",
    "x", "f", "_t0", "main", "funcx", "0", "7", "42", "0x", "0X", "0x1F",
    "0xg", "00x1", "9a",
    "// note", "//", "/", " ", "\t", "\r", "\n", "\n",
    "\x0b", "\x0c", "\xa0", "\u2028", "$",
    "\u00b2", "\u0663", "\u00e9",
    "func f(a, b) {", "func main() {", "static func g() {", "}",
    "array t[4] = {1, -2};", "const K = 5;", "var g = 0x10;",
) + _BC_STATEMENTS


def bc_text(max_fragments=40):
    """Random BC-like source text: fragments of :data:`_BC_FRAGMENTS`
    at module level or inside a function body, or a function body of
    whole statements with at most one stray fragment, which mostly
    parses."""
    fragments = st.lists(st.sampled_from(_BC_FRAGMENTS),
                         max_size=max_fragments).map("".join)
    statements = st.tuples(
        st.lists(st.sampled_from(_BC_STATEMENTS), max_size=8),
        st.integers(0, 8),
        st.sampled_from(("",) * len(_BC_FRAGMENTS) + _BC_FRAGMENTS),
    ).map(lambda t: "\n".join(t[0][:t[1]] + [t[2]] + t[0][t[1]:]))
    return st.one_of(
        fragments,
        st.one_of(fragments, statements).map(
            lambda body: f"func f(a, b) {{{body}}}"),
    )
