"""The reference BC parser, preserved verbatim over the reference lexer.

This is the parser :mod:`repro.lang.parser` had before ``check``/
``accept``/``expect`` compared token values only and statements were
dispatched by their leading keyword.  It builds the same
:mod:`repro.lang.astnodes` trees, so results compare with
:func:`tests.oracles.ast_key`.
"""

from repro.lang import astnodes as ast
from tests.oracles.lexer import Lexer, TokenType


class ParseError(Exception):
    def __init__(self, message, file, line):
        super().__init__(f"{file}:{line}: {message}")
        self.file = file
        self.line = line


# Binary operator precedence (higher binds tighter).
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    "<=": 7,
    ">": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}


class _Parser:
    def __init__(self, tokens, file):
        self.tokens = tokens
        self.file = file
        self.pos = 0

    # -- token helpers ----------------------------------------------------

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        token = self.tokens[self.pos]
        if token.type != TokenType.EOF:
            self.pos += 1
        return token

    def error(self, message, token=None):
        token = token or self.peek()
        raise ParseError(message, self.file, token.line)

    def check(self, value):
        token = self.peek()
        return token.type in (TokenType.PUNCT, TokenType.KEYWORD) and token.value == value

    def accept(self, value):
        if self.check(value):
            return self.advance()
        return None

    def expect(self, value):
        token = self.accept(value)
        if token is None:
            self.error(f"expected {value!r}, found {self.peek().value!r}")
        return token

    def expect_ident(self):
        token = self.peek()
        if token.type != TokenType.IDENT:
            self.error(f"expected identifier, found {token.value!r}")
        return self.advance()

    def expect_num(self):
        token = self.peek()
        if token.type != TokenType.NUM:
            self.error(f"expected number, found {token.value!r}")
        return self.advance()

    # -- top level ----------------------------------------------------------

    def module(self, name):
        globals_, functions = [], []
        while self.peek().type != TokenType.EOF:
            token = self.peek()
            if self.check("static") or self.check("func"):
                functions.append(self.func_decl())
            elif self.check("var") or self.check("array") or self.check("const"):
                globals_.append(self.global_decl())
            else:
                self.error(f"unexpected top-level token {token.value!r}")
        return ast.Module(name, globals_, functions, self.file, 1)

    def global_decl(self):
        const = bool(self.accept("const"))
        if self.accept("array") or (const and self.check("array") and self.advance()):
            return self._array_decl(const)
        if const:
            token = self.expect_ident()
            self.expect("=")
            init = self.expect_num().value
            self.expect(";")
            return ast.GlobalVar(token.value, init, True, self.file, token.line)
        self.expect("var")
        token = self.expect_ident()
        init = 0
        if self.accept("="):
            sign = -1 if self.accept("-") else 1
            init = sign * self.expect_num().value
        self.expect(";")
        return ast.GlobalVar(token.value, init, False, self.file, token.line)

    def _array_decl(self, const):
        token = self.expect_ident()
        self.expect("[")
        size = self.expect_num().value
        self.expect("]")
        init = []
        if self.accept("="):
            self.expect("{")
            if not self.check("}"):
                while True:
                    sign = -1 if self.accept("-") else 1
                    init.append(sign * self.expect_num().value)
                    if not self.accept(","):
                        break
            self.expect("}")
        self.expect(";")
        if len(init) > size:
            self.error(f"too many initializers for {token.value}", token)
        return ast.GlobalArray(token.value, size, init, const, self.file, token.line)

    def func_decl(self):
        static = bool(self.accept("static"))
        self.expect("func")
        token = self.expect_ident()
        self.expect("(")
        params = []
        if not self.check(")"):
            while True:
                params.append(self.expect_ident().value)
                if not self.accept(","):
                    break
        self.expect(")")
        body = self.block()
        return ast.FuncDecl(token.value, params, body, static, self.file, token.line)

    # -- statements -----------------------------------------------------------

    def block(self):
        start = self.expect("{")
        stmts = []
        while not self.check("}"):
            if self.peek().type == TokenType.EOF:
                self.error("unterminated block", start)
            stmts.append(self.statement())
        self.expect("}")
        return ast.Block(stmts, self.file, start.line)

    def statement(self):
        token = self.peek()
        if self.check("{"):
            return self.block()
        if self.accept("var"):
            name = self.expect_ident()
            init = None
            if self.accept("="):
                init = self.expression()
            self.expect(";")
            return ast.VarDecl(name.value, init, self.file, name.line)
        if self.accept("if"):
            self.expect("(")
            cond = self.expression()
            self.expect(")")
            then = self.statement()
            otherwise = None
            if self.accept("else"):
                otherwise = self.statement()
            return ast.If(cond, then, otherwise, self.file, token.line)
        if self.accept("while"):
            self.expect("(")
            cond = self.expression()
            self.expect(")")
            body = self.statement()
            return ast.While(cond, body, self.file, token.line)
        if self.accept("for"):
            return self._for(token)
        if self.accept("switch"):
            return self._switch(token)
        if self.accept("return"):
            value = None
            if not self.check(";"):
                value = self.expression()
            self.expect(";")
            return ast.Return(value, self.file, token.line)
        if self.accept("out"):
            value = self.expression()
            self.expect(";")
            return ast.Out(value, self.file, token.line)
        if self.accept("break"):
            self.expect(";")
            return ast.Break(self.file, token.line)
        if self.accept("continue"):
            self.expect(";")
            return ast.Continue(self.file, token.line)
        if self.accept("throw"):
            value = self.expression()
            self.expect(";")
            return ast.Throw(value, self.file, token.line)
        if self.accept("try"):
            body = self.block()
            self.expect("catch")
            self.expect("(")
            var = self.expect_ident().value
            self.expect(")")
            handler = self.block()
            return ast.Try(body, var, handler, self.file, token.line)
        return self._expr_or_assign()

    def _switch(self, token):
        self.expect("(")
        value = self.expression()
        self.expect(")")
        self.expect("{")
        cases, default = [], None
        while not self.check("}"):
            if self.accept("case"):
                sign = -1 if self.accept("-") else 1
                case_value = sign * self.expect_num().value
                self.expect(":")
                cases.append((case_value, self.statement()))
            elif self.accept("default"):
                self.expect(":")
                if default is not None:
                    self.error("duplicate default", token)
                default = self.statement()
            else:
                self.error(f"expected case/default, found {self.peek().value!r}")
        self.expect("}")
        seen = set()
        for case_value, _ in cases:
            if case_value in seen:
                self.error(f"duplicate case {case_value}", token)
            seen.add(case_value)
        return ast.Switch(value, cases, default, self.file, token.line)

    def _for(self, token):
        self.expect("(")
        init = None
        if not self.check(";"):
            if self.accept("var"):
                name = self.expect_ident()
                self.expect("=")
                init_value = self.expression()
                init = ast.VarDecl(name.value, init_value, self.file,
                                   name.line)
            else:
                init = self._simple_assign(token)
        self.expect(";")
        cond = None if self.check(";") else self.expression()
        self.expect(";")
        step = None if self.check(")") else self._simple_assign(token)
        self.expect(")")
        body = self.statement()
        return ast.For(init, cond, step, body, self.file, token.line)

    _COMPOUND_OPS = ("+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
                     "<<=", ">>=")

    def _simple_assign(self, token):
        """An assignment or expression without the trailing ';' (for
        use in for-headers)."""
        expr = self.expression()
        compound = next((op for op in self._COMPOUND_OPS if self.check(op)),
                        None)
        if compound is not None:
            self.advance()
            if not isinstance(expr, (ast.Name, ast.Index)):
                self.error("invalid assignment target", token)
            value = self.expression()
            # Desugar: `x op= v` => `x = x op v`.  For array targets the
            # index expression is evaluated twice (by specification).
            rhs = ast.Binary(compound[:-1], expr, value, self.file,
                             token.line)
            return ast.Assign(expr, rhs, self.file, token.line)
        if self.accept("="):
            if not isinstance(expr, (ast.Name, ast.Index)):
                self.error("invalid assignment target", token)
            value = self.expression()
            return ast.Assign(expr, value, self.file, token.line)
        return ast.ExprStmt(expr, self.file, token.line)

    def _expr_or_assign(self):
        token = self.peek()
        stmt = self._simple_assign(token)
        self.expect(";")
        return stmt

    # -- expressions ------------------------------------------------------------

    def expression(self):
        return self._binary(0)

    def _binary(self, min_prec):
        left = self._unary()
        while True:
            token = self.peek()
            if token.type != TokenType.PUNCT:
                return left
            prec = _PRECEDENCE.get(token.value, 0)
            if prec <= min_prec:
                return left
            self.advance()
            right = self._binary(prec)
            left = ast.Binary(token.value, left, right, self.file, token.line)

    def _unary(self):
        token = self.peek()
        if self.accept("-"):
            return ast.Unary("-", self._unary(), self.file, token.line)
        if self.accept("!"):
            return ast.Unary("!", self._unary(), self.file, token.line)
        if self.accept("&"):
            name = self.expect_ident()
            return ast.FuncRef(name.value, self.file, name.line)
        return self._postfix()

    def _postfix(self):
        expr = self._primary()
        while True:
            token = self.peek()
            if self.check("("):
                self.advance()
                args = []
                if not self.check(")"):
                    while True:
                        args.append(self.expression())
                        if not self.accept(","):
                            break
                self.expect(")")
                if isinstance(expr, ast.Name):
                    expr = ast.Call(expr.name, args, False, self.file, token.line)
                else:
                    expr = ast.Call(expr, args, True, self.file, token.line)
            elif self.check("["):
                if not isinstance(expr, ast.Name):
                    self.error("only named arrays can be indexed", token)
                self.advance()
                index = self.expression()
                self.expect("]")
                expr = ast.Index(expr.name, index, self.file, token.line)
            else:
                return expr

    def _primary(self):
        token = self.peek()
        if token.type == TokenType.NUM:
            self.advance()
            return ast.Num(token.value, self.file, token.line)
        if token.type == TokenType.IDENT:
            self.advance()
            return ast.Name(token.value, self.file, token.line)
        if self.accept("("):
            expr = self.expression()
            self.expect(")")
            return expr
        self.error(f"unexpected token {token.value!r} in expression")


def parse_module(source, name, file=None):
    """Parse BC source text into an :class:`ast.Module`."""
    file = file or f"{name}.bc"
    tokens = Lexer(source, file).tokens()
    return _Parser(tokens, file).module(name)
