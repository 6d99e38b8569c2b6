"""The reference BC lexer: the character-loop scanner, preserved verbatim.

This is the lexer :mod:`repro.lang.lexer` had before it scanned each
line with one compiled regex.  It is kept as the equivalence oracle for
that scanner; only tests and benchmarks import it.  Its classes are its
own, so compare tokens and errors by value and text.  One behaviour is
a known defect the scanner fixed: a non-decimal Unicode digit such as
``²`` reaches ``int()`` here and raises a bare ``ValueError``.
"""

import enum


class LexError(Exception):
    """Raised on malformed source text."""

    def __init__(self, message, file, line):
        super().__init__(f"{file}:{line}: {message}")
        self.file = file
        self.line = line


class TokenType(enum.Enum):
    NUM = "num"
    IDENT = "ident"
    KEYWORD = "keyword"
    PUNCT = "punct"
    EOF = "eof"


KEYWORDS = frozenset(
    {
        "var",
        "array",
        "const",
        "func",
        "static",
        "if",
        "else",
        "while",
        "for",
        "switch",
        "case",
        "default",
        "return",
        "out",
        "try",
        "catch",
        "throw",
        "break",
        "continue",
    }
)

# Longest first so maximal-munch works.
_PUNCTUATION = (
    "<<=",
    ">>=",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    "<<",
    ">>",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ",",
    ";",
    ":",
    "=",
    "+",
    "-",
    "*",
    "/",
    "%",
    "&",
    "|",
    "^",
    "<",
    ">",
    "!",
)


class Token:
    __slots__ = ("type", "value", "file", "line")

    def __init__(self, type, value, file, line):
        self.type = type
        self.value = value
        self.file = file
        self.line = line

    def __repr__(self):
        return f"Token({self.type.value}, {self.value!r}, line {self.line})"


class Lexer:
    """Tokenizes one BC source file."""

    def __init__(self, source, file="<input>"):
        self.source = source
        self.file = file
        self.pos = 0
        self.line = 1

    def tokens(self):
        """Produce the full token list, ending with an EOF token."""
        out = []
        while True:
            token = self._next()
            out.append(token)
            if token.type == TokenType.EOF:
                return out

    def _error(self, message):
        raise LexError(message, self.file, self.line)

    def _next(self):
        src = self.source
        n = len(src)
        while self.pos < n:
            ch = src[self.pos]
            if ch == "\n":
                self.line += 1
                self.pos += 1
            elif ch in " \t\r":
                self.pos += 1
            elif ch == "/" and self.pos + 1 < n and src[self.pos + 1] == "/":
                while self.pos < n and src[self.pos] != "\n":
                    self.pos += 1
            else:
                break
        if self.pos >= n:
            return Token(TokenType.EOF, None, self.file, self.line)

        ch = src[self.pos]
        if ch.isdigit():
            start = self.pos
            if ch == "0" and self.pos + 1 < n and src[self.pos + 1] in "xX":
                self.pos += 2
                while self.pos < n and src[self.pos] in "0123456789abcdefABCDEF":
                    self.pos += 1
                if self.pos == start + 2:
                    self._error("malformed hex literal")
                value = int(src[start : self.pos], 16)
            else:
                while self.pos < n and src[self.pos].isdigit():
                    self.pos += 1
                value = int(src[start : self.pos])
            return Token(TokenType.NUM, value, self.file, self.line)

        if ch.isalpha() or ch == "_":
            start = self.pos
            while self.pos < n and (src[self.pos].isalnum() or src[self.pos] == "_"):
                self.pos += 1
            word = src[start : self.pos]
            kind = TokenType.KEYWORD if word in KEYWORDS else TokenType.IDENT
            return Token(kind, word, self.file, self.line)

        for punct in _PUNCTUATION:
            if src.startswith(punct, self.pos):
                self.pos += len(punct)
                return Token(TokenType.PUNCT, punct, self.file, self.line)

        self._error(f"unexpected character {ch!r}")
