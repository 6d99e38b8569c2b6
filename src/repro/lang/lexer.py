"""Lexer for the BC language.

The scanner splits the source at ``\n`` and runs one compiled master
regex over each line with ``findall``: ``//`` comments, hex literals,
decimal runs, word runs, the punctuators (longest first, so the
regex's ordered alternation is maximal munch) and, last, any other
non-blank character.  ``findall`` skips only what no alternative
matches, which is exactly the blanks `` \t\r``.  Each matched string
is then classified with one dict lookup (keywords and punctuators) or
a first-character test.  Only ``\n`` ends a line: ``\v``, ``\f`` and
the Unicode line separators are unexpected characters.
"""

import enum
import re
import string


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


# ``\d`` matches exactly the characters ``int()`` accepts as digits
# (Unicode category Nd, ``str.isdecimal``), and ``\w`` exactly
# ``str.isalnum()`` plus ``_``, the old identifier-continue test.  A word
# run that does not start with a letter or ``_`` (``²``, ``½``) is an
# unexpected character.
_TOKEN_RE = re.compile(
    "|".join(
        [r"//.*", r"0[xX][0-9a-fA-F]*", r"\d+", r"\w+"]
        + [re.escape(punct) for punct in _PUNCTUATION]
        + [r"[^ \t\r]"]
    )
)

# Keywords and punctuators are their own values: one lookup gives the type.
_FIXED = {word: TokenType.KEYWORD for word in KEYWORDS}
_FIXED.update((punct, TokenType.PUNCT) for punct in _PUNCTUATION)

_IDENT_START = frozenset(string.ascii_letters + "_")


class Lexer:
    """Tokenizes one BC source file."""

    def __init__(self, source, file="<input>"):
        self.source = source
        self.file = file

    def tokens(self):
        """Produce the full token list, ending with an EOF token."""
        file = self.file
        fixed = _FIXED.get
        ident_start = _IDENT_START
        ident, num = TokenType.IDENT, TokenType.NUM
        findall = _TOKEN_RE.findall
        out = []
        append = out.append
        line = 0
        for text in self.source.split("\n"):
            line += 1
            for word in findall(text):
                kind = fixed(word)
                if kind is not None:
                    append(Token(kind, word, file, line))
                    continue
                first = word[0]
                if first in ident_start or first.isalpha():
                    append(Token(ident, word, file, line))
                elif word.isdecimal():
                    append(Token(num, int(word), file, line))
                elif word[:2] == "//":
                    break
                elif first == "0" and word[1:2] in ("x", "X"):
                    if len(word) == 2:
                        raise LexError("malformed hex literal", file, line)
                    append(Token(num, int(word, 16), file, line))
                else:
                    raise LexError(f"unexpected character {first!r}", file, line)
        append(Token(TokenType.EOF, None, file, line))
        return out
