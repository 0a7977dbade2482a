"""Lexer for EKL source text.

Number tokens carry exact rational values; `a/b` with adjacent digits is a
single rational literal, `_K` is an index literal, and `=+` is the
reduction-assignment token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .diagnostics import Diagnostic, Location, error

KEYWORDS = {"kernel", "let", "out", "in", "if", "else", "true", "false"}

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>\#[^\n]*|//[^\n]*)
    | (?P<rational>\d+/\d+)
    | (?P<number>\d+\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+|\d+)
    | (?P<indexlit>_\d+)
    | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
    | (?P<punct>=\+|==|!=|<=|>=|\.\.\.|[-+*/<>=(){}\[\],;:])
    """,
    re.VERBOSE,
)


@dataclass
class Token:
    kind: str  # ident | number | indexlit | punct | kw | eof
    text: str
    loc: Location
    value: Fraction | int | str | None = None


class LexError(Exception):
    def __init__(self, diagnostic: Diagnostic) -> None:
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


def _number_value(text: str, loc: Location) -> Fraction:
    mantissa, exp = text, 0
    m = re.match(r"([^eE]*)[eE]([+-]?\d+)$", text)
    if m:
        mantissa, exp = m.group(1), int(m.group(2))
    try:
        value = Fraction(mantissa)
    except (ValueError, ZeroDivisionError):
        raise LexError(error(loc, f"malformed number {text!r}"))
    return value * Fraction(10) ** exp


def tokenize(source: str, filename: str = "<ekl>") -> list[Token]:
    """Full token stream with spans; comments and whitespace are dropped."""
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise LexError(
                error(
                    Location(filename, line, col),
                    f"illegal character {source[pos]!r}",
                )
            )
        kind = m.lastgroup
        lexeme = m.group()
        loc = Location(
            filename, line, col, line, col + len(lexeme)
        )
        if kind == "rational":
            num, den = lexeme.split("/")
            if int(den) == 0:
                raise LexError(error(loc, f"zero denominator in {lexeme!r}"))
            tokens.append(Token("number", lexeme, loc, Fraction(int(num), int(den))))
        elif kind == "number":
            tokens.append(Token("number", lexeme, loc, _number_value(lexeme, loc)))
        elif kind == "indexlit":
            tokens.append(Token("indexlit", lexeme, loc, int(lexeme[1:])))
        elif kind == "ident":
            tk = "kw" if lexeme in KEYWORDS else "ident"
            tokens.append(Token(tk, lexeme, loc, lexeme))
        elif kind == "punct":
            tokens.append(Token("punct", lexeme, loc))
        if "\n" in lexeme:
            line += lexeme.count("\n")
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("eof", "", Location(filename, line, col)))
    return tokens
