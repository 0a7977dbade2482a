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
    | (?P<number>\d+\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
    | (?P<integer>\d+)
    | (?P<indexlit>_\d+)
    | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
    | (?P<punct>=\+|==|!=|<=|>=|\.\.\.|[-+*/<>=(){}\[\],;:])
    """,
    re.VERBOSE,
)
_EXPONENT_RE = re.compile(r"([^eE]*)[eE]([+-]?\d+)$")


@dataclass(slots=True)
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
    m = _EXPONENT_RE.match(text)
    if m:
        mantissa, exp = m.group(1), int(m.group(2))
    try:
        value = Fraction(mantissa)
    except (ValueError, ZeroDivisionError):
        raise LexError(error(loc, f"malformed number {text!r}"))
    return value * Fraction(10) ** exp


def tokenize(source: str, filename: str = "<ekl>") -> list[Token]:
    """Full token stream with spans; comments and whitespace are dropped.

    A column counts characters from the start of its line. Only a newline
    ends a line: the CR of a CRLF line end is whitespace before it.
    """
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN_RE.match
    line, line_start = 1, 0  # line_start: offset of the first character of `line`
    pos, n = 0, len(source)
    while pos < n:
        m = match(source, pos)
        if m is None:
            raise LexError(
                error(
                    Location(filename, line, pos - line_start + 1),
                    f"illegal character {source[pos]!r}",
                )
            )
        kind = m.lastgroup
        end = m.end()
        if kind == "ws":
            newlines = source.count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", pos, end) + 1
            pos = end
            continue
        if kind == "comment":  # never holds a newline
            pos = end
            continue
        lexeme = m.group()
        col = pos - line_start + 1
        loc = Location(filename, line, col, line, col + end - pos)
        if kind == "integer":
            append(Token("number", lexeme, loc, Fraction(int(lexeme))))
        elif kind == "ident":
            append(Token("kw" if lexeme in KEYWORDS else "ident", lexeme, loc, lexeme))
        elif kind == "punct":
            append(Token("punct", lexeme, loc))
        elif kind == "indexlit":
            append(Token("indexlit", lexeme, loc, int(lexeme[1:])))
        elif kind == "rational":
            num, den = lexeme.split("/")
            if int(den) == 0:
                raise LexError(error(loc, f"zero denominator in {lexeme!r}"))
            append(Token("number", lexeme, loc, Fraction(int(num), int(den))))
        else:
            append(Token("number", lexeme, loc, _number_value(lexeme, loc)))
        pos = end
    append(Token("eof", "", Location(filename, line, pos - line_start + 1)))
    return tokens
