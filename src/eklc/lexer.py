"""Lexer for EKL source text.

Number tokens carry exact rational values; `a/b` with adjacent digits is a
single rational literal, `_K` is an index literal, and `=+` is the
reduction-assignment token.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from fractions import Fraction

from .diagnostics import Diagnostic, Location, error

KEYWORDS = {"kernel", "let", "out", "in", "if", "else", "true", "false"}

_TOKEN_RE = re.compile(
    r"""
      (?P<skip>(?:\s|\#[^\n]*|//[^\n]*)+)
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


class LineTable:
    """The file name and line starts of one source, shared by its tokens.

    A column counts characters from the start of its line. Only a newline
    ends a line: the CR of a CRLF line end is whitespace before it. The
    line starts are found the first time a location is asked for.
    """

    __slots__ = ("filename", "source", "_starts")

    def __init__(self, source: str, filename: str) -> None:
        self.filename = filename
        self.source = source
        self._starts: list[int] | None = None

    def location(self, pos: int, length: int | None = None) -> Location:
        """The location of offset `pos`; with a `length`, the span of that
        many characters on its line, otherwise a point with no end."""
        starts = self._starts
        if starts is None:
            starts = [0]
            starts.extend(m.end() for m in re.finditer("\n", self.source))
            self._starts = starts
        line = bisect_right(starts, pos)
        col = pos - starts[line - 1] + 1
        if length is None:
            return Location(self.filename, line, col)
        return Location(self.filename, line, col, line, col + length)


class Token:
    """One token: its kind, text, value and start offset in its source.

    `loc` is built from the shared line table when it is asked for; most
    tokens never are. The end-of-input token's location is a point.
    """

    __slots__ = ("kind", "text", "pos", "lines", "value")

    def __init__(
        self,
        kind: str,  # ident | number | indexlit | punct | kw | eof
        text: str,
        pos: int,
        lines: LineTable,
        value: Fraction | int | str | None = None,
    ) -> None:
        self.kind = kind
        self.text = text
        self.pos = pos
        self.lines = lines
        self.value = value

    @property
    def loc(self) -> Location:
        if self.kind == "eof":
            return self.lines.location(self.pos)
        return self.lines.location(self.pos, len(self.text))


class LexError(Exception):
    def __init__(self, diagnostic: Diagnostic) -> None:
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


def _number_value(text: str, lines: LineTable, pos: int) -> Fraction:
    mantissa, exp = text, 0
    m = _EXPONENT_RE.match(text)
    if m:
        mantissa, exp = m.group(1), int(m.group(2))
    try:
        value = Fraction(mantissa)
    except (ValueError, ZeroDivisionError):
        raise LexError(error(lines.location(pos, len(text)), f"malformed number {text!r}"))
    return value * Fraction(10) ** exp


def tokenize(source: str, filename: str = "<ekl>") -> list[Token]:
    """Full token stream; comments and whitespace are dropped. Every token
    shares one `LineTable` of the source."""
    lines = LineTable(source, filename)
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN_RE.match
    pos, n = 0, len(source)
    while pos < n:
        m = match(source, pos)
        if m is None:
            raise LexError(
                error(lines.location(pos), f"illegal character {source[pos]!r}")
            )
        kind = m.lastgroup
        end = m.end()
        if kind == "skip":
            pos = end
            continue
        lexeme = m.group()
        if kind == "integer":
            append(Token("number", lexeme, pos, lines, Fraction(int(lexeme))))
        elif kind == "ident":
            append(Token("kw" if lexeme in KEYWORDS else "ident", lexeme, pos, lines, lexeme))
        elif kind == "punct":
            append(Token("punct", lexeme, pos, lines))
        elif kind == "indexlit":
            append(Token("indexlit", lexeme, pos, lines, int(lexeme[1:])))
        elif kind == "rational":
            num, den = lexeme.split("/")
            if int(den) == 0:
                raise LexError(
                    error(lines.location(pos, end - pos), f"zero denominator in {lexeme!r}")
                )
            append(Token("number", lexeme, pos, lines, Fraction(int(num), int(den))))
        else:
            append(Token("number", lexeme, pos, lines, _number_value(lexeme, lines, pos)))
        pos = end
    append(Token("eof", "", pos, lines))
    return tokens
