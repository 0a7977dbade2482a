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

# One match per token: the whitespace and comments before it, then the
# token itself. After the longest run of whitespace and comments some
# alternative always matches, so the engine never backtracks into that
# run: `bad` takes a character no token rule accepts and `end` the end of
# the source, and each match starts where the one before it ended. The
# two most common kinds, names and punctuation, are told apart from the
# rest by group number; `kw` and `ident` are the first two groups.
_TOKEN_RE = re.compile(
    r"""
    (?:\s|\#[^\n]*|//[^\n]*)*
    (?:
      (?P<kw>(?:%s)(?![A-Za-z0-9_]))
    | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
    | (?P<punct>=\+|==|!=|<=|>=|\.\.\.|[-+*/<>=(){}\[\],;:])
    | (?P<end>\Z)
    | (?P<rational>\d+/\d+)
    | (?P<number>\d+\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
    | (?P<integer>\d+)
    | (?P<indexlit>_\d+)
    | (?P<bad>.)
    )
    """
    % "|".join(sorted(KEYWORDS)),
    re.VERBOSE,
)
_KW, _IDENT, _PUNCT, _END = (_TOKEN_RE.groupindex[g] for g in ("kw", "ident", "punct", "end"))
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


def _literal_token(group: str, text: str, pos: int, lines: LineTable) -> Token:
    """The token of a number or index literal, or the error of a character
    that no token rule accepts."""
    if group == "integer":
        return Token("number", text, pos, lines, Fraction(int(text)))
    if group == "indexlit":
        return Token("indexlit", text, pos, lines, int(text[1:]))
    if group == "rational":
        num, den = text.split("/")
        if int(den) == 0:
            raise LexError(error(lines.location(pos, len(text)), f"zero denominator in {text!r}"))
        return Token("number", text, pos, lines, Fraction(int(num), int(den)))
    if group == "number":
        return Token("number", text, pos, lines, _number_value(text, lines, pos))
    raise LexError(error(lines.location(pos), f"illegal character {text!r}"))


def tokenize(source: str, filename: str = "<ekl>") -> list[Token]:
    """Full token stream; comments and whitespace are dropped. Every token
    shares one `LineTable` of the source."""
    lines = LineTable(source, filename)
    tokens: list[Token] = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(source):
        group = m.lastindex
        text = m[group]
        if group <= _IDENT:
            append(Token("kw" if group == _KW else "ident", text, m.start(group), lines, text))
        elif group == _PUNCT:
            append(Token("punct", text, m.start(group), lines))
        elif group == _END:
            break
        else:
            append(_literal_token(m.lastgroup, text, m.start(group), lines))
    append(Token("eof", "", len(source), lines))
    return tokens
