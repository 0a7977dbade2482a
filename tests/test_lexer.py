from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eklc.diagnostics import Location
from eklc.lexer import LexError, tokenize


def kinds(src):
    return [t.kind for t in tokenize(src, "t.ekl") if t.kind != "eof"]


def texts(src):
    return [t.text for t in tokenize(src, "t.ekl") if t.kind != "eof"]


def test_keywords_and_identifiers():
    toks = tokenize("kernel let out in if else true false foo", "t.ekl")
    assert [t.kind for t in toks[:-1]] == ["kw"] * 8 + ["ident"]


def test_numbers_are_exact_rationals():
    toks = [t for t in tokenize("3 1/2 2.5 1e3 2.5e-2", "t.ekl") if t.kind == "number"]
    assert [t.value for t in toks] == [
        Fraction(3),
        Fraction(1, 2),
        Fraction(5, 2),
        Fraction(1000),
        Fraction(1, 40),
    ]


def test_index_literals():
    toks = [t for t in tokenize("_0 _12", "t.ekl") if t.kind == "indexlit"]
    assert [t.value for t in toks] == [0, 12]


def test_compound_punctuation():
    assert texts("=+ == != <= >= ...") == ["=+", "==", "!=", "<=", ">=", "..."]


def test_comments_are_skipped():
    assert kinds("a # rest of line\nb // also\nc") == ["ident", "ident", "ident"]


def test_locations_track_line_and_column():
    toks = tokenize("a\n  b", "t.ekl")
    assert (toks[0].loc.line, toks[0].loc.col) == (1, 1)
    assert (toks[1].loc.line, toks[1].loc.col) == (2, 3)


def test_unknown_character_raises_with_diagnostic():
    with pytest.raises(LexError) as exc:
        tokenize("let $ = 1;", "t.ekl")
    assert "$" in str(exc.value.diagnostic.message)


@pytest.mark.parametrize("src, char", [('let s = "ab";', '"'), ("let q = ?;", "?")])
def test_strings_and_question_marks_are_illegal_characters(src, char):
    with pytest.raises(LexError) as info:
        tokenize(src, "t.ekl")
    assert info.value.diagnostic.message == f"illegal character {char!r}"


def test_tokens_of_a_multi_line_source_are_pinned():
    src = "kernel k # note\r\n\tlet y =+ 3/4 * 1.5e3; // tail\r\n  x[_7, ...] / 12\n"
    got = [
        (t.kind, t.text, t.value, (t.loc.line, t.loc.col, t.loc.end_line, t.loc.end_col))
        for t in tokenize(src, "t.ekl")
    ]
    assert got == [
        ("kw", "kernel", "kernel", (1, 1, 1, 7)),
        ("ident", "k", "k", (1, 8, 1, 9)),
        ("kw", "let", "let", (2, 2, 2, 5)),
        ("ident", "y", "y", (2, 6, 2, 7)),
        ("punct", "=+", None, (2, 8, 2, 10)),
        ("number", "3/4", Fraction(3, 4), (2, 11, 2, 14)),
        ("punct", "*", None, (2, 15, 2, 16)),
        ("number", "1.5e3", Fraction(1500), (2, 17, 2, 22)),
        ("punct", ";", None, (2, 22, 2, 23)),
        ("ident", "x", "x", (3, 3, 3, 4)),
        ("punct", "[", None, (3, 4, 3, 5)),
        ("indexlit", "_7", 7, (3, 5, 3, 7)),
        ("punct", ",", None, (3, 7, 3, 8)),
        ("punct", "...", None, (3, 9, 3, 12)),
        ("punct", "]", None, (3, 12, 3, 13)),
        ("punct", "/", None, (3, 14, 3, 15)),
        ("number", "12", Fraction(12), (3, 16, 3, 18)),
        ("eof", "", None, (4, 1, 0, 0)),
    ]
    assert all(t.loc.file == "t.ekl" for t in tokenize(src, "t.ekl"))


@pytest.mark.parametrize(
    "src, where, message",
    [
        ("let a = 1;\n\tb $", "t.ekl:2:4", "illegal character '$'"),
        ("a\r\nb\r\n  c = 1/0;", "t.ekl:3:7", "zero denominator in '1/0'"),
    ],
)
def test_lexical_errors_are_located(src, where, message):
    with pytest.raises(LexError) as info:
        tokenize(src, "t.ekl")
    assert str(info.value.diagnostic) == f"{where}: error: {message}"


def test_locations_are_immutable_hashable_values():
    loc = tokenize("\n  ab", "t.ekl")[0].loc
    assert str(loc) == "t.ekl:2:3"
    assert loc == Location("t.ekl", 2, 3, 2, 5) and hash(loc) == hash(Location("t.ekl", 2, 3, 2, 5))
    assert {loc: 1}[Location("t.ekl", 2, 3, 2, 5)] == 1
    with pytest.raises(AttributeError):
        loc.line = 5
    assert str(Location()) == "<unknown>:0:0"


# Whitespace and comments, the only text allowed between two tokens.
_GAP = re.compile(r"(?:\s|#[^\n]*|//[^\n]*)*")
# The start of a token or of a gap; a position where none matches holds
# an illegal character.
_STARTS = re.compile(r"\s|#|//|\d|_\d|[A-Za-z]|\.\.\.|!=|[-+*/<>=(){}\[\],;:]")
_ALPHABET = (
    list("0123456789") + list("aeEkxZ") + ["in", "_", " ", "\t", "\r", "\n", "#", "//"]
    + list("+-*/<>=!(){}[],;:.") + ["...", "$", "?", '"', "\u0663"]
)


def _line_col(source: str, pos: int) -> tuple[int, int]:
    line = source.count("\n", 0, pos) + 1
    return line, pos - (source.rfind("\n", 0, pos) + 1) + 1


def test_a_unicode_digit_is_a_number():
    (tok, _) = tokenize("\u0663", "t.ekl")
    assert (tok.kind, tok.value) == ("number", 3)


@settings(max_examples=400)
@given(st.lists(st.sampled_from(_ALPHABET), max_size=30).map("".join))
def test_tokens_cover_the_source_apart_from_whitespace_and_comments(source):
    """Either the lexer stops at the first character no rule accepts, or
    its tokens are exactly the source text between gaps of whitespace and
    comments, each at the line and column counted by hand."""
    try:
        tokens = tokenize(source, "t.ekl")
    except LexError as exc:
        diag = exc.diagnostic
        starts = [0] + [i + 1 for i, c in enumerate(source) if c == "\n"]
        pos = starts[diag.location.line - 1] + diag.location.col - 1
        # The text before the error lexes cleanly and ends in a gap.
        before = tokenize(source[:pos], "t.ekl")[:-1]
        end = before[-1].pos + len(before[-1].text) if before else 0
        assert _GAP.fullmatch(source, end, pos)
        if diag.message.startswith("illegal character"):
            assert diag.message == f"illegal character {source[pos]!r}"
            assert not _STARTS.match(source, pos)
        else:
            assert re.match(r"\d+/0+(?!\d)", source[pos:]), diag.message
        return
    end = 0
    for tok in tokens[:-1]:
        assert source[tok.pos : tok.pos + len(tok.text)] == tok.text
        assert _GAP.fullmatch(source, end, tok.pos), (source, tok.text)
        line, col = _line_col(source, tok.pos)
        assert tuple(tok.loc) == ("t.ekl", line, col, line, col + len(tok.text))
        if tok.kind == "number":
            assert tok.value == Fraction(tok.text)
        end = tok.pos + len(tok.text)
    eof = tokens[-1]
    assert eof.kind == "eof" and _GAP.fullmatch(source, end)
    assert tuple(eof.loc) == ("t.ekl", *_line_col(source, len(source)), 0, 0)
