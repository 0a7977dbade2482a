from __future__ import annotations

from fractions import Fraction

import pytest

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
