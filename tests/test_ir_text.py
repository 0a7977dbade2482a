from __future__ import annotations

import numpy as np
import pytest

from eklc.ir import structurally_equal, verify
from eklc.ir_text import IrSyntaxError, parse_ir, print_ir
from eklc.parser import parse_source
from eklc.typecheck import type_check
from util_random import random_module

SAMPLE = """
kernel sample(
  in A: f64[2, 3],
  in j: index<2>[4],
  out y: f64[4]
) {
  let y[i] = A[j[i], 1] * 2 + 1/3;
}
"""


def _parsed_sample(typed: bool):
    module, diags = parse_source(SAMPLE, "sample.ekl")
    assert not diags
    if typed:
        _, tdiags = type_check(module)
        assert not tdiags
    return module


@pytest.mark.parametrize("typed", [False, True])
def test_round_trip_structural_identity(typed):
    module = _parsed_sample(typed)
    text = print_ir(module)
    again = parse_ir(text)
    assert structurally_equal(module, again)
    assert not verify(again)


def test_printed_text_is_deterministic():
    module = _parsed_sample(True)
    assert print_ir(module) == print_ir(module)
    clone = parse_ir(print_ir(module))
    assert print_ir(clone) == print_ir(module)


def test_rational_attributes_survive_round_trip():
    module = _parsed_sample(False)
    text = print_ir(module)
    assert "1/3" in text
    assert structurally_equal(parse_ir(text), module)


def test_round_trip_random_modules():
    rng = np.random.default_rng(2024)
    for i in range(100):
        module = random_module(rng, n_ops=int(rng.integers(4, 60)))
        text = print_ir(module)
        again = parse_ir(text)
        assert structurally_equal(module, again), i
        assert print_ir(again) == text, i


def test_parse_ir_rejects_malformed_text():
    with pytest.raises(IrSyntaxError):
        parse_ir("ekl.program ( { %0 = ekl.add(%1) }")
    with pytest.raises(IrSyntaxError):
        parse_ir("not ir at all")
    with pytest.raises(IrSyntaxError):
        parse_ir("%0, %1 = ekl.program ({ })")


@pytest.mark.parametrize(
    "text, col, message",
    [
        ("ekl.literal() {type = index<-3>}", 23, "index bound must be positive"),
        ("ekl.literal() {type = array<f64[-2]>}", 23, "array extents must be non-negative"),
        ("ekl.assoc() {shape = [2]}", 22, "expected an attribute, found '['"),
        ("ekl.literal() {value = 1/0}", 24, "zero denominator in 1/0"),
    ],
)
def test_parse_ir_reports_rejected_fields_as_located_syntax_errors(text, col, message):
    with pytest.raises(IrSyntaxError) as info:
        parse_ir(text, "t.eklir")
    assert info.value.message == message
    assert (info.value.location.file, info.value.location.line, info.value.location.col) == (
        "t.eklir",
        1,
        col,
    )
