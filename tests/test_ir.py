from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eklc.ir import (
    Block,
    IntAttr,
    Operation,
    REGISTRY,
    StringAttr,
    clone_op,
    count_ops,
    erase_tree,
    structurally_equal,
    verify,
    walk_lexical,
)
from eklc.ir_text import IrSyntaxError, parse_ir
from eklc.ops import number_literal
from eklc.types import EXPR, F64


def _tiny_module():
    program = Operation("ekl.program", regions=[Block()])
    block = Block()
    kernel = Operation(
        "ekl.kernel",
        attrs={"name": StringAttr("k")},
        regions=[block],
    )
    program.body().append(kernel)
    arg = block.add_arg(F64)
    kernel.attrs["in0"] = StringAttr("x")
    a = number_literal(2)
    block.append(a)
    add = Operation("ekl.add", operands=[arg, a.result], result_type=EXPR)
    block.append(add)
    return program, kernel, block, arg, a, add


def test_uses_are_tracked():
    _, _, _, arg, a, add = _tiny_module()
    assert (add, 0) in arg.uses
    assert a.result.uses == [(add, 1)]


def test_replace_all_uses_with():
    program, _, block, arg, a, add = _tiny_module()
    b = number_literal(3)
    block.insert_before(add, b)
    a.result.replace_all_uses_with(b.result)
    assert not a.result.uses
    assert add.operands[1] is b.result


def test_walk_lexical_is_preorder():
    program, kernel, block, _, a, add = _tiny_module()
    kinds = [op.kind for op in walk_lexical(program)]
    assert kinds == ["ekl.program", "ekl.kernel", "ekl.literal", "ekl.add"]
    assert count_ops(program) == 4


def test_verify_accepts_well_formed_and_rejects_bad_operand_order():
    program, _, block, arg, a, add = _tiny_module()
    assert verify(program) == []
    # An operand defined after its user violates dominance.
    late = number_literal(9)
    block.append(late)
    add.set_operand(1, late.result)
    assert verify(program) != []


def test_verify_reports_a_result_count_mismatch():
    program, _, block, arg, a, add = _tiny_module()
    block.append(Operation("ekl.add", operands=[arg, a.result]))
    block.append(Operation("ekl.yield", operands=[add.result], result_type=F64))
    assert [d.message for d in verify(program)] == [
        "'ekl.add' has 0 results, expected 1",
        "'ekl.yield' has 1 results, expected 0",
    ]


# A sum as written before `ekl.reduce` lost its combiner region.
_REDUCE_WITH_A_COMBINER = """
ekl.program (
{
  ekl.kernel (
  {
  ^(%0: array<f64[3]>):
    %1 = ekl.reduce(%0) (
    {
    ^(%2: f64, %3: f64):
      %4 = ekl.mul(%2, %3) : f64
      ekl.yield(%4)
    }
    ) {init = 1/1} : f64
    ekl.output(%1) {name = "y", type = f64}
  }
  ) {in0 = "a", name = "k", out0 = "y", out0_type = f64}
}
)
"""


@pytest.mark.parametrize(
    "text, message",
    [
        ("ekl.program ({ %0 = ekl.assoc })", "'ekl.assoc' has 0 regions, expected 1"),
        (_REDUCE_WITH_A_COMBINER, "'ekl.reduce' has 1 regions, expected 0"),
    ],
    ids=["assoc_without_a_region", "reduce_with_a_combiner"],
)
def test_verify_reports_a_region_count_mismatch(text, message):
    """An op with the wrong number of regions is reported, and its own
    verifier, which may read those regions, does not run."""
    assert [d.message for d in verify(parse_ir(text))] == [message]


_SUBSCRIPT = """ekl.program ({
  ekl.kernel ({
  ^(%0: array<f64[2,3]>, %1: index<2>):
    %2 = ekl.subscript(%0, %1) {slots = SLOTS}
  }) {name = "k"}
})"""


@pytest.mark.parametrize(
    "slots, message",
    [
        ('"i*"', "subscript 'slots' must be a string of 'i', ':' and '.'"),
        ("3", "subscript 'slots' must be a string of 'i', ':' and '.'"),
        ('":i:i"', "subscript 'slots' reads 2 index operands, but the op has 1"),
        ('":"', "subscript 'slots' reads 0 index operands, but the op has 1"),
        ('"i"', "subscript 'slots' must be absent when every slot is an index"),
    ],
    ids=["bad_character", "not_a_string", "too_many_indices", "too_few_indices", "all_indices"],
)
def test_verify_reports_malformed_subscript_slots(slots, message):
    diags = verify(parse_ir(_SUBSCRIPT.replace("SLOTS", slots)))
    assert [d.message for d in diags] == [message]
    assert (diags[0].location.line, diags[0].location.col) == (4, 10)


@pytest.mark.parametrize("op", ["ekl.literal {value = 1/2}", "ekl.cast(%0)"])
def test_verify_requires_literals_and_casts_to_be_typed(op):
    """A literal or a cast carries its type only as its result type."""
    text = f"ekl.program ({{ ^(%0: f64): %1 = {op} }})"
    kind = op.split()[0].split("(")[0]
    assert [d.message for d in verify(parse_ir(text))] == [f"'{kind}' requires a result type"]
    assert not verify(parse_ir(f"ekl.program ({{ ^(%0: f64): %1 = {op} : f32 }})"))


def test_importing_eklc_registers_the_dialect():
    """Verifying parsed IR needs no import of `eklc.ops` first."""
    script = (
        "from eklc.ir_text import parse_ir\n"
        "from eklc.ir import verify\n"
        "text = 'ekl.program ({ %0 = ekl.literal {value = 1/2} : rational })'\n"
        "print(verify(parse_ir(text)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_clone_op_maps_operands_and_results():
    program, _, block, arg, a, add = _tiny_module()
    mapping = {}
    c = clone_op(add, mapping)
    assert c.operands[0] is arg and c.operands[1] is a.result
    assert mapping[add.result] is c.result
    assert c.kind == "ekl.add"


def test_erase_tree_removes_op_and_drops_uses():
    program, _, block, arg, a, add = _tiny_module()
    erase_tree(add)
    assert add not in block.ops
    assert not a.result.uses
    assert not arg.uses


def test_structural_equality_is_shape_and_attr_sensitive():
    m1, *_ = _tiny_module()
    m2, *_ = _tiny_module()
    assert structurally_equal(m1, m2)
    k2 = m2.body().ops[0]
    k2.attrs["name"] = StringAttr("other")
    assert not structurally_equal(m1, m2)


def test_documented_op_kinds_match_the_registry():
    doc = (Path(__file__).parent.parent / "docs" / "ir-format.md").read_text()
    section = doc.split("## Operations", 1)[1].split("\n## ", 1)[0]
    assert sorted(set(re.findall(r"`(ekl\.[a-z_]+)`", section))) == sorted(REGISTRY)


# Op kinds the dialect does not register, each as one op of a kernel body.
UNREGISTERED = {
    "ekl.broadcast": "%2 = ekl.broadcast(%0) : f64",
    "ekl.if": "%2 = ekl.if(%1, %0, %0) : f64",
    "ekl.zip": "%2 = ekl.zip(%0) (\n{\n^(%3: f64):\n  ekl.yield(%3)\n}\n) : f64",
}


@pytest.mark.parametrize("kind", sorted(UNREGISTERED))
def test_unregistered_kinds_are_diagnosed(kind):
    text = (
        "ekl.program (\n{\n  ekl.kernel (\n  {\n  ^(%0: f64, %1: bool):\n"
        f"    {UNREGISTERED[kind]}\n"
        '    ekl.output(%2) {name = "y", type = f64}\n'
        "  }\n"
        '  ) {in0 = "x", in1 = "c", name = "k", out0 = "y", out0_type = f64}\n'
        "}\n)\n"
    )
    diags = verify(parse_ir(text))
    assert [d.message for d in diags] == [f"unregistered op kind '{kind}'"]


def test_dense_attributes_are_not_ir_syntax():
    with pytest.raises(IrSyntaxError, match="unknown type 'dense'"):
        parse_ir('%0 = ekl.literal {type = f64, value = dense<f64, [1]>} : f64')
