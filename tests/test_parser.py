from __future__ import annotations

from fractions import Fraction

from conftest import corpus_source
from eklc.ir import RationalAttr, verify, walk_lexical
from eklc.parser import parse_source
from eklc.types import EXPR, F64, ArrayType, IndexType


def _ops(module, kind):
    return [op for op in walk_lexical(module) if op.kind == kind]


def test_kernel_signature_becomes_args_and_attrs():
    module, diags = parse_source(
        "kernel k(in a: f64[2], in b: si32, out y: f64[2]) { let y[i] = a[i]; }"
    )
    assert not diags
    kernel = module.body().ops[0]
    assert kernel.attrs["name"].value == "k"
    assert kernel.attrs["in0"].value == "a"
    assert kernel.attrs["in1"].value == "b"
    assert kernel.attrs["out0"].value == "y"
    assert kernel.attrs["out0_type"].value == ArrayType(F64, (2,))
    assert [a.type for a in kernel.body().args] == [ArrayType(F64, (2,)), _si32()]


def _si32():
    from eklc.types import SI32

    return SI32


def test_expression_values_start_untyped():
    module, diags = parse_source("kernel k(in a: f64, out y: f64) { let y = a + 1; }")
    assert not diags
    add = _ops(module, "ekl.add")
    assert len(add) == 1 and add[0].result.type == EXPR


def test_esn_builds_nested_generators_with_reduction():
    module, diags = parse_source(
        "kernel k(in A: f64[3,4], out y: f64[3]) { let y[i] =+ (k) A[i, k]; }"
    )
    assert not diags and not verify(module)
    assocs = _ops(module, "ekl.assoc")
    reduces = _ops(module, "ekl.reduce")
    assert len(assocs) == 2 and len(reduces) == 1
    outer, inner = assocs
    assert inner.parent is outer.body()
    init = reduces[0].attrs["init"]
    assert isinstance(init, RationalAttr) and init.value == Fraction(0)
    combiner = reduces[0].body()
    assert [op.kind for op in combiner.ops] == ["ekl.add", "ekl.yield"]


def test_outputs_emit_output_ops():
    module, diags = parse_source(
        "kernel k(in a: f64, out y: f64, out z: f64) { let y = a; let z = a + a; }"
    )
    assert not diags
    outs = _ops(module, "ekl.output")
    assert [op.attrs["name"].value for op in outs] == ["y", "z"]
    assert all(op.attrs["type"].value == F64 for op in outs)


def test_constant_expression_extents_fold():
    module, diags = parse_source(
        "kernel k(in a: f64[2 + 3], out y: f64[5]) { let y[i] = a[i]; }"
    )
    assert not diags
    kernel = module.body().ops[0]
    assert kernel.body().args[0].type == ArrayType(F64, (5,))


def test_bad_extent_is_reported():
    _, diags = parse_source("kernel k(in a: f64[1 - 2], out y: f64) { let y = a[0]; }")
    assert any(d.severity == "error" for d in diags)


def test_extent_dividing_by_zero_is_reported():
    _, diags = parse_source("kernel k(in a: f64[1 / 0], out y: f64) { let y = a[0]; }")
    notes = [n.message for d in diags for n in d.notes]
    assert len(notes) == 1 and notes[0].endswith("1:22: division by zero")


def test_pseudo_subscripts_parse():
    module, diags = parse_source(
        "kernel k(in A: f64[2,3], out y: f64[2,3]) { let y = A[:, ...]; }"
    )
    assert not diags
    lits = [
        op
        for op in walk_lexical(module)
        if op.kind == "ekl.literal"
        and getattr(op.attrs["value"], "value", None) in (":", "...")
    ]
    assert len(lits) == 2


def test_if_statement_creates_two_regions():
    module, diags = parse_source(
        """
kernel k(in c: bool, in a: f64, out y: f64) {
  if (c) { let y = a; } else { let y = a + a; }
}
"""
    )
    assert not diags
    ifs = _ops(module, "ekl.if_stmt")
    assert len(ifs) == 1 and len(ifs[0].regions) == 2


def test_error_recovery_continues_past_bad_statement():
    _, diags = parse_source(
        """
kernel k(in a: f64, out y: f64) {
  let = broken;
  let y = a;
}
"""
    )
    assert any(d.severity == "error" for d in diags)
    # Recovery must not cascade into the following well-formed statement.
    assert len([d for d in diags if d.severity == "error"]) == 1


def test_undefined_name_is_reported_once():
    _, diags = parse_source("kernel k(in a: f64, out y: f64) { let y = nosuch + a; }")
    assert any("nosuch" in d.message for d in diags)


def test_corpus_files_parse_clean():
    for name in (
        "taumol_sw.ekl",
        "inv_helm.ekl",
        "elliptic_r.ekl",
        "elliptic_d.ekl",
        "convection.ekl",
    ):
        module, diags = parse_source(corpus_source(name), name)
        assert not diags, (name, [str(d) for d in diags])
        assert not verify(module), name
