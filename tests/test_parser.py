from __future__ import annotations

import os
import subprocess
import sys

import pytest

from conftest import corpus_source
from eklc.ir import verify, walk_lexical
from eklc.parser import parse_source
from eklc.types import EXPR, F64, RATIONAL, ArrayType, IndexType


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
    # A literal carries its type as its result type, from the parse on.
    (lit,) = _ops(module, "ekl.literal")
    assert lit.result.type == RATIONAL and list(lit.attrs) == ["value"]


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
    assert reduces[0].operands == [inner.result]
    assert not reduces[0].regions and not reduces[0].attrs


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
    notes = [n for d in diags for n in d.notes]
    assert len(notes) == 1 and notes[0].message == "division by zero"
    assert (notes[0].location.line, notes[0].location.col) == (1, 22)


def test_index_literal_extents_fold():
    for extent in ("_3", "_1 + 2"):
        module, diags = parse_source(
            f"kernel k(in a: f64[{extent}], out y: f64[3]) {{ let y[i] = a[i]; }}"
        )
        assert not diags, (extent, [str(d) for d in diags])
        assert module.body().ops[0].body().args[0].type == ArrayType(F64, (3,))
    _, diags = parse_source("kernel k(in a: f64[true], out y: f64) { let y = a[0]; }")
    assert [d.message for d in diags] == [
        "constant extent must be a non-negative integer, got True"
    ]


def test_whole_axis_and_ellipsis_slots_parse_into_an_attribute():
    module, diags = parse_source(
        "kernel k(in A: f64[2,3,4], in j: index<3>, out y: f64[2,4]) "
        "{ let y = A[:, j, ...]; }"
    )
    assert not diags and not verify(module)
    (sub,) = _ops(module, "ekl.subscript")
    assert sub.operands == module.body().ops[0].body().args
    assert sub.attrs["slots"].value == ":i."
    assert not _ops(module, "ekl.literal")
    # A read of indices only has no `slots`.
    module, _ = parse_source("kernel k(in A: f64[2], out y: f64) { let y = A[_1]; }")
    assert "slots" not in _ops(module, "ekl.subscript")[0].attrs


def test_star_is_not_a_subscript_slot():
    _, diags = parse_source(
        "kernel k(in A: f64[3], out y: f64[3]) { let y[i] = A[*]; }"
    )
    assert [d.message for d in diags] == ["expected an expression, found '*'"]


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


@pytest.mark.parametrize(
    "extent, expected",
    [
        ("2 + 3", 5),
        ("_3", 3),
        ("_1 + 2", 3),
        ("6/2", 3),
        ("-(-4)", 4),
        ("(2, 3)[_1]", 3),
        ("(2, 3, 4)[_0 + 1]", 3),
        ("if (1 < 2) 4 else 5", 4),
        ("(if (true) 2 else 3) + 1", 3),
        ("_120 + _120", 240),
        ("2 * _2", 4),
        ("0", 0),
        ("true", "constant extent must be a non-negative integer, got True"),
        ("1 - 2", "constant extent must be a non-negative integer, got -1"),
        ("5/2", "constant extent must be a non-negative integer, got 5/2"),
        ("x", "unknown name 'x'"),
        ("1 / 0", "t.ekl:1:22: division by zero"),
        ("_100 * 3", "t.ekl:1:25: value out of range for si8"),
        ("_200 * _200", "t.ekl:1:25: value out of range for si16"),
    ],
)
def test_constant_extents_fold_exactly(extent, expected):
    module, diags = parse_source(
        f"kernel k(in a: f64[{extent}], out y: f64) {{ let y = a[0]; }}", "t.ekl"
    )
    if isinstance(expected, int):
        assert not diags, [str(d) for d in diags]
        assert module.body().ops[0].body().args[0].type == ArrayType(F64, (expected,))
    else:
        assert len(diags) == 1, [str(d) for d in diags]
        messages = [diags[0].message]
        messages += [f"{n.location}: {n.message}" for n in diags[0].notes]
        assert messages[-1] == expected, messages


def test_compile_path_imports_no_numpy():
    code = (
        "import sys\n"
        "from eklc.pipeline import compile_source\n"
        "result = compile_source('kernel k(in a: f64[2 + 3], out y: f64[5]) "
        "{ let y[i] = a[i]; }', stage='optimized')\n"
        "assert result.ok, [str(d) for d in result.diagnostics]\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
