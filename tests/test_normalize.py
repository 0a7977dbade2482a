from __future__ import annotations

import glob
import os
from fractions import Fraction

import numpy as np
import pytest

from conftest import corpus_path, corpus_source
from eklc.interp import eval_module, eval_ast_oracle, kernels_of, random_inputs
from eklc.ir import RationalAttr, verify, walk_lexical
from eklc.ir_text import print_ir
from eklc.normalize import _licm, simplify
from eklc.pipeline import compile_all_stages, compile_source
from eklc.types import ArrayType


def _stage(src, stage):
    result = compile_source(src, "t.ekl", stage=stage)
    assert result.ok, [str(d) for d in result.diagnostics]
    return result.module


def _kinds(module):
    return [op.kind for op in walk_lexical(module)]


def test_constant_subtrees_fold_to_single_literals():
    module = _stage(
        "kernel k(in a: f64, out y: f64) { let y = a * (2 * 3 / 4); }",
        "simplified",
    )
    arith = [k for k in _kinds(module) if k in ("ekl.mul", "ekl.div")]
    assert arith == ["ekl.mul"]
    folded = [
        op.attrs["value"].value
        for op in walk_lexical(module)
        if op.kind == "ekl.literal" and isinstance(op.attrs["value"], RationalAttr)
    ]
    assert Fraction(3, 2) in folded


def test_additive_and_multiplicative_identities_are_erased():
    module = _stage(
        "kernel k(in a: f64[3], out y: f64[3]) { let y[i] = (a[i] + 0) * 1; }",
        "simplified",
    )
    kinds = _kinds(module)
    assert "ekl.add" not in kinds and "ekl.mul" not in kinds


def test_dead_statements_are_removed():
    module = _stage(
        "kernel k(in a: f64, out y: f64) { let t = a + a; let y = a; }",
        "simplified",
    )
    assert "ekl.add" not in _kinds(module)


def test_mixed_kind_arithmetic_gets_explicit_casts():
    src = (
        "kernel k(in a: f32[2], in b: si16[2], out y: f32[2]) "
        "{ let y[i] = a[i] + b[i]; }"
    )
    typed = _stage(src, "typed")
    assert "ekl.cast" not in _kinds(typed)
    explicit = _stage(src, "explicit")
    assert "ekl.cast" in _kinds(explicit)
    assert not verify(explicit)


def test_pseudo_subscripts_are_expanded_away():
    def pseudo(module, marks):
        return [
            op
            for op in walk_lexical(module)
            if op.kind == "ekl.literal"
            and getattr(op.attrs["value"], "value", None) in marks
        ]

    # A read that keeps every axis whole is the source itself.
    identity = _stage(
        "kernel k(in A: f64[2,3], out y: f64[2,3]) { let y = A[:, ...]; }",
        "simplified",
    )
    assert "ekl.subscript" not in _kinds(identity)

    # A partial read keeps explicit full-axis slices but no ellipsis.
    explicit = _stage(
        "kernel k(in A: f64[2,3], out y: f64[3]) { let y = A[_1, ...]; }",
        "explicit",
    )
    assert not pseudo(explicit, ("...",))
    assert len(pseudo(explicit, (":",))) == 1


def test_generator_form_makes_bodies_scalar():
    src = "kernel k(in a: f64[3], in b: f64[3], out y: f64[3]) { let y = a + b; }"
    module = _stage(src, "generators")
    assocs = [op for op in walk_lexical(module) if op.kind == "ekl.assoc"]
    assert assocs
    for assoc in assocs:
        for op in assoc.body().ops:
            if op.kind in ("ekl.add", "ekl.mul", "ekl.sub", "ekl.div"):
                assert not isinstance(op.result.type, ArrayType)


def test_loop_invariant_scalar_products_are_hoisted():
    src = (
        "kernel k(in s: f64, in A: f64[4,3], out y: f64[4]) "
        "{ let y[i] =+ (k) s * s * A[i, k]; }"
    )
    module = _stage(src, "generators")
    kernel = module.body().ops[0]
    hoisted = [
        op
        for op in kernel.body().ops
        if op.kind == "ekl.mul"
        and all(o in kernel.body().args for o in op.operands)
    ]
    assert hoisted, "s * s should move out of the reduction body"


def test_every_stage_preserves_oracle_semantics():
    src = (
        "kernel k(in s: f64, in A: f64[3,4], in j: index<2>[3], out y: f64[3]) "
        "{ let y[i] =+ (k) (s + 1/2) * A[i, k] * A[i, j[i] + 1]; }"
    )
    stages, diags = compile_all_stages(src, "t.ekl")
    assert stages and not any(d.severity == "error" for d in diags)
    rng = np.random.default_rng(7)
    reference = stages["typed"]
    for seed in range(3):
        inputs = random_inputs(kernels_of(reference)[0], np.random.default_rng(seed))
        want = eval_ast_oracle(kernels_of(reference)[0], inputs)
        for name, module in stages.items():
            got, _ = eval_module(module, inputs)
            for out, expect in want.items():
                np.testing.assert_allclose(
                    np.asarray(got[out], dtype=float),
                    np.asarray(expect, dtype=float),
                    rtol=1e-12,
                    err_msg=f"stage {name} seed {seed} output {out}",
                )


_VALID_CORPUS = sorted(
    os.path.relpath(path, corpus_path())
    for pattern in ("*.ekl", os.path.join("mini", "*.ekl"))
    for path in glob.glob(corpus_path(pattern))
)
_NESTED_INVARIANT = (
    "kernel k(in A: f64[3, 4], in c: f64, out y: f64[3]) "
    "{ let y[i] =+ (j) A[i, j] * (c * c + 1); }"
)


@pytest.mark.parametrize("name", _VALID_CORPUS + ["nested_invariant"])
def test_one_walk_reaches_the_fix_point(name):
    src = _NESTED_INVARIANT if name == "nested_invariant" else corpus_source(name)
    module = compile_source(src, name, stage="generators").module
    before = print_ir(module)
    simplify(module)
    _licm(module)
    assert print_ir(module) == before
    if name == "nested_invariant":
        kernel_level = kernels_of(module)[0].body().ops
        assert any(
            op.kind == "ekl.mul" and op.operands[0] is op.operands[1]
            for op in kernel_level
        ), before
