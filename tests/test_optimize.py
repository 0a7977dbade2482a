from __future__ import annotations

import os
import re

import numpy as np
import pytest

from conftest import TESTS_DIR, corpus_source
from eklc.interp import eval_module, kernels_of, random_inputs
from eklc.ir import Block, Operation, clone_op, walk_lexical
from eklc.ir_text import print_ir
from eklc.optimize import fuse_producers, lift_reductions
from eklc.pipeline import compile_source
from eklc.typecheck import verify_semantic

SUMFACT = """
kernel sumfact(
  in S: rational[4, 4],
  in u: rational[4, 4, 4],
  out t: rational[4, 4, 4]
) {
  let t[i, j, k] =+ (l, m, n) S[l, i] * S[m, j] * S[n, k] * u[l, m, n];
}
"""


def _compiled(src, stage="optimized", **kw):
    result = compile_source(src, "t.ekl", stage=stage, **kw)
    assert result.ok, [str(d) for d in result.diagnostics]
    return result.module


def _kinds(module):
    return [op.kind for op in walk_lexical(module)]


def test_reduction_lifting_factors_the_triple_sum():
    naive = _compiled(SUMFACT, stage="generators")
    lifted = _compiled(SUMFACT)
    inputs = random_inputs(
        kernels_of(naive)[0], np.random.default_rng(11)
    )
    out_n, c_n = eval_module(naive, inputs)
    out_l, c_l = eval_module(lifted, inputs)
    # 64 outputs x 64 reduction points x 3 multiplies each.
    assert c_n.multiplies == 12288
    # Three single-axis contractions of 64 elements with one multiply each,
    # plus the element-wise combination passes.
    assert c_l.multiplies == 768
    assert np.array_equal(out_n["t"], out_l["t"])  # exact rationals


def test_lifting_preserves_float_semantics_only_under_fast_math():
    src = SUMFACT.replace("rational", "f64")
    default = _compiled(src)
    fast = _compiled(src, fast_math=True)
    # Reassociating a float sum needs an explicit opt-in.
    inputs = random_inputs(kernels_of(default)[0], np.random.default_rng(3))
    _, c_default = eval_module(default, inputs)
    _, c_fast = eval_module(fast, inputs)
    assert c_default.multiplies == 12288
    assert c_fast.multiplies == 768


def test_lifted_module_still_checks():
    lifted = _compiled(SUMFACT)
    assert verify_semantic(lifted) == []


def test_single_use_producers_are_fused():
    src = (
        "kernel k(in x: f64[8], out y: f64[8]) "
        "{ let a[i] = x[i] * 2; let y[i] = a[i] + 1; }"
    )
    fused = _compiled(src)
    unfused = _compiled(src, stage="generators")
    assert _kinds(fused).count("ekl.assoc") < _kinds(unfused).count("ekl.assoc")
    inputs = random_inputs(kernels_of(fused)[0], np.random.default_rng(5))
    out_f, _ = eval_module(fused, inputs)
    out_u, _ = eval_module(unfused, inputs)
    np.testing.assert_array_equal(out_f["y"], out_u["y"])


def test_conditional_expressions_become_choices():
    src = (
        "kernel k(in c: bool, in a: f64, in b: f64, out y: f64) "
        "{ let y = if (c) a else b; }"
    )
    module = _compiled(src)
    kinds = _kinds(module)
    assert "ekl.choice" in kinds and "ekl.if" not in kinds


def test_constant_conditions_dissolve():
    src = (
        "kernel k(in a: f64, in b: f64, out y: f64) "
        "{ let y = if (true) a else b; }"
    )
    module = _compiled(src)
    kinds = _kinds(module)
    assert "ekl.choice" not in kinds and "ekl.if" not in kinds


def test_inexact_rational_constants_warn_when_narrowed():
    result = compile_source(
        "kernel k(in a: f32, out y: f32) { let y = a + 1/3; }",
        "t.ekl",
        stage="optimized",
    )
    assert result.ok
    assert any("1/3" in w.message for w in result.warnings)


@pytest.mark.parametrize(
    "kind, constant",
    [("f64", "1e400"), ("f32", "1e39"), ("si8", "300"), ("si32", "-5000000000")],
)
def test_out_of_range_rational_constants_warn_that_they_trap(kind, constant):
    result = compile_source(
        f"kernel k(in a: {kind}, out y: {kind}) {{ let y = a + {constant}; }}",
        "t.ekl",
        stage="optimized",
    )
    assert result.ok
    assert [w.message for w in result.warnings] == [
        f"rational constant is out of range for {kind}; evaluating it traps"
    ]


def test_exact_rational_constants_lower_silently():
    result = compile_source(
        "kernel k(in a: f32, out y: f32) { let y = a + 1/2; }",
        "t.ekl",
        stage="optimized",
    )
    assert result.ok and not result.warnings
    assert "ekl.cast" not in _kinds(result.module)


def test_corpus_kernels_survive_full_optimization():
    for name in (
        "taumol_sw.ekl",
        "inv_helm.ekl",
        "elliptic_r.ekl",
        "elliptic_d.ekl",
        "convection.ekl",
    ):
        result = compile_source(corpus_source(name), name, stage="optimized")
        assert result.ok, (name, [str(d) for d in result.diagnostics])
        assert verify_semantic(result.module) == [], name


def test_each_kernel_of_a_module_optimizes_as_it_does_alone():
    names = (
        "taumol_sw.ekl",
        "inv_helm.ekl",
        "elliptic_r.ekl",
        "elliptic_d.ekl",
        "convection.ekl",
        "mini/taumol_small.ekl",
        "mini/convection_l5.ekl",
    )
    sources = [
        re.sub(r"\bkernel\s+(\w+)", rf"kernel \1_{copy}", corpus_source(name))
        for copy in range(4)
        for name in names
    ]
    module = _compiled("\n".join(sources))
    # The walk left nothing fusable behind.
    text = print_ir(module)
    assert print_ir(fuse_producers(module)) == text
    kernels = kernels_of(module)
    assert len(kernels) == len(sources)
    for source, kernel in zip(sources, kernels):
        program = Operation("ekl.program", regions=[Block()])
        program.body().append(clone_op(kernel, {}))
        assert print_ir(program) == print_ir(_compiled(source)), source[:40]


@pytest.mark.parametrize(
    "name,stage", [("elliptic_r", "optimized"), ("taumol_sw", "generators")]
)
def test_generator_and_optimized_dumps_are_pinned(name, stage):
    """Lifted tables and sums, scalarized generators, casts and
    subscripts print exactly as in `golden/<name>.<stage>.eklir`."""
    text = print_ir(_compiled(corpus_source(f"{name}.ekl"), stage=stage))
    with open(os.path.join(TESTS_DIR, "golden", f"{name}.{stage}.eklir")) as f:
        assert text == f.read()


def test_lifting_declines_a_nest_that_peeling_cannot_shrink():
    # One bound index that every factor of every summand reads: peeling
    # would hoist a table equal to the nest itself.
    src = (
        "kernel k(in A: rational[3, 4], in B: rational[4, 3], out y: rational[3]) "
        "{ let y[i] =+ (k) A[i, k] * B[k, i] - A[i, k]; }"
    )
    module = _compiled(src, stage="generators")
    before = print_ir(module)
    lift_reductions(module)
    assert print_ir(module) == before
