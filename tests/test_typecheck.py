from __future__ import annotations

import numpy as np
import pytest

from conftest import corpus_source
from eklc.ir import count_ops, walk_lexical
from eklc.parser import parse_source
from eklc.typecheck import (
    BoundKind,
    FixPointTypeChecker,
    run_fixpoint,
    type_check,
    verify_semantic,
)
from eklc.types import EXPR, F32, F64, ArrayType, IndexType
from util_random import random_module


def _checked(src):
    module, diags = parse_source(src)
    assert not diags, [str(d) for d in diags]
    _, tdiags = type_check(module)
    return module, tdiags


def test_simple_kernel_types_fully():
    module, diags = _checked(
        "kernel k(in a: f64[3], out y: f64[3]) { let y[i] = a[i] * 2; }"
    )
    assert not diags
    for op in walk_lexical(module):
        for r in op.results:
            assert r.type != EXPR, op.kind


def test_index_bounds_deduced_from_uses():
    module, diags = _checked(
        "kernel k(in A: f64[3,5], out y: f64[3]) { let y[i] =+ (k) A[i, k]; }"
    )
    assert not diags
    assocs = [op for op in walk_lexical(module) if op.kind == "ekl.assoc"]
    outer, inner = assocs
    assert outer.body().args[0].type == IndexType(3)
    assert inner.body().args[0].type == IndexType(5)


def test_index_addition_widens_the_bound():
    module, diags = _checked(
        "kernel k(in j: index<4>[6], in T: f64[5], in W: f64[2], out y: f64[6]) "
        "{ let y[x] =+ (d) T[j[x] + d] * W[d]; }"
    )
    assert not diags
    adds = [op for op in walk_lexical(module) if op.kind == "ekl.add"]
    gather_add = [op for op in adds if op.result.uses and op.result.uses[0][0].kind == "ekl.subscript"]
    assert gather_add and gather_add[0].result.type == IndexType(5)


def test_contradiction_reports_bounds():
    module, diags = parse_source(
        "kernel k(in x: f64[4], out y: f64[4]) { let y[i] = x[i + 1]; }"
    )
    assert not diags
    _, tdiags = type_check(module)
    errs = [d for d in tdiags if d.severity == "error"]
    assert errs and "bound" in errs[0].message


def test_rational_literals_adapt_to_context():
    module, diags = _checked(
        "kernel k(in a: f32[2], out y: f32[2]) { let y[i] = a[i] + 1/2; }"
    )
    assert not diags
    adds = [op for op in walk_lexical(module) if op.kind == "ekl.add"]
    assert adds[0].result.type == F32


def test_golden_types_of_major_absorber_corpus_kernel():
    module, diags = parse_source(corpus_source("taumol_sw.ekl"), "taumol_sw.ekl")
    assert not diags
    _, tdiags = type_check(module)
    assert not tdiags, [str(d) for d in tdiags]
    kernel = module.body().ops[0]
    outs = [op for op in walk_lexical(kernel) if op.kind == "ekl.output"]
    tau_maj = next(op for op in outs if op.attrs["name"].value == "tau_maj")
    assert tau_maj.operands[0].type == ArrayType(F32, (14, 60, 16))
    # The reduction functor inside the major-absorber statement produces a
    # 2x2x2 stencil of f32 values, one scalar f32 per stencil point.
    producing = tau_maj.operands[0].owner
    assert producing.kind == "ekl.assoc"
    inner = [op for op in producing.body().ops if op.kind == "ekl.assoc"]
    assert inner and inner[0].result.type == ArrayType(F32, (2, 2, 2))
    yields = inner[0].body().ops[-1]
    assert yields.kind == "ekl.yield" and yields.operands[0].type == F32


def test_verify_semantic_clean_after_check():
    module, diags = _checked(corpus_source("convection.ekl"))
    assert not diags
    assert verify_semantic(module) == []


def test_iteration_ceiling_scales_with_module_size():
    module, _ = parse_source("kernel k(in a: f64, out y: f64) { let y = a; }")
    checker = FixPointTypeChecker(module)
    assert checker.iteration_ceiling == 32 * count_ops(module) + 64


def test_iteration_ceiling_is_an_error_diagnostic():
    module, _ = parse_source("kernel k(in a: f64, out y: f64) { let y = a * 2; }")
    checker = FixPointTypeChecker(module, iteration_ceiling=1)
    assert checker.run() is False
    assert checker.state.iterations == 1
    (diag,) = checker.diagnostics
    assert diag.severity == "error" and diag.location == module.location
    assert "iteration ceiling (1)" in diag.message


def test_fixpoint_terminates_on_random_modules_within_ceiling():
    rng = np.random.default_rng(99)
    for _ in range(30):
        module = random_module(rng, n_ops=int(rng.integers(10, 120)))
        checker = run_fixpoint(module)
        assert not checker.diagnostics
        assert checker.state.iterations <= checker.iteration_ceiling


def test_bound_kinds_are_ordered():
    assert BoundKind.UPPER.value < BoundKind.LOWER.value
    assert BoundKind.LOWER.value < BoundKind.EQUIVALENT.value
    assert BoundKind.EQUIVALENT.value < BoundKind.UNATTAINABLE.value
