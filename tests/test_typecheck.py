from __future__ import annotations

import itertools
import os
import re

import numpy as np
import pytest

from conftest import corpus_path, corpus_source
from eklc.interp import eval_module
from eklc.ir import REGISTRY, Operation, count_ops, walk_lexical
from eklc.parser import parse_source
from eklc.pipeline import compile_source
from eklc.typecheck import (
    ContradictionError,
    FixPointTypeChecker,
    Interval,
    _fits,
    meet_into,
    run_fixpoint,
    type_check,
    verify_semantic,
)
from eklc.types import (
    BOOL,
    EXPR,
    F32,
    F64,
    RATIONAL,
    SI8,
    SI16,
    SI32,
    SI64,
    ArrayType,
    IndexType,
)
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
        assert op.result is None or op.result.type != EXPR, op.kind


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


def test_verify_semantic_reports_an_unchecked_module():
    module, diags = parse_source("kernel k(in a: f64[3], out y: f64[3]) { let y[i] = a[i]; }")
    assert not diags
    problems = verify_semantic(module)
    assert problems and all("module is not fully typed" in d.message for d in problems)


def test_iteration_ceiling_scales_with_module_size():
    module, _ = parse_source("kernel k(in a: f64, out y: f64) { let y = a; }")
    checker = FixPointTypeChecker(module)
    assert checker.iteration_ceiling == 32 * count_ops(module) + 64


def test_iteration_ceiling_is_an_error_diagnostic():
    module, _ = parse_source("kernel k(in a: f64, out y: f64) { let y = a * 2; }")
    checker = FixPointTypeChecker(module)
    checker.iteration_ceiling = 1
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


@pytest.mark.parametrize(
    "lo, hi, t, exact, message",
    [
        (None, SI8, SI16, True, "lower bound si16 exceeds upper bound si8"),
        (SI16, None, SI8, False, "lower bound si16 exceeds upper bound si8"),
        (None, F32, SI32, False, "incomparable upper bounds si32 and f32"),
        (SI32, None, F32, True, "incompatible bounds lower(f32) and lower(si32)"),
    ],
)
def test_meet_into_reports_each_conflict(lo, hi, t, exact, message):
    interval = Interval(lo, hi)
    with pytest.raises(ContradictionError) as exc:
        meet_into(interval, t, exact)
    assert exc.value.message == message


# Scalars and arrays over which `meet_into` is checked exhaustively.
MEET_TYPES = [
    BOOL, SI8, SI16, SI32, F32, F64, RATIONAL, IndexType(3), IndexType(8),
    ArrayType(SI8, (2,)), ArrayType(F32, (2,)), ArrayType(F64, (2,)),
    ArrayType(RATIONAL, (2,)), ArrayType(F64, (3,)), ArrayType(IndexType(4), (2,)),
    EXPR,
]


def test_a_successful_meet_leaves_lower_fitting_upper():
    """Over every interval whose lower sample fits its upper one, every
    type and both deductions: a meet that succeeds keeps lower fitting
    upper, and an exact one leaves the interval collapsed on its type."""
    samples = [None] + MEET_TYPES
    for lo, hi in itertools.product(samples, samples):
        if lo is not None and hi is not None and not _fits(lo, hi):
            continue
        for t, exact in itertools.product(MEET_TYPES, (True, False)):
            interval = Interval(lo, hi)
            try:
                changed = meet_into(interval, t, exact)
            except ContradictionError:
                continue
            assert changed == ((interval.lo, interval.hi) != (lo, hi))
            if interval.lo is not None and interval.hi is not None:
                assert _fits(interval.lo, interval.hi), (lo, hi, t, exact)
            if exact:
                assert interval.lo is t and interval.hi is t, (lo, hi, t)


# Every scalar kind, `index<1..9>`, and arrays of each over small shapes,
# rank 0 included (`parse_ir` can build one; the parser cannot).
_SCALARS = [BOOL, SI8, SI16, SI32, SI64, F32, F64, RATIONAL] + [IndexType(b) for b in range(1, 10)]
FIT_UNIVERSE = (
    _SCALARS
    + [ArrayType(s, shape) for s in _SCALARS for shape in ((), (1,), (2,), (3,), (2, 3), (3, 2))]
    + [EXPR]
)


def test_no_two_types_fit_each_other_both_ways():
    """`_fits` is antisymmetric, so an interval collapsed on one type can
    never tighten: a meet into it changes nothing or is a contradiction.
    This is why the checker records no reader of an exact value."""
    for t, u in itertools.product(FIT_UNIVERSE, FIT_UNIVERSE):
        assert t is u or not (_fits(t, u) and _fits(u, t)), (t, u)
    for t, u, exact in itertools.product(FIT_UNIVERSE, FIT_UNIVERSE, (True, False)):
        interval = Interval(t, t)
        try:
            changed = meet_into(interval, u, exact)
        except ContradictionError:
            continue
        assert not changed and interval.lo is t and interval.hi is t, (t, u, exact)


@pytest.mark.parametrize(
    "body, message",
    [
        ("let y[i] = A[i, 5];", "constant subscript 5 on axis 1 is not an integer in [0, 4)"),
        ("let y[i] = A[i, -1];", "constant subscript -1 on axis 1 is not an integer in [0, 4)"),
        ("let y[i] = A[i, 2 * 2];", "constant subscript 4 on axis 1 is not an integer in [0, 4)"),
        ("let y[i] = (a, a, a)[3];", "constant subscript 3 on axis 0 is not an integer in [0, 3)"),
        ("let y[i] = (a, a, a)[2.5];", "constant subscript 5/2 on axis 0 is not an integer in [0, 3)"),
        ("let y[i] = A[i, 8 / 2];", "constant subscript 4 on axis 1 is not an integer in [0, 4)"),
        ("let y[i] = A[i, r];", "rational subscript on axis 1 is not a constant"),
        ("let y[i] = A[i, 1 / 0];", "rational subscript on axis 1 is not a constant"),
    ],
)
def test_constant_subscript_slots_are_proven_in_range(body, message):
    src = (
        "kernel k(in A: f64[4, 4], in a: f64, in r: rational, out y: f64[4]) {\n"
        f"  {body}\n}}"
    )
    _, diags = _checked(src)
    assert len(diags) == 1 and diags[0].message.startswith(message), [str(d) for d in diags]
    assert diags[0].location.line == 2


@pytest.mark.parametrize(
    "body, expected",
    [
        ("let y[i] = A[i, 3];", lambda A, a, b, c: A[:, 3]),
        ("let y[i] = A[i, 2 - 1];", lambda A, a, b, c: A[:, 1]),
        ("let y[i] = A[i, -1 + 3/2 * 2];", lambda A, a, b, c: A[:, 2]),
        ("let y[i] = A[i, 4 / 2];", lambda A, a, b, c: A[:, 2]),
        ("let y[i] = (a, b, c)[2];", lambda A, a, b, c: np.full(4, c)),
    ],
)
def test_in_range_constant_subscript_slots_compile(body, expected):
    src = (
        "kernel k(in A: f64[4, 4], in a: f64, in b: f64, in c: f64, out y: f64[4]) {\n"
        f"  {body}\n}}"
    )
    result = compile_source(src, "t.ekl")
    assert not result.diagnostics, [str(d) for d in result.diagnostics]
    A = np.arange(16.0).reshape(4, 4)
    outputs, _ = eval_module(result.module, {"A": A, "a": 1.0, "b": 2.0, "c": 3.0})
    np.testing.assert_array_equal(outputs["y"], expected(A, 1.0, 2.0, 3.0))


@pytest.mark.parametrize("element", ["bool", "index<4>"])
def test_a_sum_of_values_that_cannot_be_added_is_refused(element):
    """Bools are not arithmetic, and a sum of `index<N>` values reaches
    past N when N > 1."""
    src = f"kernel k(in a: {element}[3], out y: si64[1]) {{\n  let y[i] =+ (k) a[k];\n}}"
    _, diags = _checked(src)
    assert [d.message for d in diags] == [f"cannot sum values of type {element}"]
    assert (diags[0].location.line, diags[0].location.col) == (2, 3)


def test_a_sum_of_index_one_values_compiles():
    result = compile_source(
        "kernel k(in a: index<1>[3], out y: si64[1]) { let y[i] =+ (k) a[k]; }", "t.ekl"
    )
    assert not result.diagnostics, [str(d) for d in result.diagnostics]
    outputs, _ = eval_module(result.module, {"a": np.zeros(3, dtype=np.int64)})
    np.testing.assert_array_equal(outputs["y"], [0])


INVALID = sorted(os.listdir(corpus_path("invalid")))


@pytest.mark.parametrize("name", INVALID)
def test_each_invalid_kernel_reports_one_error(name):
    result = compile_source(corpus_source("invalid", name), name, stage="typed")
    errors = [d for d in result.diagnostics if d.severity == "error"]
    assert len(errors) == 1, [str(d) for d in errors]


# Iterations of the fix-point checker on each valid corpus kernel, and on
# one module that holds all of them.
CORPUS_ITERATIONS = {
    "convection.ekl": 314,
    "elliptic_d.ekl": 71,
    "elliptic_r.ekl": 56,
    "inv_helm.ekl": 16,
    "taumol_sw.ekl": 96,
    "mini/convection_l5.ekl": 40,
    "mini/taumol_small.ekl": 25,
}
MODULE_ITERATIONS = 618
# Iterations on each invalid corpus kernel, which stops with one error.
INVALID_ITERATIONS = {
    "oob_01.ekl": 9,
    "oob_02.ekl": 5,
    "oob_03.ekl": 6,
    "oob_04.ekl": 8,
    "oob_05.ekl": 2,
    "oob_06.ekl": 7,
    "oob_07.ekl": 9,
    "oob_08.ekl": 5,
    "oob_09.ekl": 8,
    "oob_10.ekl": 4,
    "oob_11.ekl": 8,
    "oob_12.ekl": 12,
    "oob_13.ekl": 15,
    "oob_14.ekl": 5,
    "oob_15.ekl": 2,
    "oob_16.ekl": 13,
    "oob_17.ekl": 10,
    "oob_18.ekl": 13,
    "oob_19.ekl": 10,
    "oob_20.ekl": 9,
}


def _corpus_module(name: str):
    """A valid corpus kernel, or with `module` all of them in one module."""
    if name == "module":
        parts = [
            re.sub(r"\bkernel\s+(\w+)", rf"kernel \1_m{i}", corpus_source(*k.split("/")))
            for i, k in enumerate(CORPUS_ITERATIONS)
        ]
        source = "\n".join(parts)
    else:
        source = corpus_source(*name.split("/"))
    module, diags = parse_source(source, name)
    assert not diags
    return module


@pytest.mark.parametrize(
    "name",
    sorted(CORPUS_ITERATIONS) + ["module"] + [f"invalid/{k}" for k in sorted(INVALID_ITERATIONS)],
)
def test_corpus_iteration_counts_are_pinned(name):
    module = _corpus_module(name)
    invalid = name.startswith("invalid/")
    if invalid:
        expected = INVALID_ITERATIONS[name.removeprefix("invalid/")]
    else:
        expected = MODULE_ITERATIONS if name == "module" else CORPUS_ITERATIONS[name]
    checker = run_fixpoint(module)
    assert len(checker.diagnostics) == (1 if invalid else 0)
    assert checker.state.iterations == expected


@pytest.mark.parametrize("name", sorted(CORPUS_ITERATIONS) + ["module"])
def test_a_rule_that_reads_no_value_runs_once(name, monkeypatch):
    """Only a tightened value that a rule read re-runs the rule, so a rule
    that reads no bound (an output's) runs exactly once; a literal is
    typed from the parse and has no rule."""
    runs: dict[Operation, int] = {}
    reads: dict[Operation, int] = {}
    for kind in sorted(REGISTRY):
        sig = REGISTRY[kind]
        if sig.typing_rule is None:
            continue

        def counted(op, ctx, rule=sig.typing_rule):
            runs[op] = runs.get(op, 0) + 1
            rule(op, ctx)
            reads[op] = reads.get(op, 0) + len(ctx.reads)

        monkeypatch.setattr(sig, "typing_rule", counted)
    checker = run_fixpoint(_corpus_module(name))
    assert not checker.diagnostics
    blind = [op for op in runs if reads[op] == 0]
    assert not any(op.kind == "ekl.literal" for op in runs)
    assert all(reads[op] == 0 for op in runs if op.kind == "ekl.output")
    assert any(op.kind == "ekl.output" for op in blind)
    assert all(runs[op] == 1 for op in blind), sorted(
        {op.kind for op in blind if runs[op] > 1}
    )
    assert sum(runs.values()) == checker.state.iterations
