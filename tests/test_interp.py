from __future__ import annotations

import functools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import eklc.interp as interp
from conftest import corpus_source
from eklc.interp import (
    BoundsTrap,
    EvalError,
    eval_ast_oracle,
    eval_kernel,
    eval_module,
    kernels_of,
    random_inputs,
)
from eklc.ir_text import parse_ir
from eklc.pipeline import STAGES, compile_all_stages, compile_source


def _module(src, stage="generators", **kw):
    result = compile_source(src, "t.ekl", stage=stage, **kw)
    assert result.ok, [str(d) for d in result.diagnostics]
    return result.module


def test_counters_match_the_element_at_a_time_model():
    module = _module(
        "kernel k(in A: f64[3,4], out y: f64[3]) { let y[i] =+ (k) A[i, k] * 2; }"
    )
    inputs = random_inputs(kernels_of(module)[0], np.random.default_rng(0))
    out, counters = eval_module(module, inputs)
    # 12 reduction points, one multiply each; the running sum adds one per
    # point; gather reads one element per point.
    assert counters.multiplies == 12
    assert counters.adds == 12
    assert counters.gather_reads == 12


def test_out_of_range_index_input_traps():
    module = _module(
        "kernel k(in j: index<4>[2], in T: f64[4], out y: f64[2]) "
        "{ let y[i] = T[j[i]]; }"
    )
    good = {"j": np.array([0, 3]), "T": np.arange(4.0)}
    out, _ = eval_module(module, good)
    np.testing.assert_array_equal(out["y"], [0.0, 3.0])
    with pytest.raises(BoundsTrap):
        eval_module(module, {"j": np.array([0, 4]), "T": np.arange(4.0)})
    with pytest.raises(BoundsTrap):
        eval_module(module, {"j": np.array([-1, 0]), "T": np.arange(4.0)})


def test_an_out_of_range_input_trap_names_the_input():
    module = _module("kernel k(in j: index<4>, out y: si64) { let y = j; }")
    with pytest.raises(BoundsTrap, match=r"^input 'j': value out of range for index<4>$"):
        eval_module(module, {"j": 4})


def test_grid_evaluation_matches_the_oracle_and_the_element_count():
    src = (
        "kernel k(in A: f64[4,5], in j: index<3>[4], in s: rational, "
        "out y: f64[4]) "
        "{ let y[i] =+ (k) (A[i, k] + A[i, j[i] + 1]) * s; }"
    )
    module = _module(src, stage="optimized")
    inputs = random_inputs(kernels_of(module)[0], np.random.default_rng(42))
    out, counters = eval_module(module, inputs)
    want = eval_ast_oracle(kernels_of(_module(src, stage="typed"))[0], inputs)
    np.testing.assert_array_equal(out["y"], want["y"])
    # Counted one element at a time: 4 x 5 products, 4 x 5 sums for each
    # of the two adds and the reduction, 2 x 20 + 4 reads of A and j, and
    # the 4 x 5 summand grid plus the 4 results.
    assert counters.as_dict() == {
        "multiplies": 20,
        "adds": 60,
        "comparisons": 0,
        "gather_reads": 44,
        "intermediate_elements": 24,
    }


def test_instrumented_evaluator_matches_the_oracle():
    src = (
        "kernel k(in a: f32[3], in b: si16[3], out y: f32[3], out z: f64) "
        "{ let y[i] = a[i] * b[i] + 1/4; let z = a[_0] - b[_2]; }"
    )
    module = _module(src, stage="optimized")
    kernel = kernels_of(module)[0]
    oracle_module = _module(src, stage="typed")
    for seed in range(5):
        inputs = random_inputs(kernel, np.random.default_rng(seed))
        got, _ = eval_module(module, inputs)
        want = eval_ast_oracle(kernels_of(oracle_module)[0], inputs)
        for name in want:
            np.testing.assert_allclose(
                np.asarray(got[name], dtype=float),
                np.asarray(want[name], dtype=float),
                rtol=1e-6,
            )


def test_rational_evaluation_is_exact():
    module = _module(
        "kernel k(in a: rational[3], out y: rational[1]) "
        "{ let y[o] =+ (i) a[i] / 3; }",
        stage="optimized",
    )
    thirds = np.array([Fraction(1, 7), Fraction(2, 7), Fraction(4, 7)], dtype=object)
    out, _ = eval_module(module, {"a": thirds})
    assert out["y"][0] == Fraction(1, 3)


def test_interpolated_flux_kernel_on_unit_inputs():
    module = _module(
        corpus_source("mini/convection_l5.ekl"), stage="optimized"
    )
    kernel = kernels_of(module)[0]
    inputs = {}
    block = kernel.body()
    for i, arg in enumerate(block.args):
        name = kernel.attrs[f"in{i}"].value
        shape = arg.type.shape
        inputs[name] = np.full(shape, Fraction(1), dtype=object)
    out, _ = eval_module(module, inputs)
    for name, arr in out.items():
        flat = np.asarray(arr, dtype=object).ravel()
        assert all(v == Fraction(24) for v in flat), name


def test_random_inputs_follow_declared_ranges():
    module = _module(
        "kernel k(in f: f64[50], in s: si32[50], in j: index<6>[50], "
        "in q: rational[20], in b: bool[10], out y: f64) { let y = f[_0]; }"
    )
    kernel = kernels_of(module)[0]
    rng = np.random.default_rng(123)
    inputs = random_inputs(kernel, rng)
    assert ((inputs["f"] >= -1.0) & (inputs["f"] <= 1.0)).all()
    assert ((inputs["s"] >= -1000) & (inputs["s"] <= 1000)).all()
    assert ((inputs["j"] >= 0) & (inputs["j"] < 6)).all()
    assert inputs["b"].dtype == bool
    for v in inputs["q"]:
        assert isinstance(v, Fraction)
        assert abs(v.numerator) <= 100 * 100 and v.denominator <= 100

    # Seeded generation is reproducible.
    again = random_inputs(kernel, np.random.default_rng(123))
    np.testing.assert_array_equal(inputs["f"], again["f"])


def test_a_reused_grid_value_is_not_overwritten():
    # %6 feeds both %7 and %8, so computing %7 must not reuse %6's array.
    module = parse_ir(
        """
ekl.program (
{
  ekl.kernel (
  {
  ^(%0: array<f64[3]>, %1: array<f64[3]>):
    %2 = ekl.assoc (
    {
    ^(%3: index<3>):
      %4 = ekl.subscript(%0, %3) : f64
      %5 = ekl.subscript(%1, %3) : f64
      %6 = ekl.mul(%4, %5) : f64
      %7 = ekl.mul(%6, %5) : f64
      %8 = ekl.add(%7, %6) : f64
      ekl.yield(%8)
    }
    ) : array<f64[3]>
    ekl.output(%2) {name = "y", type = array<f64[3]>}
  }
  ) {in0 = "a", in1 = "b", name = "k", out0 = "y", out0_type = array<f64[3]>}
}
)
"""
    )
    kernel = kernels_of(module)[0]
    inputs = {"a": np.array([1.0, 2.0, 3.0]), "b": np.array([2.0, 3.0, 4.0])}
    outputs, _ = eval_kernel(kernel, inputs)
    np.testing.assert_array_equal(outputs["y"], [6.0, 24.0, 60.0])


# Layouts the grid evaluator must get right: sources that vary with the
# grid, `:` and `...` slots, a rational literal as an index slot, stacks
# inside a generator, whole-array ops over the empty grid, and an if
# statement.
_LAYOUT_KERNELS = {
    "slice_of_a_grid_value": "kernel k(in A: f64[3,4], out y: f64[3,4]) "
    "{ let y[i, j] = A[i, :][j]; }",
    "stack_f64": "kernel k(in a: f64[5], in b: f64[5], in s: index<2>[5], "
    "out y: f64[5]) { let y[i] = (a[i], b[i])[s[i]]; }",
    "stack_rational": "kernel k(in a: rational[5], in b: rational[5], "
    "in s: index<2>[5], out y: rational[5]) { let y[i] = (a[i], b[i])[s[i]]; }",
    "whole_array_slice": "kernel k(in A: rational[2,3,4], out y: rational[2,3,4]) "
    "{ let y = A[:, ...]; }",
    "ellipsis_then_index": "kernel k(in A: f64[3,4,5], out y: f64[3,5]) "
    "{ let y[i, l] =+ (j) A[i, ...][j, l]; }",
    "whole_array_arith": "kernel k(in a: f64[4], in b: f64[4], out y: f64[4]) "
    "{ let y = a + b * 2; }",
    "rational_literal_slot": "kernel k(in A: f64[3,4], out y: f64[3]) "
    "{ let y[i] = A[i, 1]; }",
    "if_statement": "kernel k(in c: si32, in A: rational[3,4], out q: rational) "
    "{ if (c > 0) { out q = A[_0, _1]; } else { out q = A[_1, _0] + 1; } }",
}


@pytest.mark.parametrize("name", sorted(_LAYOUT_KERNELS))
def test_grid_layouts_match_the_oracle_at_every_stage(name):
    stages, diags = compile_all_stages(_LAYOUT_KERNELS[name], "t.ekl")
    assert stages, [str(d) for d in diags]
    kernel = kernels_of(stages["typed"])[0]
    for seed in range(4):
        inputs = random_inputs(kernel, np.random.default_rng(seed))
        want = eval_ast_oracle(kernel, inputs)
        for stage, module in stages.items():
            got, _ = eval_module(module, inputs)
            for out in want:
                np.testing.assert_array_equal(
                    got[out], want[out], err_msg=f"{stage}, seed {seed}"
                )


def _sumfact(n, scalar):
    return (
        f"kernel sumfact(in S: {scalar}[{n}, {n}], in u: {scalar}[{n}, {n}, {n}], "
        f"out t: {scalar}[{n}, {n}, {n}]) "
        "{ let t[i, j, k] =+ (l, m, n) S[l, i] * S[m, j] * S[n, k] * u[l, m, n]; }"
    )


def test_a_float_reduction_folds_one_slab_at_a_time(monkeypatch):
    kernel = kernels_of(_module(_sumfact(12, "f64"), "optimized"))[0]
    inputs = random_inputs(kernel, np.random.default_rng(0))
    tracemalloc.start()
    try:
        _, counters = eval_kernel(kernel, inputs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The whole 12**6 summand grid alone would take 23.9 MB.
    assert peak < 8_000_000
    assert counters.multiplies == 3 * 12**6

    small = _sumfact(4, "f64")
    kernel = kernels_of(_module(small, "optimized"))[0]
    inputs = random_inputs(kernel, np.random.default_rng(1))
    want = eval_ast_oracle(kernels_of(_module(small, "typed"))[0], inputs)
    # The n=4 grid fits one slab; a one-element budget folds it row by row.
    for budget in (interp._SLAB_ELEMENTS, 1):
        monkeypatch.setattr(interp, "_SLAB_ELEMENTS", budget)
        got, _ = eval_kernel(kernel, inputs)
        assert got["t"].tolist() == want["t"].tolist(), budget


def test_float_division_by_zero_is_ieee():
    module = _module(
        "kernel k(in a: f64[3], in b: f64[3], out y: f64[3]) "
        "{ let y[i] = a[i] / b[i]; }",
        "optimized",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, _ = eval_module(
            module, {"a": np.array([1.0, 0.0, -1.0]), "b": np.zeros(3)}
        )
    np.testing.assert_array_equal(out["y"], [np.inf, np.nan, -np.inf])


@pytest.mark.parametrize(
    "text,a,b",
    [
        ("kernel k(in a: f64, in b: f64, out y: f64) { let y = a / b; }", -1.0, 0.0),
        ("kernel k(in a: si32, in b: si32, out y: f64) { let y = a / b; }", 1, 0),
        (
            "kernel k(in a: f64[3], in b: f64[3], out y: f64[3]) "
            "{ let y[i] = a[i] / b[i]; }",
            np.array([1.0, 0.0, -1.0]),
            np.zeros(3),
        ),
    ],
)
def test_oracle_float_division_by_zero_is_ieee(text, a, b):
    kernel = kernels_of(_module(text, "typed"))[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = eval_ast_oracle(kernel, {"a": a, "b": b})
        got, _ = eval_kernel(kernel, {"a": a, "b": b})
    np.testing.assert_array_equal(np.asarray(want["y"], dtype=float), got["y"])


def test_oracle_reports_division_by_zero_with_a_location():
    kernel = kernels_of(
        _module(
            "kernel k(in a: rational[2], in b: rational[2], out y: rational[2]) "
            "{ let y[i] = a[i] / b[i]; }",
            "typed",
        )
    )[0]
    inputs = {
        "a": np.array([Fraction(1), Fraction(2)]),
        "b": np.array([Fraction(1), Fraction(0)]),
    }
    with pytest.raises(EvalError, match=r"^t\.ekl:1:\d+: division by zero$"):
        eval_ast_oracle(kernel, inputs)


@pytest.mark.parametrize("stage", ["typed", "optimized"])
@pytest.mark.parametrize(
    "text, width",
    [
        ("kernel k(in a: f64, out y: f64) { let y = a + 1e400; }", 64),
        ("kernel k(in a: f32, out y: f32) { let y = a + 1e39; }", 32),
        ("kernel k(in a: f32, out y: f32) { let y = 1e39; }", 32),
    ],
    ids=["f64_add", "f32_add", "f32_output"],
)
def test_oracle_traps_a_rational_out_of_a_float_range_as_the_evaluator_does(
    text, width, stage
):
    kernel = kernels_of(_module(text, stage))[0]
    message = rf"^t\.ekl:1:\d+: value out of range for f{width}$"
    with pytest.raises(EvalError, match=message) as trap:
        eval_kernel(kernel, {"a": 0.5})
    with pytest.raises(EvalError, match=message) as oracle:
        eval_ast_oracle(kernel, {"a": 0.5})
    assert str(oracle.value) == str(trap.value)


# Each kernel with its input `a` and what it gives on every stage: the
# values of `y`, or the message of the trap. A comparison computes in its
# operands' promoted type, and a rational operand of machine-typed
# arithmetic takes the result's type first, as the casts that `explicit`
# inserts do: `1e39` does not fit an `f32`, `0.1` rounds to the `f32`
# nearest it, `5/2` truncates to 2, also where both operands are literals
# that `simplify` folds, and `2` next to a `bool` is true.
_CONVERTED_OPERANDS = {
    "f32_cmp_out_of_range": (
        "kernel k(in a: f32[2], out y: bool[2]) { let y[i] = a[i] < 1e39; }",
        np.array([0.5, 2.0], dtype=np.float32),
        "t.ekl:1:58: value out of range for f32",
    ),
    "f32_cmp_rounded": (
        "kernel k(in a: f32[2], out y: bool[2]) { let y[i] = a[i] <= 0.1; }",
        np.array([0.1, 0.5], dtype=np.float32),
        [True, False],
    ),
    "si32_cmp_truncated": (
        "kernel k(in a: si32[2], out y: bool[2]) { let y[i] = a[i] < 5/2; }",
        np.array([2, 3], dtype=np.int32),
        [False, False],
    ),
    "literal_cmp_truncated": (
        "kernel k(in a: si32[2], out y: bool[2]) "
        "{ let y[i] = if (_2 < 5/2) a[i] < 0 else a[i] >= 0; }",
        np.array([2, 3], dtype=np.int32),
        [True, True],
    ),
    "bool_cmp_nonzero": (
        "kernel k(in a: bool[2], out y: bool[2]) { let y[i] = a[i] == 2; }",
        np.array([True, False]),
        [True, False],
    ),
    "si8_add_truncated": (
        "kernel k(in a: si8[3], out y: si8[3]) { let y[i] = a[i] + 5/2; }",
        np.array([1, -3, -4], dtype=np.int8),
        [3, -1, -2],
    ),
}


@pytest.mark.parametrize("name", sorted(_CONVERTED_OPERANDS))
def test_both_evaluators_convert_operands_as_the_casts_do_on_every_stage(name):
    src, a, expected = _CONVERTED_OPERANDS[name]
    stages, diags = compile_all_stages(src, "t.ekl")
    assert list(stages) == list(STAGES[1:]), [str(d) for d in diags]
    for stage, module in stages.items():
        kernel = kernels_of(module)[0]
        for evaluate in (eval_kernel, eval_ast_oracle):
            if isinstance(expected, str):
                with pytest.raises(EvalError) as trap:
                    evaluate(kernel, {"a": a})
                assert str(trap.value) == expected, (stage, evaluate.__name__)
            else:
                got = evaluate(kernel, {"a": a})
                outputs = got[0] if evaluate is eval_kernel else got
                assert np.ravel(outputs["y"]).tolist() == expected, (
                    stage,
                    evaluate.__name__,
                )


_IF_IN_A_GENERATOR = """
ekl.program (
{
  ekl.kernel (
  {
  ^(%0: array<bool[3]>):
    %1 = ekl.assoc (
    {
    ^(%2: index<3>):
      %3 = ekl.subscript(%0, %2) : bool
      ekl.if_stmt(%3) ({}, {})
      ekl.yield(%3)
    }
    ) : array<bool[3]>
    ekl.output(%1) {name = "y", type = array<bool[3]>}
  }
  ) {in0 = "a", name = "k", out0 = "y", out0_type = array<bool[3]>}
}
)
"""


@pytest.mark.parametrize(
    "text, inputs, message",
    [
        (_IF_IN_A_GENERATOR, {"a": np.ones(3, dtype=bool)}, "inside a generator"),
    ],
    ids=["if_in_a_generator"],
)
def test_ops_outside_the_grid_model_are_errors(text, inputs, message):
    kernel = kernels_of(parse_ir(text))[0]
    with pytest.raises(EvalError, match=message):
        eval_kernel(kernel, inputs)


# Rationals with numerators and denominators up to 2**70; integers() draws
# zero numerators too. _SMALL keeps products below 2**31 for si32 casts.
# Each kernel names the Python conversion of its declared output, which
# the oracle's values already have.
_BIG = 2**70
_RATIONALS = st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, _BIG))
_SMALL = st.builds(Fraction, st.integers(-(2**15), 2**15), st.integers(1, _BIG))
_ABC = "in a: rational[4], in b: rational[4], in c: rational[4]"
_EXACT_KERNELS = {
    "arith": (
        f"kernel k({_ABC}, out y: rational[4]) "
        "{ let y[i] = (a[i] + b[i]) * c[i] - a[i] / b[i] + -c[i]; }",
        _RATIONALS,
        Fraction,
    ),
    "if": (
        f"kernel k({_ABC}, out y: rational[4]) {{ let y[i] = "
        "if (a[i] / b[i] < c[i]) a[i] - b[i] "
        "else if (a[i] >= c[i]) c[i] * a[i] "
        "else if (b[i] != 0) b[i] / c[i] else -a[i]; }",
        _RATIONALS,
        Fraction,
    ),
    "f64": (
        f"kernel k({_ABC}, out y: f64[4]) "
        "{ let y[i] = a[i] * b[i] - c[i] / a[i]; }",
        _RATIONALS,
        float,
    ),
    "si32": (
        f"kernel k({_ABC}, out y: si32[4]) {{ let y[i] = a[i] * b[i] - c[i]; }}",
        _SMALL,
        int,
    ),
    "lifted": (
        "kernel k(in S: rational[3, 3], in u: rational[3, 3, 3], "
        "out t: rational[3, 3, 3]) { let t[i, j, k] =+ (l, m, n) "
        "S[l, i] * S[m, j] * S[n, k] * u[l, m, n]; }",
        _RATIONALS,
        Fraction,
    ),
}


@functools.cache
def _compiled(name):
    src = _EXACT_KERNELS[name][0]
    return _module(src, "optimized"), _module(src, "typed")


@pytest.mark.parametrize("name", sorted(_EXACT_KERNELS))
@given(data=st.data())
def test_exact_evaluation_matches_the_oracle_bit_for_bit(name, data):
    optimized, typed = _compiled(name)
    _, elements, convert = _EXACT_KERNELS[name]
    kernel = kernels_of(typed)[0]
    inputs = {}
    for i, arg in enumerate(kernel.body().args):
        n = math.prod(arg.type.shape)
        values = data.draw(st.lists(elements, min_size=n, max_size=n))
        inputs[kernel.attrs[f"in{i}"].value] = np.array(
            values, dtype=object
        ).reshape(arg.type.shape)
    try:
        want = eval_ast_oracle(kernel, inputs)
    except EvalError:
        with pytest.raises(EvalError, match="division by zero"):
            eval_module(optimized, inputs)
        return
    got, counters = eval_module(optimized, inputs)
    if name == "lifted":
        assert counters.multiplies == 3 * 3**4
    for out in want:
        # repr of the Python values tells -0.0 from 0.0 and 1/2 from 0.5.
        expected = [convert(x) for x in np.ravel(want[out])]
        assert repr(np.ravel(got[out]).tolist()) == repr(expected)


@pytest.mark.parametrize(
    "out_type, expected",
    [
        ("si32", np.array([0, 7, 20, 0], dtype=np.int32)),
        ("f64", np.array([-1 / 4, 70 / 9, 20.0, 0.0])),
    ],
)
def test_oracle_applies_declared_output_types(out_type, expected):
    kernel = kernels_of(
        _module(
            f"kernel k({_ABC}, out y: {out_type}[4]) "
            "{ let y[i] = a[i] * b[i] - c[i]; }",
            "typed",
        )
    )[0]
    values = np.array([Fraction(1, 2), Fraction(-7, 3), Fraction(5), Fraction(0)])
    inputs = dict.fromkeys("abc", values)
    want = eval_ast_oracle(kernel, inputs)["y"]
    got, _ = eval_kernel(kernel, inputs)
    assert want.dtype == expected.dtype and want.tolist() == expected.tolist()
    assert got["y"].dtype == expected.dtype and got["y"].tolist() == expected.tolist()


# --- exact rationals over one denominator per array --------------------------


@pytest.fixture
def pair_forms(monkeypatch):
    """Record the form of each pair that an op of the evaluator yields,
    and check that every pair built on the way has positive denominators."""
    forms = []
    init = interp._Pair.__init__

    def checked(self, num, den):
        init(self, num, den)
        assert (np.asarray(self.den) > 0).all()

    def recorded(step):
        def run(evaluator, op, env, grid):
            step(evaluator, op, env, grid)
            value = env.get(op.result)
            if isinstance(value, interp._Pair):
                forms.append("common" if value.is_common else "per-element")

        return run

    monkeypatch.setattr(interp._Pair, "__init__", checked)
    monkeypatch.setattr(
        interp, "_STEPS", {kind: recorded(step) for kind, step in interp._STEPS.items()}
    )
    return forms


def _assert_matches_the_oracle(src, inputs_of, seeds=range(5)):
    optimized = kernels_of(_module(src, "optimized"))[0]
    typed = kernels_of(_module(src, "typed"))[0]
    for seed in seeds:
        inputs = inputs_of(typed, seed)
        want = eval_ast_oracle(typed, inputs)
        got, _ = eval_kernel(optimized, inputs)
        for out in want:
            assert np.shape(got[out]) == np.shape(want[out]), (out, seed)
            assert np.ravel(got[out]).tolist() == np.ravel(want[out]).tolist(), (out, seed)


def _random(kernel, seed):
    return random_inputs(kernel, np.random.default_rng(seed))


_AB = "in a: rational[6], in b: rational[6]"
# Each kernel and the pair form its divisions and merges must keep.
_PAIR_KERNELS = {
    "divide_by_an_array": (
        f"kernel k({_AB}, out y: rational[6], out t: rational[1]) "
        "{ let y[i] = a[i] / (b[i] * b[i] + 1) + a[i] / (b[i] - 200); "
        "let t[z] =+ (i) a[i] / (b[i] - 200); }",
        "per-element",
    ),
    "divide_by_a_scalar": (
        "kernel k(in a: rational[6], in s: rational, out y: rational[6]) "
        "{ let y[i] = a[i] / (s * s + 1) - a[i] / (s - 200) + a[i] / -3; }",
        "common",
    ),
    "choice_of_denominators": (
        f"kernel k({_AB}, in c: si32[6], out y: rational[6]) "
        "{ let y[i] = if (c[i] > 0) a[i] / 3 else b[i] + 1/7; }",
        "common",
    ),
    "stack_of_denominators": (
        f"kernel k({_AB}, in s: index<3>[6], out y: rational[6]) "
        "{ let y[i] = (a[i] / 3, b[i] + 1/7, a[i] * b[i])[s[i]]; }",
        "common",
    ),
}


@pytest.mark.parametrize("name", sorted(_PAIR_KERNELS))
def test_each_pair_path_matches_the_oracle(name, pair_forms):
    src, form = _PAIR_KERNELS[name]
    _assert_matches_the_oracle(src, _random)
    assert form in pair_forms
    if form == "common":
        assert "per-element" not in pair_forms


def _signed(values, sign):
    return np.array([sign * abs(x) for x in np.ravel(values)], dtype=object).reshape(
        np.shape(values)
    )


@pytest.mark.parametrize(
    "n, sign", [(6, -1), (6, 0), (0, 1)], ids=["negative", "zero", "empty"]
)
def test_negative_zero_and_empty_arrays_match_the_oracle(n, sign, pair_forms):
    # An axis of extent 0 cannot be indexed, so the empty arrays meet
    # whole-array arithmetic only.
    params = f"in a: rational[{n}], in b: rational[{n}], out w: rational[{n}]"
    body = "let w = a * b - a / 2 + b;"
    if n:
        params += ", out y: rational[6], out t: rational[1]"
        body += " let y[i] = a[i] * b[i] - a[i] / 2; let t[z] =+ (i) a[i] * b[i] + b[i];"
    src = f"kernel k({params}) {{ {body} }}"
    _assert_matches_the_oracle(
        src,
        lambda kernel, seed: {
            k: _signed(v, sign) for k, v in _random(kernel, seed).items()
        },
    )
    assert "per-element" not in pair_forms


def _primes(count):
    primes = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return primes


def test_distinct_prime_denominators_keep_one_denominator_per_element(pair_forms):
    primes = _primes(4000)

    def inputs(kernel, seed):
        rng = np.random.default_rng(seed)
        return {
            name: np.array(
                [Fraction(int(rng.integers(-1000, 1001)), p) for p in ps], dtype=object
            )
            for name, ps in (("a", primes[:2000]), ("b", primes[2000:]))
        }

    src = (
        "kernel k(in a: rational[2000], in b: rational[2000], out c: rational[2000]) "
        "{ let c[i] = a[i] * b[i]; }"
    )
    _assert_matches_the_oracle(src, inputs)
    assert not interp._Pair.of(inputs(None, 0)["a"]).is_common
    assert set(pair_forms) == {"per-element"}
