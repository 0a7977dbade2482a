"""End-to-end acceptance checks for the compiler and runner.

Each test prints a single [PASS]/[FAIL] line so the suite doubles as an
acceptance report. Expected values are frozen here, independently of the
implementation: operation counts are computed from first principles
(loop extents times per-point operations) and reference results come
from the dynamically typed oracle evaluator or exact rational
arithmetic.
"""

from __future__ import annotations

import glob
import itertools
import os
import time
import zlib
from fractions import Fraction

import numpy as np
import pytest

from conftest import CORPUS_DIR, corpus_source
from eklc.interp import (
    BoundsTrap,
    eval_ast_oracle,
    eval_module,
    kernels_of,
    random_inputs,
)
from eklc.ir import count_ops, structurally_equal, walk_lexical
from eklc.ir_text import parse_ir, print_ir
from eklc.pipeline import compile_all_stages, compile_source
from eklc.typecheck import run_fixpoint, type_check
from eklc.types import (
    BOOL,
    F32,
    F64,
    ArrayType,
    IndexType,
    IntType,
    is_subtype,
    promote,
)
from util_random import random_module

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _report(capsys, label, fn):
    try:
        fn()
    except BaseException:
        with capsys.disabled():
            print(f"[FAIL] {label}", flush=True)
        raise
    with capsys.disabled():
        print(f"[PASS] {label}", flush=True)


# --- 1: type lattice ---------------------------------------------------------


def test_acceptance_1_type_lattice(capsys):
    def check():
        start = time.monotonic()
        scalars = (
            [BOOL]
            + [IntType(w) for w in (8, 16, 32, 64)]
            + [F32, F64]
            + [IndexType(b) for b in range(1, 9)]
        )
        shapes = [()]
        for rank in (1, 2):
            shapes += list(itertools.product(range(1, 4), repeat=rank))
        universe = [
            s if shape == () else ArrayType(s, shape)
            for s in scalars
            for shape in shapes
        ]
        n = len(universe)
        assert n == 195
        pos = {t: i for i, t in enumerate(universe)}
        m = np.zeros((n, n), dtype=bool)
        for i, a in enumerate(universe):
            for j, b in enumerate(universe):
                m[i, j] = is_subtype(a, b)
        assert m.diagonal().all(), "subtyping must be reflexive"
        off_diag = m & m.T & ~np.eye(n, dtype=bool)
        assert not off_diag.any(), "subtyping must be antisymmetric"
        closure = (m.astype(int) @ m.astype(int)) > 0
        assert not (closure & ~m).any(), "subtyping must be transitive"

        scalar_pos = [pos[s] for s in scalars]
        for a in scalars:
            for b in scalars:
                t = promote(a, b)
                ia, ib = pos[a], pos[b]
                uppers = [k for k in scalar_pos if m[ia, k] and m[ib, k]]
                if t is None:
                    assert not uppers, (a, b, "promotion gave up too early")
                    continue
                it = pos[t]
                assert m[ia, it] and m[ib, it], (a, b, t, "not an upper bound")
                for k in uppers:
                    assert m[it, k], (a, b, t, universe[k], "not least")
        assert time.monotonic() - start < 10.0

    _report(capsys, "1 type lattice: partial order and unique least upper bound", check)


# --- 2: fix-point soundness on the major-absorber kernel ---------------------


def test_acceptance_2_fixpoint_golden_types(capsys):
    def check():
        result = compile_source(
            corpus_source("taumol_sw.ekl"), "taumol_sw.ekl", stage="typed"
        )
        assert result.ok, [str(d) for d in result.diagnostics]
        text = print_ir(result.module)
        with open(os.path.join(GOLDEN_DIR, "taumol_sw.typed.eklir")) as f:
            golden = f.read()
        assert text == golden, "typed IR drifted from the golden snapshot"

        kernel = kernels_of(result.module)[0]
        outs = [op for op in walk_lexical(kernel) if op.kind == "ekl.output"]
        tau = next(op for op in outs if op.attrs["name"].value == "tau_maj")
        assert tau.operands[0].type == ArrayType(F32, (14, 60, 16))
        producing = tau.operands[0].owner
        inner = [
            op for op in producing.body().ops if op.kind == "ekl.assoc"
        ]
        assert inner and inner[0].result.type == ArrayType(F32, (2, 2, 2))
        yielded = inner[0].body().ops[-1]
        assert yielded.kind == "ekl.yield" and yielded.operands[0].type == F32

    _report(capsys, "2 fix-point: golden types for the major-absorber kernel", check)


# --- 3: bounds safety --------------------------------------------------------


def test_acceptance_3_bounds_safety(capsys):
    def check():
        invalid = sorted(glob.glob(os.path.join(CORPUS_DIR, "invalid", "*.ekl")))
        assert len(invalid) == 20
        for path in invalid:
            with open(path) as f:
                source = f.read()
            result = compile_source(source, path, stage="typed")
            errors = [d for d in result.diagnostics if d.severity == "error"]
            assert errors, f"{path} must be rejected"
            assert any("bound" in d.message for d in errors), path

        fuzz = {
            "gather": (
                "kernel gather(in x: f64[4], in j: index<4>[4], out y: f64[4]) "
                "{ let y[i] = x[j[i]] * 2; }",
                60_000,
            ),
            "stencil": (
                "kernel stencil(in j: index<4>[6], in T: f64[5], in W: f64[2], "
                "out y: f64[6]) { let y[x] =+ (d) T[j[x] + d] * W[d]; }",
                35_000,
            ),
            "mini": (corpus_source("mini/taumol_small.ekl"), 5_000),
        }
        total = 0
        for name, (source, runs) in fuzz.items():
            result = compile_source(source, name, stage="optimized")
            assert result.ok, name
            kernel = kernels_of(result.module)[0]
            rng = np.random.default_rng(zlib.crc32(name.encode()))
            for _ in range(runs):
                try:
                    eval_module(result.module, random_inputs(kernel, rng))
                except BoundsTrap as trap:
                    raise AssertionError(
                        f"accepted kernel {name} trapped: {trap}"
                    ) from trap
                total += 1
        assert total == 100_000

    _report(capsys, "3 bounds safety: 20 rejections and 100000 trap-free runs", check)


# --- 4: reduction lifting ----------------------------------------------------


def _sumfact_source(n: int) -> str:
    return (
        f"kernel sumfact(in S: rational[{n}, {n}], "
        f"in u: rational[{n}, {n}, {n}], out t: rational[{n}, {n}, {n}]) "
        "{ let t[i, j, k] =+ (l, m, n) S[l, i] * S[m, j] * S[n, k] * u[l, m, n]; }"
    )


def test_acceptance_4_reduction_lifting(capsys):
    def check():
        start = time.monotonic()
        for p in (3, 5, 7):
            n = p + 1
            src = _sumfact_source(n)
            naive = compile_source(src, "sf.ekl", stage="generators")
            lifted = compile_source(src, "sf.ekl", stage="optimized")
            assert naive.ok and lifted.ok
            kernel = kernels_of(naive.module)[0]
            inputs = random_inputs(kernel, np.random.default_rng(p))
            out_n, c_n = eval_module(naive.module, inputs)
            out_l, c_l = eval_module(lifted.module, inputs)
            # Naive: n^3 outputs x n^3 points x 3 multiplies.
            assert c_n.multiplies == 3 * n**6
            ratio = c_n.multiplies / c_l.multiplies
            assert ratio >= 0.9 * (p + 1) ** 2, (p, ratio)
            assert np.array_equal(out_n["t"], out_l["t"]), p  # exact rationals
        assert time.monotonic() - start < 30.0

    _report(capsys, "4 reduction lifting: >= 0.9*(p+1)^2 multiply ratio, exact outputs", check)


# --- 5: stage equivalence ----------------------------------------------------

_STAGE_KERNELS = (
    "inv_helm.ekl",
    "elliptic_r.ekl",
    "elliptic_d.ekl",
    "convection.ekl",
    "mini/taumol_small.ekl",
    "mini/convection_l5.ekl",
)


def _compare(got, want, context):
    got = np.asarray(got)
    want = np.asarray(want)
    if got.dtype == object or want.dtype == object:
        assert (got == want).all(), context
        return
    np.testing.assert_allclose(
        np.asarray(got, dtype=float),
        np.asarray(want, dtype=float),
        rtol=1e-6,
        err_msg=str(context),
    )


def test_acceptance_5_stage_equivalence(capsys):
    def check():
        for name in _STAGE_KERNELS:
            stages, diags = compile_all_stages(corpus_source(name), name)
            assert stages, (name, [str(d) for d in diags])
            kernel = kernels_of(stages["typed"])[0]
            for seed in range(100):
                inputs = random_inputs(kernel, np.random.default_rng(seed))
                want = eval_ast_oracle(kernel, inputs)
                for stage_name, module in stages.items():
                    got, _ = eval_module(module, inputs)
                    for out in want:
                        _compare(got[out], want[out], (name, stage_name, seed, out))

    _report(capsys, "5 stage equivalence: 100 seeded inputs per corpus kernel", check)


# --- 6: termination ceiling --------------------------------------------------


def test_acceptance_6_termination_ceiling(capsys):
    def check():
        rng = np.random.default_rng(4242)
        sizes = [20, 60, 120, 250, 500]
        for size in sizes:
            start = time.monotonic()
            module = random_module(rng, n_ops=size)
            checker = run_fixpoint(module)
            assert not checker.diagnostics, size
            assert checker.state.iterations <= checker.iteration_ceiling, size
            assert time.monotonic() - start < 5.0, size

    _report(capsys, "6 termination: 500-op modules check within the ceiling", check)


# --- 7: round trip and byte stability ----------------------------------------


def test_acceptance_7_round_trip_stability(capsys):
    def check():
        rng = np.random.default_rng(777)
        for i in range(1000):
            module = random_module(rng, n_ops=int(rng.integers(3, 40)))
            text = print_ir(module)
            again = parse_ir(text)
            assert structurally_equal(module, again), i
            assert print_ir(again) == text, i

        source = corpus_source("taumol_sw.ekl")
        first = compile_source(source, "t.ekl", stage="optimized")
        second = compile_source(source, "t.ekl", stage="optimized")
        assert print_ir(first.module) == print_ir(second.module)

    _report(capsys, "7 round trip: 1000 random modules and byte-stable dumps", check)


# --- 8: corpus size sanity ---------------------------------------------------

_EXPECTED_LOC = {
    "taumol_sw.ekl": 60,
    "inv_helm.ekl": 10,
    "elliptic_r.ekl": 20,
    "elliptic_d.ekl": 30,
    "convection.ekl": 100,
}


def _loc(source: str) -> int:
    count = 0
    for line in source.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith(("#", "//")):
            count += 1
    return count


def test_acceptance_8_corpus_size(capsys):
    def check():
        for name, expected in _EXPECTED_LOC.items():
            loc = _loc(corpus_source(name))
            assert expected / 2 <= loc <= expected * 2, (name, loc, expected)

    _report(capsys, "8 corpus size: kernel line counts within 2x of reference", check)
