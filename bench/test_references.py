"""Checks of the benchmark's own references and files against eklc's oracle.

Run with `python3 -m pytest bench -q` from the repository root; these
tests are not part of the main suite.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import references  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from eklc.interp import eval_ast_oracle, kernels_of, random_inputs  # noqa: E402
from eklc.pipeline import compile_source  # noqa: E402
from eklc.tensor_io import TensorValue, read_tensor, write_tensor  # noqa: E402
from eklc.types import F32, RATIONAL, ArrayType  # noqa: E402


def _typed_kernel(source: str):
    result = compile_source(source, "<test>", stage="typed")
    assert result.ok, [str(d) for d in result.diagnostics]
    return kernels_of(result.module)[0]


def _oracle_and_inputs(source: str, seed: int):
    kernel = _typed_kernel(source)
    inputs = random_inputs(kernel, np.random.default_rng(seed))
    return eval_ast_oracle(kernel, inputs), inputs


def _assert_close(got, want):
    """The oracle computes floats in double precision, as the references do;
    only the summation order differs."""
    np.testing.assert_allclose(got, np.asarray(want, dtype=np.float64), rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("n", [2, 3])
def test_rational_sumfact_is_bit_exact(n):
    want, inputs = _oracle_and_inputs(references.sumfact_source(n, "rational"), n)
    got = references.sumfact(inputs["S"], inputs["u"])
    assert got.dtype == object and (got == want["t"]).all()


def test_f64_sumfact_matches_oracle():
    want, inputs = _oracle_and_inputs(references.sumfact_source(3, "f64"), 7)
    got = references.sumfact(inputs["S"], inputs["u"])
    _assert_close(got, want["t"])


def test_taumol_small_matches_oracle():
    with open(os.path.join(workloads.CORPUS, "mini", "taumol_small.ekl")) as f:
        want, inputs = _oracle_and_inputs(f.read(), 3)
    got = references.taumol_small(inputs)
    _assert_close(got["tau"], want["tau"])


_SMALL_TAUMOL_HEADER = """kernel taumol_sw(
  in C_K_MAJOR: f32[2, 4, 3, 4, 3],
  in K_MINOR: f32[2, 4, 3],
  in K_RAY: f32[4, 3],
  in j_T: index<3>[5],
  in j_eta: index<2>[5, 2, 2],
  in j_p: index<3>[5],
  in f_T: f32[5, 2],
  in f_eta: f32[5, 2],
  in f_p: f32[5],
  in eta_half: f32[5, 2],
  in scale_min: f32[5, 2, 2],
  in col_dry: f32[5, 2],
  out tau_maj: f32[2, 5, 3],
  out tau_tot: f32[2, 5, 3]
"""


@pytest.mark.parametrize("seed", [0, 1])
def test_taumol_sw_matches_oracle_on_small_shapes(seed):
    with open(os.path.join(workloads.CORPUS, "taumol_sw.ekl")) as f:
        corpus = f.read()
    source = _SMALL_TAUMOL_HEADER + corpus[corpus.index(") {") :]
    want, inputs = _oracle_and_inputs(source, seed)
    got = references.taumol_sw(inputs)
    for name in ("tau_maj", "tau_tot"):
        _assert_close(got[name], want[name])


def test_tensor_files_agree_with_eklc(tmp_path):
    rng = np.random.default_rng(5)
    rational = workloads._draw(rng, RATIONAL, (3, 2))
    floats = workloads._draw(rng, F32, (4, 3, 2))
    path = str(tmp_path / "r.eklr")
    workloads.write_eklr(path, rational)
    assert (read_tensor(path).data == rational).all()
    write_tensor(path, TensorValue.from_runtime(rational, ArrayType(RATIONAL, (3, 2))))
    assert (workloads.read_eklr(path) == rational).all()
    path = str(tmp_path / "f.eklt")
    workloads.write_eklt(path, floats, "f32")
    assert np.array_equal(read_tensor(path).data, floats)
    write_tensor(path, TensorValue.from_runtime(floats, ArrayType(F32, (4, 3, 2))))
    assert np.array_equal(workloads.read_eklt(path), floats)


@pytest.mark.parametrize("workload", ["compile", "run_rational", "run_float"])
def test_traced_job_passes_the_checks(workload, tmp_path):
    """A traced job is a CLI job with spans around the layer calls: it
    passes the same checks, and the CLI's names are restored after it."""
    import eklc.cli

    ops = workloads.WORKLOADS[workload](0, str(tmp_path))
    checker = workloads.Checker(ops)
    tracer = tracing.Tracer()
    checker.check_job(tracer.run_job(ops))
    assert checker.correct, checker.errors
    assert checker.failed == 0
    assert eklc.cli.eval_kernel.__module__ == "eklc.interp"
    roots = [s for s in tracer.spans if s[0] == "cli"]
    assert len(roots) == len(ops) and all(s[3] is None for s in roots)
