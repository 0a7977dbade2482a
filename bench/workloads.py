"""The benchmark's workloads: their operations, inputs and output checks.

One operation is one `eklc` command line; one job is every operation of
a workload, in order. Inputs are drawn from the workload seed and written
as EKLT/EKLR tensor files by code of this module, apart from eklc's own
tensor I/O; references are computed before timing starts.
"""

from __future__ import annotations

import contextlib
import glob
import io
import json
import os
import re
import struct
import traceback
import zlib
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import references
from eklc.cli import kernel_inputs, kernel_outputs, main as eklc_main
from eklc.interp import eval_ast_oracle, kernels_of, random_inputs
from eklc.ir import verify
from eklc.ir_text import parse_ir
from eklc.pipeline import compile_source
from eklc.typecheck import verify_semantic
from eklc.types import FloatType, IndexType, RationalType, scalar_of, shape_of

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "corpus")

VALID_KERNELS = (
    "convection.ekl",
    "elliptic_d.ekl",
    "elliptic_r.ekl",
    "inv_helm.ekl",
    "taumol_sw.ekl",
    "mini/convection_l5.ekl",
    "mini/taumol_small.ekl",
)
RATIONAL_KERNELS = (
    "inv_helm.ekl",
    "elliptic_r.ekl",
    "elliptic_d.ekl",
    "convection.ekl",
    "mini/convection_l5.ekl",
)
# Inputs left to the CLI's `--seed`: eklc cannot read a rank-0 EKLR file.
UNBOUND = {"elliptic_d.ekl": ("lam",)}
# Lifted rational sumfact sizes in one job. n=7 adds about 50 ms and
# n=10 about 175 ms, which would leave fewer than 100 jobs in a run, too
# few for a p90; the full n=4..10 scaling is in README.md (figures.py).
RATIONAL_SUMFACT_N = (4, 5, 6)
# f64 sumfact extent: large enough that the unlifted grid (n^6 elements
# per intermediate) dominates peak memory, small enough for 100+ jobs.
FLOAT_SUMFACT_N = 12
FLOAT_RTOL = 1e-6  # the float tolerance of the stage-equivalence acceptance test


@dataclass
class Op:
    """One eklc command line and what its result must satisfy."""

    command: str  # "check", "dump" or "run"
    source: str
    fast_math: bool = False
    inputs: dict[str, str] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)
    expected: dict[str, np.ndarray] = field(default_factory=dict)
    multiplies: int | None = None
    seed: int | None = None  # `--seed` for inputs left unbound

    @property
    def expected_exit(self) -> int:
        return 1 if self.command == "check" else 0

    def argv(self) -> list[str]:
        argv = [self.command, self.source]
        if self.command == "dump":
            argv += ["--stage", "optimized"]
        if self.command == "run":
            argv += [f"--in={k}={v}" for k, v in self.inputs.items()]
            argv += [f"--out={k}={v}" for k, v in self.outputs.items()]
            argv.append("--json")
        if self.seed is not None:
            argv.append(f"--seed={self.seed}")
        if self.fast_math:
            argv.append("--fast-math")
        return argv


@dataclass
class Result:
    code: int | None  # None when the command raised
    stdout: str
    stderr: str


def call_cli(argv: list[str]) -> Result:
    """Run one eklc command line through `eklc.cli.main` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = eklc_main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback is an operation failure, not a crash
            traceback.print_exc()
            code = None
    return Result(code, out.getvalue(), err.getvalue())


# --- tensor files, written and read apart from eklc.tensor_io ----------------

_EKLT = {"si64": (2, "<i8"), "f32": (3, "<f4"), "f64": (4, "<f8")}
_EKLT_BY_CODE = {code: dt for code, dt in _EKLT.values()}


def write_eklt(path: str, arr: np.ndarray, kind: str) -> None:
    code, dt = _EKLT[kind]
    header = b"EKLT" + struct.pack("<BBBx", 1, code, arr.ndim)
    extents = struct.pack(f"<{arr.ndim}Q", *arr.shape)
    with open(path, "wb") as f:
        f.write(header + extents + np.ascontiguousarray(arr, dtype=dt).tobytes())


def read_eklt(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != b"EKLT":
        raise ValueError(f"{path}: not an EKLT file")
    _, code, rank = struct.unpack("<BBB", blob[4:7])
    shape = struct.unpack(f"<{rank}Q", blob[8 : 8 + 8 * rank])
    return np.frombuffer(blob[8 + 8 * rank :], dtype=_EKLT_BY_CODE[code]).reshape(shape)


def write_eklr(path: str, arr: np.ndarray) -> None:
    lines = ["EKLR 1", "rational", " ".join(str(e) for e in arr.shape)]
    lines += [f"{x.numerator}/{x.denominator}" for x in arr.ravel()]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_eklr(path: str) -> np.ndarray:
    with open(path) as f:
        lines = f.read().splitlines()
    if lines[:2] != ["EKLR 1", "rational"]:
        raise ValueError(f"{path}: not an EKLR file")
    shape = tuple(int(e) for e in lines[2].split())
    values = [Fraction(*map(int, e.split("/"))) for e in lines[3:] if e]
    return np.array(values, dtype=object).reshape(shape)


# --- inputs and references ----------------------------------------------------


def _draw(rng: np.random.Generator, scalar, shape: tuple[int, ...]) -> np.ndarray:
    """Rationals as in eklc's tests (numerator in [-100, 100], denominator in
    [1, 100]); floats in [0, 1), like the non-negative tables, weights and
    fractions of the corpus; index values over their declared range."""
    if isinstance(scalar, RationalType):
        num = rng.integers(-100, 101, size=shape)
        den = rng.integers(1, 101, size=shape)
        flat = [Fraction(int(n), int(d)) for n, d in zip(num.ravel(), den.ravel())]
        return np.array(flat, dtype=object).reshape(shape)
    if isinstance(scalar, FloatType):
        dt = np.float32 if scalar.width == 32 else np.float64
        return rng.random(size=shape).astype(dt)
    if isinstance(scalar, IndexType):
        return rng.integers(0, scalar.bound, size=shape)
    raise ValueError(f"no input generator for {scalar}")


def _write_input(path_stem: str, arr: np.ndarray, scalar) -> str:
    if isinstance(scalar, RationalType):
        write_eklr(path_stem + ".eklr", arr)
        return path_stem + ".eklr"
    kind = str(scalar) if isinstance(scalar, FloatType) else "si64"
    write_eklt(path_stem + ".eklt", arr, kind)
    return path_stem + ".eklt"


def _run_op(
    source_path: str, tag: str, seed: int, workdir: str, reference, unbound=(), **kw
) -> Op:
    """A `run` operation with its inputs bound from seeded tensor files.

    Inputs named in `unbound` are left to the CLI, which draws them from
    `--seed`; their values for the reference come from eklc's
    `random_inputs` with the same seed. `reference(kernel, inputs)`
    returns the expected outputs."""
    with open(source_path) as f:
        typed = compile_source(f.read(), source_path, stage="typed")
    if not typed.ok:
        raise RuntimeError(f"{source_path} does not type check")
    (kernel,) = kernels_of(typed.module)
    rng = np.random.default_rng([seed, zlib.crc32(tag.encode())])
    op = Op("run", source_path, seed=seed if unbound else None, **kw)
    drawn = random_inputs(kernel, np.random.default_rng(seed)) if unbound else {}
    values = {}
    for name, declared in kernel_inputs(kernel):
        if name in unbound:
            values[name] = drawn[name]
            continue
        scalar = scalar_of(declared)
        values[name] = _draw(rng, scalar, shape_of(declared))
        op.inputs[name] = _write_input(os.path.join(workdir, f"{tag}.{name}"), values[name], scalar)
    for name, declared in kernel_outputs(kernel):
        ext = "eklr" if isinstance(scalar_of(declared), RationalType) else "eklt"
        op.outputs[name] = os.path.join(workdir, f"{tag}.out.{name}.{ext}")
    op.expected = reference(kernel, values)
    return op


def _oracle(kernel, values):
    return {k: np.asarray(v, dtype=object) for k, v in eval_ast_oracle(kernel, values).items()}


def _sumfact_op(n: int, scalar: str, seed: int, workdir: str, fast_math: bool = False) -> Op:
    tag = f"sumfact_{scalar}_{n}" + ("_fast" if fast_math else "")
    path = os.path.join(workdir, tag + ".ekl")
    with open(path, "w") as f:
        f.write(references.sumfact_source(n, scalar))
    lifted = scalar == "rational" or fast_math
    return _run_op(
        path, tag, seed, workdir,
        lambda kernel, v: {"t": references.sumfact(v["S"], v["u"])},
        fast_math=fast_math,
        multiplies=3 * n**4 if lifted else 3 * n**6,
    )


def rename_kernels(source: str, suffix: str) -> str:
    return re.sub(r"\bkernel\s+(\w+)", lambda m: f"kernel {m.group(1)}_{suffix}", source)


# --- workloads ---------------------------------------------------------------


def compile_ops(seed: int, workdir: str) -> list[Op]:
    """Optimized dumps of the valid corpus, checks of the invalid corpus, and
    one module of the valid corpus kernels, renamed, in corpus order. The
    corpus is the whole input, so every seed gives the same job."""
    ops = [Op("dump", os.path.join(CORPUS, k)) for k in VALID_KERNELS]
    ops += [Op("check", p) for p in sorted(glob.glob(os.path.join(CORPUS, "invalid", "*.ekl")))]
    parts = []
    for i, name in enumerate(VALID_KERNELS):
        with open(os.path.join(CORPUS, name)) as f:
            parts.append(rename_kernels(f.read(), f"m{i}"))
    module = os.path.join(workdir, "module.ekl")
    with open(module, "w") as f:
        f.write("\n".join(parts))
    ops.append(Op("dump", module))
    return ops


def run_rational_ops(seed: int, workdir: str) -> list[Op]:
    """The exact-rational corpus kernels and lifted rational sumfact."""
    ops = [
        _run_op(
            os.path.join(CORPUS, k), k.replace("/", "_"), seed, workdir, _oracle,
            unbound=UNBOUND.get(k, ()),
        )
        for k in RATIONAL_KERNELS
    ]
    ops += [_sumfact_op(n, "rational", seed, workdir) for n in RATIONAL_SUMFACT_N]
    return ops


def run_float_ops(seed: int, workdir: str) -> list[Op]:
    return [
        _run_op(
            os.path.join(CORPUS, "taumol_sw.ekl"), "taumol_sw", seed, workdir,
            lambda kernel, v: references.taumol_sw(v),
        ),
        _run_op(
            os.path.join(CORPUS, "mini", "taumol_small.ekl"), "taumol_small", seed, workdir,
            lambda kernel, v: references.taumol_small(v),
        ),
        _sumfact_op(FLOAT_SUMFACT_N, "f64", seed, workdir),
        _sumfact_op(FLOAT_SUMFACT_N, "f64", seed, workdir, fast_math=True),
    ]


WORKLOADS = {
    "compile": compile_ops,
    "run_rational": run_rational_ops,
    "run_float": run_float_ops,
}


# --- output checks -----------------------------------------------------------


class Checker:
    """Checks every operation result of every job; keeps the first dump of
    each operation so later jobs can be compared byte for byte.

    An operation fails when it raises or exits with another code than
    its command's (0 for `dump` and `run`, 1 for `check` on the invalid
    corpus). No operation of a workload fails on working code, so a
    failure is also an error and makes the run incorrect."""

    def __init__(self, ops: list[Op]) -> None:
        self.ops = ops
        self.dumps: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check_job(self, results: list[Result]) -> None:
        for i, (op, result) in enumerate(zip(self.ops, results)):
            self.attempted += 1
            if result.code != op.expected_exit:
                self.failed += 1
                last = result.stderr.strip().splitlines()[-1:] or ["no message"]
                error = f"exited {result.code}, expected {op.expected_exit}: {last[0]}"
            else:
                try:
                    error = self._check(i, op, result)
                except Exception as exc:  # an unreadable dump, report or output is wrong
                    error = f"{type(exc).__name__}: {exc}"
            if error and len(self.errors) < 20:
                self.errors.append(f"{op.command} {op.source}: {error}")

    @property
    def correct(self) -> bool:
        return not self.errors

    def _check(self, i: int, op: Op, r: Result) -> str | None:
        if op.command == "check":
            return None if "bound" in r.stderr else "rejection does not mention a bound"
        if op.command == "dump":
            return self._check_dump(i, r.stdout)
        return self._check_run(op, r.stdout)

    def _check_dump(self, i: int, text: str) -> str | None:
        if i in self.dumps:
            return None if text == self.dumps[i] else "dump differs from the first job's"
        self.dumps[i] = text
        module = parse_ir(text)
        problems = verify(module) + verify_semantic(module)
        return f"dump does not verify: {problems[0]}" if problems else None

    def _check_run(self, op: Op, stdout: str) -> str | None:
        report = json.loads(stdout)
        written = {name for k in report["kernels"] for name in k["outputs"]}
        if written != set(op.outputs):
            return f"wrote outputs {sorted(written)}, expected {sorted(op.outputs)}"
        if op.multiplies is not None:
            got = sum(k["counters"]["multiplies"] for k in report["kernels"])
            if got != op.multiplies:
                return f"{got} multiplies, expected {op.multiplies}"
        for name, path in op.outputs.items():
            want = op.expected[name]
            if want.dtype == object:
                got = read_eklr(path)
                if got.shape != want.shape or not (got == want).all():
                    return f"output {name} differs from the exact reference"
            else:
                got = read_eklt(path)
                if got.shape != want.shape or not np.allclose(got, want, rtol=FLOAT_RTOL, atol=0):
                    return f"output {name} differs from the reference beyond rtol {FLOAT_RTOL}"
        return None
