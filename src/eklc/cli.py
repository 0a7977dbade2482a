"""Command line driver for the EKL compiler and runner.

Subcommands:

- ``check``: parse and type check, reporting diagnostics.
- ``dump``: print the IR of a chosen pipeline stage.
- ``run``: compile, evaluate on bound or seeded random inputs, write
  output tensors, and report operation counters.
- ``stats``: per-stage operation counts plus a naive versus lifted
  multiply comparison.

Exit codes: 0 on success, 1 when error diagnostics were emitted, 2 on
usage errors, 3 on I/O errors. Diagnostics go to stderr; IR and reports
go to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .diagnostics import print_diagnostics
from .interp import BoundsTrap, EvalError, eval_kernel, random_inputs
from .ir import count_ops, kernel_inputs, kernel_outputs, kernels_of
from .ir_text import print_ir
from .pipeline import STAGES, compile_all_stages, compile_source
from .tensor_io import TensorIOError, TensorValue, check_against, read_tensor, write_tensor

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _read_source(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc.strerror}", file=sys.stderr)
        raise SystemExit(EXIT_IO) from exc


def _emit(diagnostics, source: str | None = None) -> bool:
    """Print diagnostics to stderr; return True if any was an error."""
    print_diagnostics(diagnostics, source, sys.stderr)
    return any(d.severity == "error" for d in diagnostics)


def _report_trap(exc: EvalError) -> int:
    """Report a runtime trap of the evaluator; returns the exit code."""
    tag = " [bounds-trap]" if isinstance(exc, BoundsTrap) else ""
    print(f"error{tag}: {exc}", file=sys.stderr)
    return EXIT_DIAGNOSTICS


def _parse_bindings(pairs: list[str], flag: str) -> dict[str, str]:
    bindings = {}
    for item in pairs:
        name, sep, path = item.partition("=")
        if not sep or not name or not path:
            print(f"error: {flag} expects NAME=PATH, got {item!r}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
        bindings[name] = path
    return bindings


def cmd_check(args) -> int:
    source = _read_source(args.file)
    result = compile_source(source, args.file, stage="typed")
    failed = _emit(result.diagnostics, source)
    return EXIT_DIAGNOSTICS if failed else EXIT_OK


def cmd_dump(args) -> int:
    source = _read_source(args.file)
    result = compile_source(
        source,
        args.file,
        stage=args.stage,
        fast_math=args.fast_math,
        lift=not args.no_lift,
        fuse=not args.no_fuse,
    )
    failed = _emit(result.diagnostics + result.warnings, source)
    if failed or result.module is None:
        return EXIT_DIAGNOSTICS
    sys.stdout.write(print_ir(result.module))
    return EXIT_OK


def cmd_run(args) -> int:
    source = _read_source(args.file)
    result = compile_source(
        source,
        args.file,
        stage="optimized",
        fast_math=args.fast_math,
        lift=not args.no_lift,
        fuse=not args.no_fuse,
    )
    failed = _emit(result.diagnostics + result.warnings, source)
    if failed or result.module is None:
        return EXIT_DIAGNOSTICS
    in_paths = _parse_bindings(args.inputs, "--in")
    out_paths = _parse_bindings(args.outputs, "--out")
    rng = np.random.default_rng(args.seed)

    loaded: dict[str, TensorValue] = {}
    for name, path in in_paths.items():
        try:
            loaded[name] = read_tensor(path)
        except OSError as exc:
            print(f"error: cannot read {path}: {exc.strerror}", file=sys.stderr)
            return EXIT_IO
        except TensorIOError as exc:
            print(f"error [{exc.code}]: {exc}", file=sys.stderr)
            return EXIT_DIAGNOSTICS

    report = {"kernels": []}
    for kernel in kernels_of(result.module):
        inputs: dict[str, object] = {}
        randomized = []
        for name, declared in kernel_inputs(kernel):
            if name in loaded:
                try:
                    check_against(loaded[name], declared)
                except TensorIOError as exc:
                    print(
                        f"error [{exc.code}]: input '{name}': {exc}", file=sys.stderr
                    )
                    return EXIT_DIAGNOSTICS
                inputs[name] = loaded[name].to_runtime()
            else:
                randomized.append(name)
        if randomized:
            inputs.update(
                {
                    k: v
                    for k, v in random_inputs(kernel, rng).items()
                    if k in randomized
                }
            )
        try:
            outputs, counters = eval_kernel(kernel, inputs)
        except EvalError as exc:
            return _report_trap(exc)
        written = {}
        for name, declared in kernel_outputs(kernel):
            if name in out_paths:
                tv = TensorValue.from_runtime(outputs[name], declared)
                try:
                    write_tensor(out_paths[name], tv)
                except OSError as exc:
                    print(
                        f"error: cannot write {out_paths[name]}: {exc.strerror}",
                        file=sys.stderr,
                    )
                    return EXIT_IO
                written[name] = out_paths[name]
        report["kernels"].append(
            {
                "name": kernel.attrs["name"].value,
                "random_inputs": randomized,
                "outputs": written,
                "counters": counters.as_dict(),
            }
        )

    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for entry in report["kernels"]:
            print(f"kernel {entry['name']}:")
            if entry["random_inputs"]:
                print(f"  random inputs: {', '.join(entry['random_inputs'])}")
            for name, path in entry["outputs"].items():
                print(f"  wrote {name} -> {path}")
            for key, value in entry["counters"].items():
                print(f"  {key}: {value}")
    return EXIT_OK


def cmd_stats(args) -> int:
    source = _read_source(args.file)
    lifted_stages, diags = compile_all_stages(
        source,
        args.file,
        fast_math=args.fast_math,
        lift=not args.no_lift,
        fuse=not args.no_fuse,
    )
    failed = _emit(diags, source)
    if failed or not lifted_stages:
        return EXIT_DIAGNOSTICS
    naive = compile_source(source, args.file, lift=False, fuse=False).module

    report = {"stages": {}, "kernels": []}
    for stage in STAGES[1:]:
        report["stages"][stage] = count_ops(lifted_stages[stage])

    rng_seed = args.seed
    naive_kernels = kernels_of(naive)
    lifted_kernels = kernels_of(lifted_stages["optimized"])
    for naive_k, lifted_k in zip(naive_kernels, lifted_kernels):
        inputs = random_inputs(naive_k, np.random.default_rng(rng_seed))
        try:
            _, naive_c = eval_kernel(naive_k, inputs)
            _, lifted_c = eval_kernel(lifted_k, inputs)
        except EvalError as exc:
            return _report_trap(exc)
        ratio = (
            naive_c.multiplies / lifted_c.multiplies if lifted_c.multiplies else None
        )
        report["kernels"].append(
            {
                "name": naive_k.attrs["name"].value,
                "naive": naive_c.as_dict(),
                "lifted": lifted_c.as_dict(),
                "multiply_ratio": ratio,
            }
        )

    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print("operations per stage:")
        for stage, n in report["stages"].items():
            print(f"  {stage:12s} {n}")
        print("multiplies, naive vs lifted:")
        for entry in report["kernels"]:
            ratio = entry["multiply_ratio"]
            shown = f"{ratio:.2f}" if ratio is not None else "n/a"
            print(
                f"  {entry['name']:16s} "
                f"{entry['naive']['multiplies']:>12d} "
                f"{entry['lifted']['multiplies']:>12d}  x{shown}"
            )
    return EXIT_OK


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fast-math", action="store_true", help="allow float reassociation")
    p.add_argument("--no-lift", action="store_true", help="disable reduction lifting")
    p.add_argument("--no-fuse", action="store_true", help="disable producer fusion")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eklc", description="EKL tensor kernel compiler and runner"
    )
    parser.add_argument("--version", action="version", version=f"eklc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and type check a source file")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("dump", help="print the IR of a pipeline stage")
    p.add_argument("file")
    p.add_argument("--stage", choices=STAGES, default="typed")
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_dump)

    p = sub.add_parser("run", help="compile and evaluate kernels")
    p.add_argument("file")
    p.add_argument(
        "--in",
        dest="inputs",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="bind an input tensor from a file",
    )
    p.add_argument(
        "--out",
        dest="outputs",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="write an output tensor to a file",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for unbound inputs")
    p.add_argument("--json", action="store_true", help="machine readable report")
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("stats", help="stage op counts and lifting impact")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0, help="seed for sample inputs")
    p.add_argument("--json", action="store_true", help="machine readable report")
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
