"""Reference figures for README.md, printed as Markdown tables.

    python3 bench/figures.py [--repeat R]

Each figure is the median of R traced calls (default 5) of one
operation, split by layer with the same spans as the traced run:
per-kernel times, the sumfact scaling for n=4..10, and per-pass time
against module size for modules of repeated renamed corpus kernels.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

COMPILE = tuple(layer for layer in tracing.TIMED_LAYERS if layer.split(".")[0] in
                ("parser", "typecheck", "normalize", "optimize"))


def layer_ms(op: workloads.Op, repeat: int) -> dict[str, float]:
    """Median self time per layer over `repeat` traced calls, after one warm-up."""
    tr = tracing.Tracer()
    for job in range(repeat + 1):
        tr.job = job
        (result,) = tr.run_job([op])
        if result.code != op.expected_exit:
            raise RuntimeError(f"{op.argv()} exited {result.code}: {result.stderr}")
    per_job = tracing.self_times_ms(tr)
    return {
        layer: statistics.median(per_job[j][layer] for j in range(1, repeat + 1))
        for layer in tracing.TIMED_LAYERS
    }


def kernel_table(workdir: str, repeat: int) -> None:
    print("| kernel | compile ms | eval ms | tensor I/O ms | cli ms |")
    print("|---|---:|---:|---:|---:|")
    for name in workloads.VALID_KERNELS:
        ref = (lambda k, v: {}) if "taumol" in name else workloads._oracle
        op = workloads._run_op(
            os.path.join(workloads.CORPUS, name), name.replace("/", "_"), 0, workdir, ref,
            unbound=workloads.UNBOUND.get(name, ()),
        )
        ms = layer_ms(op, repeat)
        io_ms = ms["tensor_io.read"] + ms["tensor_io.write"]
        print(f"| {name} | {sum(ms[k] for k in COMPILE):.1f} | {ms['interp.eval']:.1f} "
              f"| {io_ms:.1f} | {ms['cli']:.1f} |")


def sumfact_table(workdir: str, repeat: int) -> None:
    print("| n | rational ms | rational multiplies | f64 ms | f64 multiplies "
          "| f64 elements | f64 --fast-math ms | f64 --fast-math multiplies |")
    print("|---:|---:|---:|---:|---:|---:|---:|---:|")
    for n in range(4, 11):
        cells = [str(n)]
        for scalar, fast in (("rational", False), ("f64", False), ("f64", True)):
            op = workloads._sumfact_op(n, scalar, 0, workdir, fast_math=fast)
            counts = tracing.count_job([op])
            cells += [f"{layer_ms(op, repeat)['interp.eval']:.1f}", str(counts["interp.multiplies"])]
            if scalar == "f64" and not fast:
                cells.append(str(counts["interp.intermediate_elements"]))
        print("| " + " | ".join(cells) + " |")


def module_table(workdir: str, repeat: int) -> None:
    passes = ("parser.parse", "typecheck.check", "optimize.lift", "optimize.fuse",
              "ir_text.print")
    print("| module | AST ops | " + " | ".join(f"{p} ms" for p in passes) + " |")
    print("|---|---:|" + "---:|" * len(passes))
    with open(os.path.join(workloads.CORPUS, "convection.ekl")) as f:
        convection = f.read()
    sources = {f"convection x{k}": [convection] * k for k in (1, 2, 4, 8)}
    corpus = []
    for name in workloads.VALID_KERNELS:
        with open(os.path.join(workloads.CORPUS, name)) as f:
            corpus.append(f.read())
    sources.update({f"valid corpus x{k}": corpus * k for k in (1, 2, 4)})
    for label, parts in sources.items():
        path = os.path.join(workdir, "module.ekl")
        with open(path, "w") as f:
            f.write("\n".join(workloads.rename_kernels(s, f"m{i}") for i, s in enumerate(parts)))
        op = workloads.Op("dump", path)
        ops = tracing.count_job([op])["parser.ast_ops"]
        ms = layer_ms(op, repeat)
        print(f"| {label} | {ops} | " + " | ".join(f"{ms[p]:.1f}" for p in passes) + " |")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    out = os.path.join(ROOT, "bench", "out")
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as workdir:
        for title, table in (
            ("Per-kernel times", kernel_table),
            ("Sumfact scaling (eval only)", sumfact_table),
            ("Per-pass time against module size", module_table),
        ):
            print(f"\n### {title}\n")
            table(workdir, args.repeat)


if __name__ == "__main__":
    main()
