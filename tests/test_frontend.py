"""The front end's output, pinned, and how its work grows with the source.

`golden/frontend.json` holds, for every corpus kernel, the benchmark's
multi-kernel module and a set of malformed sources: the `eklc dump
--stage ast` exit code, stdout and stderr, every op's kind and location
in `walk_lexical` order, and the parser's diagnostics. Regenerate it
with `PYTHONPATH=src python tests/test_frontend.py` only when a change
to the parse output is intended.
"""

from __future__ import annotations

import contextlib
import glob
import io
import json
import os
import re

from conftest import CORPUS_DIR, REPO_ROOT, corpus_source
from eklc.cli import main as eklc_main
from eklc.diagnostics import render_diagnostic
from eklc.ir import count_ops, walk_lexical
from eklc.lexer import tokenize
from eklc.parser import parse_source
from eklc.typecheck import run_fixpoint

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "frontend.json")

# The benchmark's multi-kernel module: the valid corpus kernels in this
# order, each renamed as `bench/workloads.py` renames them.
MODULE_KERNELS = (
    "convection.ekl",
    "elliptic_d.ekl",
    "elliptic_r.ekl",
    "inv_helm.ekl",
    "taumol_sw.ekl",
    "mini/convection_l5.ekl",
    "mini/taumol_small.ekl",
)

# Sources that reach the parser's error paths, its constant-extent folding
# and its rarer productions.
MALFORMED = (
    "",
    "kernel",
    "let x = 1; kernel k(in a: f64, out y: f64) { let y = a; }",
    "kernel k(in a: f64, out y: f64) { let y = a $ 1; }",
    "kernel k(in a: f64[4] out y: f64) { let y = a[0]; }",
    "kernel k(in a: f64[4], out y: f64[4]) { let y[i] = b[i]; }",
    "kernel k(in a: f64[2 / 0], out y: f64) { let y = a[0]; }",
    "kernel k(in a: f64[(2, 3)[_5]], out y: f64) { let y = a[0]; }",
    "kernel k(in a: f64[1 - 2, 5/2, true], out y: f64) { let y = a[0, 0, 0]; }",
    "kernel k(in a: index<0>, out y: foo) { }",
    "kernel k(in a: f64, in a: f64, out y: f64) { let y = a + ; let z = (a, a; out q = 1; }",
    "kernel k(in a: f64, out y: f64) { let y = a[i",
    "kernel k(in a: f64[4], out y: f64[4]) { let y[i, j] =+ (r) a[r] * a[i] == a[j] != a[i]; }",
    "kernel k(in a: f64[4], out y: f64[4]) {\n"
    "  let y[i] = a[i, :, ..., _1 + i] * - -a[2] - 3/4 + (a[i] < 1.5e3);\n"
    "  if (a[0] >= 1) { let z = a; } else { let z = if (true) 1 else 2; }\n"
    "  let w = ((a, a)[_1]); let w = 2.5E-2 / 7 <= _3;\n"
    "}",
    "kernel k(in a: f64[_3, 2 * 2], out y: f64) # c\r\n{ // d\n\tlet y = a[_1, 3]; } }",
    "kernel k(in 3: f64) {} kernel j(out y: f64[2]) { out y = 1; let [i] = 1; }",
)


def rename_kernels(source: str, suffix: str) -> str:
    return re.sub(r"\bkernel\s+(\w+)", lambda m: f"kernel {m.group(1)}_{suffix}", source)


def module_source(copies: int = 1) -> str:
    """The benchmark's module, repeated `copies` times with the kernels of
    each copy renamed apart."""
    parts = []
    for c in range(copies):
        for i, name in enumerate(MODULE_KERNELS):
            suffix = f"m{i}" if c == 0 else f"m{i}_c{c}"
            parts.append(rename_kernels(corpus_source(*name.split("/")), suffix))
    return "\n".join(parts)


def _dump_ast(path: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = eklc_main(["dump", path, "--stage", "ast"])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _entry(path: str, source: str) -> dict:
    module, diags = parse_source(source, path)
    return {
        "dump": _dump_ast(path),
        "ops": [[op.kind, *op.location] for op in walk_lexical(module)],
        "diagnostics": [render_diagnostic(d) for d in diags],
    }


def snapshot(workdir: str) -> dict[str, dict]:
    """The front end's output on every pinned source, keyed by the file
    name the source is compiled under. Runs with `workdir` as the current
    directory, so locations hold relative names."""
    saved = os.getcwd()
    os.chdir(workdir)
    try:
        sources = {}
        for path in sorted(glob.glob(os.path.join(CORPUS_DIR, "**", "*.ekl"), recursive=True)):
            rel = os.path.relpath(path, REPO_ROOT).replace(os.sep, "/")
            with open(path) as f:
                sources[rel] = f.read()
        sources["module.ekl"] = module_source()
        for i, text in enumerate(MALFORMED):
            sources[f"malformed_{i:02d}.ekl"] = text
        result = {}
        for name, text in sources.items():
            os.makedirs(os.path.dirname(name) or ".", exist_ok=True)
            with open(name, "w", newline="") as f:
                f.write(text)
            result[name] = _entry(name, text)
        return result
    finally:
        os.chdir(saved)


def test_front_end_output_is_pinned(tmp_path):
    with open(GOLDEN) as f:
        golden = json.load(f)
    got = snapshot(str(tmp_path))
    assert sorted(got) == sorted(golden)
    for name in golden:
        for part in ("diagnostics", "ops", "dump"):
            assert got[name][part] == golden[name][part], (name, part)


def test_front_end_work_grows_linearly_with_the_module():
    """Tokens, checker iterations and AST ops of k renamed copies of the
    benchmark's module are exactly k times those of one copy (plus the one
    `ekl.program`)."""
    for k in (1, 2, 4, 8):
        source = module_source(k)
        tokens = len(tokenize(source, "module.ekl")) - 1  # not the end-of-input token
        module, diags = parse_source(source, "module.ekl")
        assert not diags
        ops = count_ops(module)
        checker = run_fixpoint(module)
        assert not checker.diagnostics
        assert (tokens, ops, checker.state.iterations) == (2892 * k, 511 * k + 1, 618 * k), k


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = snapshot(tmp)
    with open(GOLDEN, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")
