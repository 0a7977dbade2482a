from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from conftest import REPO_ROOT, corpus_path
from eklc import cli, pipeline
from eklc.cli import main
from eklc.tensor_io import TensorValue, read_tensor, write_tensor
from eklc.types import F64, RATIONAL, SI64

GOOD = """
kernel scale(in x: f64[4], in j: index<4>[4], out y: f64[4]) {
  let y[i] = x[j[i]] * 2;
}
"""

BAD = """
kernel broken(in x: f64[4], out y: f64[4]) {
  let y[i] = x[i + 1];
}
"""

SUMFACT = """
kernel sumfact(
  in S: rational[4, 4],
  in u: rational[4, 4, 4],
  out t: rational[4, 4, 4]
) {
  let t[i, j, k] =+ (l, m, n) S[l, i] * S[m, j] * S[n, k] * u[l, m, n];
}
"""


@pytest.fixture
def good(tmp_path):
    path = tmp_path / "good.ekl"
    path.write_text(GOOD)
    return str(path)


@pytest.fixture
def bad(tmp_path):
    path = tmp_path / "bad.ekl"
    path.write_text(BAD)
    return str(path)


def test_check_accepts_valid_source(good, capsys):
    assert main(["check", good]) == 0
    assert capsys.readouterr().err == ""


def test_check_reports_diagnostics_on_stderr(bad, capsys):
    assert main(["check", bad]) == 1
    err = capsys.readouterr().err
    assert "error" in err and "bound" in err


def test_missing_file_is_an_io_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "/no/such/file.ekl"])
    assert exc.value.code == 3


def test_bad_binding_syntax_is_a_usage_error(good, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", good, "--in", "nonsense"])
    assert exc.value.code == 2


def test_bindings_are_checked_before_compiling(monkeypatch, capsys):
    """A usage error is reported as one, not hidden behind the type error
    of the kernel it names."""

    def no_call(*args, **kwargs):
        raise AssertionError("the source was compiled")

    monkeypatch.setattr("eklc.cli.compile_source", no_call)
    with pytest.raises(SystemExit) as exc:
        main(["run", corpus_path("invalid", "oob_01.ekl"), "--in", "garbage"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: --in expects NAME=PATH, got 'garbage'\n"


def test_dump_is_byte_stable(good, capsys):
    assert main(["dump", good, "--stage", "optimized"]) == 0
    first = capsys.readouterr().out
    assert main(["dump", good, "--stage", "optimized"]) == 0
    assert capsys.readouterr().out == first
    assert "ekl." in first


def test_the_ir_format_example_is_a_typed_dump(tmp_path, capsys):
    """The `## Example` block of docs/ir-format.md is what `eklc dump`
    prints for its kernel."""
    with open(os.path.join(REPO_ROOT, "docs", "ir-format.md"), encoding="utf-8") as f:
        doc = f.read()
    example = doc.split("## Example", 1)[1].split("```\n")[1]
    src = tmp_path / "k.ekl"
    src.write_text("kernel k(in x: f64[3], out y: f64[3]) { let y[i] = x[i] * 2; }\n")
    assert main(["dump", str(src), "--stage", "typed"]) == 0
    assert capsys.readouterr().out == example


def test_dump_rejects_unknown_stage(good):
    with pytest.raises(SystemExit) as exc:
        main(["dump", good, "--stage", "nonsense"])
    assert exc.value.code == 2


def test_run_with_bound_inputs_writes_outputs(good, tmp_path, capsys):
    x = tmp_path / "x.eklt"
    y = tmp_path / "y.eklt"
    write_tensor(x, TensorValue(F64, (4,), np.array([1.0, 2.0, 3.0, 4.0])))
    # Bind only x; let j come from the seed so the index stays in range.
    code = main(
        ["run", good, "--in", f"x={x}", "--out", f"y={y}", "--seed", "7"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "multiplies" in out and "random inputs: j" in out
    result = read_tensor(y)
    assert result.kind == F64 and result.shape == (4,)


def test_run_seed_makes_results_reproducible(good, tmp_path):
    a = tmp_path / "a.eklt"
    b = tmp_path / "b.eklt"
    assert main(["run", good, "--out", f"y={a}", "--seed", "5"]) == 0
    assert main(["run", good, "--out", f"y={b}", "--seed", "5"]) == 0
    np.testing.assert_array_equal(read_tensor(a).data, read_tensor(b).data)


def test_run_json_report_is_valid(good, capsys):
    assert main(["run", good, "--json", "--seed", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kernels"][0]["name"] == "scale"
    counters = report["kernels"][0]["counters"]
    assert set(counters) == {
        "multiplies",
        "adds",
        "comparisons",
        "gather_reads",
        "intermediate_elements",
    }


def test_run_dtype_mismatch_is_reported(good, tmp_path, capsys):
    x = tmp_path / "x.eklt"
    write_tensor(
        x, TensorValue(F64, (3,), np.zeros(3))
    )  # wrong extent for x: f64[4]
    assert main(["run", good, "--in", f"x={x}"]) == 1
    assert "dtype-mismatch" in capsys.readouterr().err


def test_stats_reports_lifting_ratio(tmp_path, capsys):
    src = tmp_path / "sf.ekl"
    src.write_text(SUMFACT)
    assert main(["stats", str(src), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    entry = report["kernels"][0]
    assert entry["naive"]["multiplies"] == 12288
    assert entry["lifted"]["multiplies"] == 768
    assert entry["multiply_ratio"] == 16.0
    assert set(report["stages"]) == {
        "typed",
        "simplified",
        "explicit",
        "generators",
        "optimized",
    }


def test_stats_compiles_the_source_once(tmp_path, monkeypatch):
    src = tmp_path / "sf.ekl"
    src.write_text(SUMFACT)
    calls = []
    parse_source = pipeline.parse_source

    def counted(*args, **kwargs):
        calls.append(args)
        return parse_source(*args, **kwargs)

    monkeypatch.setattr(pipeline, "parse_source", counted)
    assert main(["stats", str(src), "--json"]) == 0
    assert len(calls) == 1


def test_the_tracer_sees_every_pass_in_order(tmp_path, monkeypatch, capsys):
    """`bench/tracing.py` times a pass by wrapping the name that the
    pipeline calls it by; a pass called any other way would go untimed."""
    monkeypatch.syspath_prepend(os.path.join(REPO_ROOT, "bench"))
    tracing = importlib.import_module("tracing")
    src = tmp_path / "k.ekl"
    src.write_text(GOOD)
    calls = []

    def wrap(layer, fn):
        def called(*args, **kwargs):
            calls.append(layer)
            return fn(*args, **kwargs)

        return called

    with tracing.patched(wrap):
        assert main(["dump", str(src), "--stage", "optimized"]) == 0
    capsys.readouterr()
    passes = [
        layer
        for module, _, layer in tracing.LAYERS
        if module in ("pipeline", "optimize")
    ]
    # The parser, then each entry of PASSES once, in order.
    assert len(passes) == 1 + len(pipeline.PASSES)
    assert [layer for layer in calls if layer in passes] == passes


@pytest.mark.parametrize("command", ["dump", "run", "stats"])
@pytest.mark.parametrize("flag", ["--no-lift", "--no-fuse"])
def test_optimization_switches_are_unknown_arguments(good, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, good, flag])
    assert exc.value.code == 2


def test_notes_in_constant_extents_are_located(tmp_path, capsys):
    src = tmp_path / "ext.ekl"
    src.write_text(
        "kernel k(in a: f64[(2, 3)[_5]], in b: f64[2 / 0], out y: f64) "
        "{ let y = a[0]; }\n"
    )
    assert main(["check", str(src)]) == 1
    notes = [line for line in capsys.readouterr().err.splitlines() if "note:" in line]
    assert notes == [
        f"  note: {src}:1:26: lower bound index<6> exceeds upper bound index<2>",
        f"  note: {src}:1:45: division by zero",
    ]


def test_rational_division_by_zero_is_reported(tmp_path, capsys):
    src = tmp_path / "div.ekl"
    src.write_text(
        "kernel quot(in a: rational[2], in b: rational[2], out c: rational[2]) {\n"
        "  let c[i] = a[i] / b[i];\n"
        "}\n"
    )
    b = tmp_path / "b.eklr"
    write_tensor(b, TensorValue(RATIONAL, (2,), np.array([Fraction(0), Fraction(1)])))
    assert main(["run", str(src), "--in", f"b={b}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "division by zero" in err
    assert f"{src}:2:" in err


def _eklc(*argv):
    """Run the eklc command line in a fresh interpreter, where a NumPy
    RuntimeWarning is an error."""
    env = dict(
        os.environ,
        PYTHONPATH=os.path.join(REPO_ROOT, "src"),
        PYTHONWARNINGS="error::RuntimeWarning",
    )
    return subprocess.run(
        [sys.executable, "-m", "eklc.cli", *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_stats_reports_a_runtime_trap_without_a_traceback(tmp_path):
    src = tmp_path / "div.ekl"
    src.write_text(
        "kernel quot(in a: rational[40], in b: rational[40], out c: rational[40]) {\n"
        "  let c[i] = a[i] / b[i];\n"
        "}\n"
    )
    # Seed 2 draws a zero into b. A subprocess shows what a user sees.
    done = _eklc("stats", src, "--seed", "2")
    assert done.returncode == 1
    assert "division by zero" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "body, name",
    [
        ("let y = a;", "z"),
        # Seed 1 draws c false, so the branch that assigns z does not run.
        ("let y = a; if (c) { let z = a; }", "z"),
    ],
    ids=["never", "in_a_branch_not_taken"],
)
def test_an_unassigned_output_is_reported(tmp_path, body, name):
    src = tmp_path / "k.ekl"
    src.write_text(
        f"kernel k(in c: bool, in a: f64, out y: f64, out z: f64) {{\n  {body}\n}}\n"
    )
    out = tmp_path / f"{name}.eklt"
    done = _eklc("run", src, "--seed", "1", "--out", f"{name}={out}")
    assert done.returncode == 1
    assert done.stderr == f"error: {src}:1:1: output '{name}' was not assigned\n"
    assert not out.exists()


def test_a_rational_cast_out_of_range_is_reported(tmp_path):
    src = tmp_path / "cast.ekl"
    src.write_text(
        "kernel k(in a: rational[40], out y: si32[40]) {\n"
        "  let y[i] = a[i] * 1000000000;\n"
        "}\n"
    )
    # Seed 1 draws a value whose product does not fit si32.
    done = _eklc("run", src, "--seed", "1")
    assert done.returncode == 1
    assert done.stderr.startswith(f"error: {src}:2:")
    assert done.stderr.endswith(": value out of range for si32\n")
    assert done.stderr.count("\n") == 1


@pytest.mark.parametrize("command, seed", [("run", "-1"), ("stats", "-5")])
def test_a_negative_seed_is_a_usage_error(good, command, seed):
    done = _eklc(command, good, "--seed", seed)
    assert done.returncode == 2
    assert done.stderr == f"error: --seed expects a non-negative integer, got {seed}\n"


def test_a_rank_0_rational_cast_out_of_range_is_reported(tmp_path):
    src = tmp_path / "cast.ekl"
    src.write_text("kernel k(in r: rational, out y: si32) { let y = r * 1000000000; }\n")
    r = tmp_path / "r.eklr"
    write_tensor(r, TensorValue(RATIONAL, (), np.array(Fraction(3), dtype=object)))
    done = _eklc("run", src, "--in", f"r={r}")
    assert done.returncode == 1
    assert done.stderr == f"error: {src}:1:41: value out of range for si32\n"


@pytest.mark.parametrize("width, constant", [("64", "1e400"), ("32", "1e39")])
def test_a_constant_out_of_a_float_range_is_reported(tmp_path, width, constant):
    src = tmp_path / "big.ekl"
    src.write_text(f"kernel k(in a: f{width}, out y: f{width}) {{ let y = a + {constant}; }}\n")
    dump = _eklc("dump", src, "--stage", "optimized")
    assert dump.returncode == 0 and "Traceback" not in dump.stderr
    # The warning names the trap, without the digits of the constant.
    warned = (
        f"{src}:1:45: warning: rational constant is out of range for f{width}; "
        "evaluating it traps\n"
    )
    for command in ("run", "stats"):
        done = _eklc(command, src)
        assert done.returncode == 1, done.stderr
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith(warned) and "000000" not in done.stderr
        assert done.stderr.endswith(f"error: {src}:1:45: value out of range for f{width}\n")


def test_repeated_calls_in_one_process_share_no_state(good, tmp_path, capsys):
    x = tmp_path / "x.eklt"
    y = tmp_path / "y.eklt"
    write_tensor(x, TensorValue(F64, (4,), np.array([1.0, 2.0, 3.0, 4.0])))

    def report(*argv):
        assert main(["run", good, "--json", *argv]) == 0
        (kernel,) = json.loads(capsys.readouterr().out)["kernels"]
        return kernel["random_inputs"], kernel["outputs"]

    assert report("--in", f"x={x}", "--out", f"y={y}") == (["j"], {"y": str(y)})
    # Bindings of the call before do not carry over.
    assert report() == (["x", "j"], {})
    assert report("--out", f"y={y}") == (["x", "j"], {"y": str(y)})

    src = tmp_path / "sf.ekl"
    src.write_text(SUMFACT.replace("rational", "f64"))

    def dump(*flags):
        assert main(["dump", str(src), "--stage", "optimized", *flags]) == 0
        return capsys.readouterr().out

    plain = dump()
    assert dump("--fast-math") != plain
    assert dump() == plain

    with pytest.raises(SystemExit) as exc:
        main(["run", good, "--seed", "many"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("eklc ")
    assert main(["check", good]) == 0


TWO_OUTPUTS = """
kernel two(in x: f64[4], in j: index<4>[4], out y: f64[4], out z: f64[4]) {
  let y[i] = x[j[i]] * 2;
  let z[i] = x[i] + x[i];
}
"""


def test_each_call_sees_only_its_own_arguments(bad, tmp_path, monkeypatch, capsys):
    """`main` reuses one parser across calls: no binding, seed or
    `--fast-math` of one call reaches the next, and a usage error still
    goes to the stderr of its own call."""
    src = tmp_path / "two.ekl"
    src.write_text(TWO_OUTPUTS)
    x, j = tmp_path / "x.eklt", tmp_path / "j.eklt"
    y, z = tmp_path / "y.eklt", tmp_path / "z.eklt"
    write_tensor(x, TensorValue(F64, (4,), np.array([1.0, 2.0, 3.0, 4.0])))
    write_tensor(j, TensorValue(SI64, (4,), np.array([3, 2, 1, 0])))
    seen = []
    compile_source, random_inputs = cli.compile_source, cli.random_inputs

    def compiled(*args, **kwargs):
        seen.append(("fast_math", kwargs.get("fast_math", False)))
        return compile_source(*args, **kwargs)

    def drawn(kernel, rng):
        seen.append(("seed", rng.bit_generator.seed_seq.entropy))
        return random_inputs(kernel, rng)

    monkeypatch.setattr("eklc.cli.compile_source", compiled)
    monkeypatch.setattr("eklc.cli.random_inputs", drawn)

    argv = ["run", str(src), "--in", f"x={x}", "--in", f"j={j}",
            "--out", f"y={y}", "--out", f"z={z}", "--seed", "3", "--fast-math", "--json"]
    assert main(argv) == 0
    (kernel,) = json.loads(capsys.readouterr().out)["kernels"]
    assert (kernel["random_inputs"], kernel["outputs"]) == ([], {"y": str(y), "z": str(z)})
    assert seen == [("fast_math", True)]
    np.testing.assert_array_equal(read_tensor(y).data, [8.0, 6.0, 4.0, 2.0])

    seen.clear()
    z.unlink()
    assert main(["run", str(src), "--out", f"z={z}"]) == 0
    assert capsys.readouterr().out.splitlines()[:3] == [
        "kernel two:", "  random inputs: x, j", f"  wrote z -> {z}"
    ]
    assert seen == [("fast_math", False), ("seed", 0)]
    assert z.exists()

    assert main(["check", bad]) == 1
    assert "error" in capsys.readouterr().err

    for argv, usage in [
        (["run", str(src), "--in", "x"], None),
        (["dump", str(src), "--stage", "nope"], "usage: eklc dump "),
    ]:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        if usage is None:
            assert err.getvalue() == "error: --in expects NAME=PATH, got 'x'\n"
        else:
            assert err.getvalue().startswith(usage)
            assert "invalid choice: 'nope'" in err.getvalue()
    assert capsys.readouterr() == ("", "")


def test_repeated_calls_build_the_parser_once(good, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    for _ in range(10):
        assert main(["check", good]) == 0
    # The main parser and one parser per subcommand.
    assert len(built) <= 5, built


def test_check_output_of_the_invalid_corpus_is_pinned(monkeypatch, capsys):
    """`eklc check` prints the same diagnostics, in the same order, with the
    same exit code as pinned in `golden/invalid_check.json`."""
    with open(os.path.join(REPO_ROOT, "tests", "golden", "invalid_check.json")) as f:
        golden = json.load(f)
    assert len(golden) == 20
    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.setenv("EKLC_COLOR", "never")
    for name, expected in sorted(golden.items()):
        code = main(["check", f"corpus/invalid/{name}"])
        assert (code, capsys.readouterr().err) == (expected["exit"], expected["stderr"]), name


@pytest.mark.parametrize("kind", ["si8", "si16", "index<4>"])
def test_an_output_with_no_file_format_is_refused_before_running(
    kind, tmp_path, monkeypatch, capsys
):
    src = tmp_path / "k.ekl"
    src.write_text(f"kernel k(in a: {kind}[3], out y: {kind}[3]) {{ let y[i] = a[i]; }}")
    y = tmp_path / "y.eklt"

    def no_run(*args):
        raise AssertionError("a kernel ran")

    monkeypatch.setattr("eklc.cli.eval_kernel", no_run)
    assert main(["run", str(src), "--out", f"y={y}"]) == 1
    err = capsys.readouterr().err
    assert err == f"error [io-error]: output 'y': kind {kind} has no serialized form\n"
    assert not y.exists()


def test_a_source_that_is_not_utf8_is_an_io_error(tmp_path, capsys):
    src = tmp_path / "bad.ekl"
    src.write_bytes(b"\xff")
    with pytest.raises(SystemExit) as exc:
        main(["check", str(src)])
    assert exc.value.code == 3
    assert capsys.readouterr().err.startswith(f"error: cannot read {src}: ")


@pytest.mark.parametrize(
    "flag, name, role",
    [("--in", "nosuch", "input"), ("--in", "y", "input"), ("--out", "nosuch", "output"),
     ("--out", "x", "output")],
)
def test_a_binding_that_no_kernel_declares_is_refused(
    flag, name, role, good, tmp_path, monkeypatch, capsys
):
    path = tmp_path / "t.eklt"

    def no_call(*args):
        raise AssertionError("a tensor was read or a kernel ran")

    monkeypatch.setattr("eklc.cli.read_tensor", no_call)
    monkeypatch.setattr("eklc.cli.eval_kernel", no_call)
    assert main(["run", good, flag, f"{name}={path}"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {flag} names '{name}', which no kernel declares as an {role}\n"
    assert not path.exists()


@pytest.mark.parametrize("flag, name", [("--in", "x"), ("--out", "y")])
def test_a_name_bound_twice_is_refused(flag, name, good, tmp_path, monkeypatch, capsys):
    first, second = tmp_path / "1.eklt", tmp_path / "2.eklt"

    def no_call(*args):
        raise AssertionError("a tensor was read or a kernel ran")

    monkeypatch.setattr("eklc.cli.read_tensor", no_call)
    monkeypatch.setattr("eklc.cli.eval_kernel", no_call)
    with pytest.raises(SystemExit) as exc:
        main(["run", good, flag, f"{name}={first}", flag, f"{name}={second}"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: {flag} binds '{name}' twice\n"
    assert not first.exists() and not second.exists()
