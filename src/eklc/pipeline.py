"""Staged compilation driver.

Stages, in order:

- ``ast``: parsed module; only literals and kernel arguments are typed.
- ``typed``: after deductive fix-point type checking.
- ``simplified``: constants folded, algebraic identities applied, dead
  operations removed.
- ``explicit``: implicit conversions turned into explicit casts,
  ellipsis subscripts expanded.
- ``generators``: elementwise array operations rewritten to generator
  form with loop-invariant subtrees hoisted.
- ``optimized``: reductions factored into staged sweeps, choices on
  constant conditions dissolved, single-use producers fused, exact
  rational literals lowered to machine constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagnostics import Diagnostic
from .ir import Operation, clone_op
from .normalize import materialize_casts, simplify, to_generator_form
from .optimize import optimize
from .parser import parse_source
from .typecheck import type_check

STAGES = ("ast", "typed", "simplified", "explicit", "generators", "optimized")


def _no_diagnostics(module: Operation) -> list[Diagnostic]:
    return []


# Each stage after `ast`, in order, with the pass that produces it from the
# stage before. A pass takes the module and the fast-math setting and
# returns the diagnostics it reports. The lambdas look each pass up by its
# name in this module when they run, so a wrapper set on that name (as a
# tracer does) is the one called.
PASSES = (
    ("typed", lambda module, fast_math: type_check(module)[1]),
    ("simplified", lambda module, fast_math: _no_diagnostics(simplify(module))),
    ("explicit", lambda module, fast_math: _no_diagnostics(materialize_casts(module))),
    ("generators", lambda module, fast_math: _no_diagnostics(to_generator_form(module))),
    ("optimized", lambda module, fast_math: optimize(module, fast_math)),
)


@dataclass
class CompileResult:
    module: Operation | None
    diagnostics: list[Diagnostic] = field(default_factory=list)
    warnings: list[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.module is not None and not any(
            d.severity == "error" for d in self.diagnostics
        )


def _compile(
    source: str,
    filename: str,
    stage: str,
    fast_math: bool,
    snapshots: dict[str, Operation] | None = None,
) -> CompileResult:
    """Parse, then run the passes in order up to and including `stage`.

    Stops at the first stage that reports an error and drops the module.
    With `snapshots`, each stage after `ast` and before `stage` is saved
    there as a copy made by `clone_op`, which shares no op or value with
    the module that the later passes go on to rewrite.
    """
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}")
    module, diagnostics = parse_source(source, filename)
    result = CompileResult(module, diagnostics)
    for name, run in PASSES[: STAGES.index(stage)]:
        if not result.ok:
            break
        for d in run(module, fast_math):
            kept = result.warnings if d.severity == "warning" else result.diagnostics
            kept.append(d)
        if snapshots is not None and name != stage:
            snapshots[name] = clone_op(module, {})
    if not result.ok:
        result.module = None
    return result


def compile_source(
    source: str,
    filename: str = "<input>",
    stage: str = "optimized",
    fast_math: bool = False,
) -> CompileResult:
    """Compile EKL source up to and including the requested stage."""
    return _compile(source, filename, stage, fast_math)


def compile_all_stages(
    source: str,
    filename: str = "<input>",
    fast_math: bool = False,
) -> tuple[dict[str, Operation], list[Diagnostic]]:
    """Compile once, snapshotting a copy (`clone_op`) of the module at each
    stage.

    Returns an empty dict together with the diagnostics when any stage
    fails. The ``ast`` snapshot is omitted since most of its values carry
    no types yet and it cannot be evaluated.
    """
    stages: dict[str, Operation] = {}
    result = _compile(source, filename, "optimized", fast_math, stages)
    if not result.ok:
        return {}, result.diagnostics
    stages["optimized"] = result.module
    return stages, result.diagnostics + result.warnings
