"""Staged compilation driver.

Stages, in order:

- ``ast``: parsed module; only literals and kernel arguments are typed.
- ``typed``: after deductive fix-point type checking.
- ``simplified``: constants folded, choices on constant conditions
  dissolved, algebraic identities applied, dead operations removed.
- ``explicit``: implicit conversions turned into explicit casts,
  ellipsis subscripts expanded.
- ``generators``: elementwise array operations rewritten to generator
  form with loop-invariant subtrees hoisted.
- ``optimized``: reductions factored into staged sweeps, choices that
  the casts of ``explicit`` made constant dissolved, single-use
  producers fused, exact rational literals lowered to machine
  constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import optimize
from .diagnostics import Diagnostic
from .ir import Operation, clone_op
from .normalize import materialize_casts, simplify, to_generator_form
from .parser import parse_source
from .typecheck import type_check


def _no_diagnostics(module: Operation) -> list[Diagnostic]:
    return []


# Every pass after parsing, in order, with its stage; a stage is complete
# after its last pass. A pass takes the module and the fast-math setting
# and returns the diagnostics it reports. Each lambda looks its pass up
# when it runs, by name in this module or in `optimize`, so a wrapper set
# on that name (as a tracer does) is the one called.
PASSES = (
    ("typed", lambda m, fast: type_check(m)[1]),
    ("simplified", lambda m, fast: _no_diagnostics(simplify(m))),
    ("explicit", lambda m, fast: _no_diagnostics(materialize_casts(m))),
    ("generators", lambda m, fast: _no_diagnostics(to_generator_form(m))),
    ("optimized", lambda m, fast: _no_diagnostics(optimize.lift_reductions(m, fast))),
    ("optimized", lambda m, fast: _no_diagnostics(optimize.if_to_choice(m))),
    ("optimized", lambda m, fast: _no_diagnostics(optimize.fuse_producers(m))),
    ("optimized", lambda m, fast: optimize.lower_rationals(m)),
)

# How many of the passes it takes to reach each stage.
_REACH = {"ast": 0} | {stage: n for n, (stage, _) in enumerate(PASSES, start=1)}
STAGES = tuple(_REACH)


@dataclass
class CompileResult:
    module: Operation | None
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def warnings(self) -> list[Diagnostic]:
        """The warnings among `diagnostics`, in the order reported."""
        return [d for d in self.diagnostics if d.severity == "warning"]

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

    Stops at the first pass that reports an error and drops the module.
    With `snapshots`, each stage after `ast` and before `stage` is saved
    there as a copy made by `clone_op`, which shares no op or value with
    the module that the later passes go on to rewrite.
    """
    if stage not in _REACH:
        raise ValueError(f"unknown stage {stage!r}")
    module, diagnostics = parse_source(source, filename)
    result = CompileResult(module, diagnostics)
    for name, run in PASSES[: _REACH[stage]]:
        if not result.ok:
            break
        result.diagnostics.extend(run(module, fast_math))
        # Every stage before `optimized` is a single pass.
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
    stages["optimized"] = result.module
    return (stages if result.ok else {}), result.diagnostics
