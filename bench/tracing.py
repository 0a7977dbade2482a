"""Per-layer spans and counts, taken from the real eklc CLI path.

`eklc.pipeline`, `eklc.optimize` and `eklc.cli` call each layer through
a module-level name (`parse_source`, `type_check`, ..., `eval_kernel`).
`patched` replaces those names with wrappers for as long as it is open
and restores them afterwards, so a traced operation is a plain
`eklc.cli.main` call: no second copy of the CLI exists to drift from it.

`Tracer` wraps each layer call in a span. The root span of an operation
is named `cli`; what it covers beyond its child spans (argument parsing,
reading the source, input signature checks, `TensorValue` conversion,
diagnostic and report rendering) is `cli.self_ms`. `count_job` wraps the
same calls with counters instead, in one untimed job.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

from eklc.ir import count_ops, walk_lexical

from workloads import Op, Result, call_cli

# (eklc module that makes the call, the name it calls, the layer).
LAYERS = (
    ("pipeline", "parse_source", "parser.parse"),
    ("pipeline", "type_check", "typecheck.check"),
    ("pipeline", "simplify", "normalize.simplify"),
    ("pipeline", "materialize_casts", "normalize.casts"),
    ("pipeline", "to_generator_form", "normalize.generators"),
    ("optimize", "lift_reductions", "optimize.lift"),
    ("optimize", "if_to_choice", "optimize.if_to_choice"),
    ("optimize", "fuse_producers", "optimize.fuse"),
    ("optimize", "lower_rationals", "optimize.lower_rationals"),
    ("cli", "print_ir", "ir_text.print"),
    ("cli", "read_tensor", "tensor_io.read"),
    ("cli", "write_tensor", "tensor_io.write"),
    ("cli", "eval_kernel", "interp.eval"),
)
TIMED_LAYERS = tuple(layer for _, _, layer in LAYERS) + ("cli",)
COUNTS = (
    "parser.ast_ops",
    "typecheck.iterations",
    "typecheck.typed_ops",
    "normalize.ops_out",
    "optimize.fused_assocs",
    "optimize.ops_out",
    "ir_text.dump_bytes",
    "tensor_io.bytes",
    "interp.multiplies",
    "interp.adds",
    "interp.gather_reads",
    "interp.intermediate_elements",
)


@contextmanager
def patched(wrap):
    """Call `wrap(layer, original)` for each layer and put what it returns
    in place of the original name until the block ends."""
    saved = []
    try:
        for module, name, layer in LAYERS:
            owner = importlib.import_module(f"eklc.{module}")
            original = getattr(owner, name)
            saved.append((owner, name, original))
            setattr(owner, name, wrap(layer, original))
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, job id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, self.job]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def _timed(self, layer: str, fn):
        def timed(*args, **kwargs):
            with self.span(layer):
                return fn(*args, **kwargs)

        return timed

    def run_job(self, ops: list[Op]) -> list[Result]:
        """One job through `eklc.cli.main`, every layer call in a span."""
        results = []
        with patched(self._timed):
            for op in ops:
                with self.span("cli"):
                    results.append(call_cli(op.argv()))
        return results

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "job"], "spans": self.spans}, f
            )


# --- counts ------------------------------------------------------------------


def _assocs(module) -> int:
    return sum(1 for op in walk_lexical(module) if op.kind == "ekl.assoc")


def _count_parse(counts, fn, *args, **kwargs):
    module, diags = fn(*args, **kwargs)
    if module is not None:
        counts["parser.ast_ops"] += count_ops(module)
    return module, diags


def _count_typecheck(counts, fn, module, *args, **kwargs):
    checker, diags = fn(module, *args, **kwargs)
    counts["typecheck.iterations"] += checker.state.iterations
    counts["typecheck.typed_ops"] += count_ops(module)
    return checker, diags


def _count_generators(counts, fn, module, *args, **kwargs):
    result = fn(module, *args, **kwargs)
    counts["normalize.ops_out"] += count_ops(module)
    return result


def _count_fuse(counts, fn, module, *args, **kwargs):
    before = _assocs(module)
    result = fn(module, *args, **kwargs)
    counts["optimize.fused_assocs"] += before - _assocs(module)
    return result


def _count_lower(counts, fn, module, *args, **kwargs):
    result = fn(module, *args, **kwargs)
    counts["optimize.ops_out"] += count_ops(module)
    return result


def _count_print(counts, fn, *args, **kwargs):
    text = fn(*args, **kwargs)
    counts["ir_text.dump_bytes"] += len(text.encode())
    return text


def _count_file(counts, fn, path, *args, **kwargs):
    result = fn(path, *args, **kwargs)
    counts["tensor_io.bytes"] += os.path.getsize(path)
    return result


def _count_eval(counts, fn, *args, **kwargs):
    outputs, counters = fn(*args, **kwargs)
    for key in ("multiplies", "adds", "gather_reads", "intermediate_elements"):
        counts[f"interp.{key}"] += getattr(counters, key)
    return outputs, counters


COUNTERS = {
    "parser.parse": _count_parse,
    "typecheck.check": _count_typecheck,
    "normalize.generators": _count_generators,
    "optimize.fuse": _count_fuse,
    "optimize.lower_rationals": _count_lower,
    "ir_text.print": _count_print,
    "tensor_io.read": _count_file,
    "tensor_io.write": _count_file,
    "interp.eval": _count_eval,
}


def count_job(ops: list[Op]) -> dict[str, int]:
    """Work counts of one untimed job through `eklc.cli.main`."""
    counts = dict.fromkeys(COUNTS, 0)

    def wrap(layer, fn):
        counter = COUNTERS.get(layer)
        if counter is None:
            return fn
        return lambda *args, **kwargs: counter(counts, fn, *args, **kwargs)

    with patched(wrap):
        for op in ops:
            call_cli(op.argv())
    return counts


# --- metrics -----------------------------------------------------------------


def self_times_ms(tr: Tracer) -> dict[int, dict[str, float]]:
    """Per job, the self time of each layer: span time not covered by
    child spans."""
    self_s = [s[2] - s[1] for s in tr.spans]
    for name, start, end, parent, job in tr.spans:
        if parent is not None:
            self_s[parent] -= end - start
    per_job: dict[int, dict[str, float]] = defaultdict(lambda: dict.fromkeys(TIMED_LAYERS, 0.0))
    for (name, _, _, _, job), s in zip(tr.spans, self_s):
        per_job[job][name] += s * 1e3
    return per_job


def layer_metrics(
    tr: Tracer, traced_ms: dict[int, float], untraced_ms: list[float], counts: dict[str, int]
) -> dict[str, tuple[float, str]]:
    """Median per-job self time of each layer, the job counts, and the
    tracing overhead (traced minus untraced job_ms_p50)."""
    per_job = self_times_ms(tr)
    jobs = sorted(traced_ms)
    metrics: dict[str, tuple[float, str]] = {}
    for layer in TIMED_LAYERS:
        name = "cli.self_ms" if layer == "cli" else f"{layer}_ms"
        metrics[name] = (statistics.median(per_job[j][layer] for j in jobs), "ms")
    for key in COUNTS:
        unit = "bytes" if key.endswith("bytes") else "count"
        metrics[key] = (counts[key], unit)
    traced = statistics.median(traced_ms[j] for j in jobs)
    untraced = statistics.median(untraced_ms)
    unaccounted = [traced_ms[j] - sum(per_job[j].values()) for j in jobs]
    metrics["trace.job_ms_p50"] = (traced, "ms")
    metrics["trace.overhead_ms"] = (traced - untraced, "ms")
    metrics["trace.unaccounted_ms"] = (statistics.median(unaccounted), "ms")
    return metrics
