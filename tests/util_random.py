"""Random well-formed module generation for stability and termination tests.

Modules are built directly as IR in the form the parser gives: a literal
carries its type as its result type, and every other expression value
starts at the universal expression type. The generator tracks the types
the checker must deduce, so generated programs always verify and always
type-check successfully. Subscripts read each axis at a literal index or
keep it whole, and may write a run of whole axes as one ellipsis.
"""

from __future__ import annotations

import numpy as np

from eklc.diagnostics import Location
from eklc.ir import Block, Operation, StringAttr, TypeAttr, Value
from eklc.ops import index_literal, make_subscript, number_literal
from eklc.types import (
    EXPR,
    F32,
    F64,
    RATIONAL,
    SI32,
    SI64,
    ArrayType,
    CombineError,
    Type,
    broadcast_and_promote,
    promote,
    scalar_of,
    shape_of,
    with_shape,
)

_INPUT_SCALARS = (F64, F32, SI32, SI64, RATIONAL)


def _random_shape(rng: np.random.Generator) -> tuple[int, ...]:
    rank = int(rng.integers(0, 3))
    return tuple(int(rng.integers(2, 5)) for _ in range(rank))


def random_kernel(
    parent: Block, rng: np.random.Generator, name: str, n_ops: int
) -> Operation:
    """Append one kernel with roughly n_ops operations to a program block."""
    block = Block()
    kernel = Operation(
        "ekl.kernel",
        attrs={"name": StringAttr(name)},
        regions=[block],
    )
    parent.append(kernel)

    pool: list[tuple[Value, Type]] = []
    n_in = int(rng.integers(2, 5))
    for i in range(n_in):
        scalar = _INPUT_SCALARS[int(rng.integers(0, len(_INPUT_SCALARS)))]
        shape = _random_shape(rng)
        t: Type = ArrayType(scalar, shape) if shape else scalar
        arg = block.add_arg(t)
        kernel.attrs[f"in{i}"] = StringAttr(f"in{i}")
        pool.append((arg, t))

    def pick() -> tuple[Value, Type]:
        return pool[int(rng.integers(0, len(pool)))]

    ops_made = 0
    while ops_made < n_ops:
        choice = rng.integers(0, 10)
        if choice < 1:
            lit = number_literal(int(rng.integers(-50, 51)))
            block.append(lit)
            pool.append((lit.result, RATIONAL))
            ops_made += 1
        elif choice < 7:
            kind = ("ekl.add", "ekl.sub", "ekl.mul")[int(rng.integers(0, 3))]
            (a, ta), (b, tb) = pick(), pick()
            try:
                rt = broadcast_and_promote([ta, tb])
            except CombineError:
                continue
            op = Operation(kind, operands=[a, b], result_type=EXPR)
            block.append(op)
            pool.append((op.result, rt))
            ops_made += 1
        elif choice < 8:
            a, ta = pick()
            op = Operation("ekl.neg", operands=[a], result_type=EXPR)
            block.append(op)
            pool.append((op.result, ta))
            ops_made += 1
        else:
            a, ta = pick()
            shape = shape_of(ta)
            if not shape:
                continue
            marks, indices, kept = "", [], []
            for extent in shape:
                if rng.integers(0, 4) == 0:
                    marks += ":"
                    kept.append(extent)
                    continue
                lit = index_literal(int(rng.integers(0, extent)))
                block.append(lit)
                indices.append(lit.result)
                marks += "i"
                ops_made += 1
            if rng.integers(0, 3) == 0:
                # An ellipsis for the run of whole axes from `start`, if any.
                start = end = int(rng.integers(0, len(marks) + 1))
                while end < len(marks) and marks[end] == ":":
                    end += 1
                marks = marks[:start] + "." + marks[end:]
            op = make_subscript(a, indices, EXPR, Location(), marks)
            block.append(op)
            pool.append((op.result, with_shape(scalar_of(ta), tuple(kept))))
            ops_made += 1

    out, out_t = pool[-1]
    if out_t == RATIONAL:
        out_t = F64
    kernel.attrs["out0"] = StringAttr("result")
    kernel.attrs["out0_type"] = TypeAttr(out_t)
    block.append(
        Operation(
            "ekl.output",
            operands=[out],
            attrs={"name": StringAttr("result"), "type": TypeAttr(out_t)},
        )
    )
    return kernel


def random_module(rng: np.random.Generator, n_ops: int = 40) -> Operation:
    """A random well-formed program whose kernels total about n_ops ops."""
    program = Operation("ekl.program", regions=[Block()])
    n_kernels = int(rng.integers(1, 4))
    per = max(1, n_ops // n_kernels)
    for i in range(n_kernels):
        random_kernel(program.body(), rng, f"k{i}", per)
    return program
