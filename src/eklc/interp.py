"""Evaluators for typed modules.

Two independent routes: `eval_ast_oracle` is a naive dynamically typed
tree walker used as a semantic baseline, and `eval_kernel` runs the
instrumented grid evaluator, which honors the deduced machine types and
counts scalar arithmetic operations. Both enforce the bounds-safety
contract at runtime.

The grid evaluator follows the paper's parallel-first lowering: it walks
each block once and evaluates every op over its generator grid with
NumPy, never one element at a time. The kernel body runs over the empty
grid; the body of an `ekl.assoc` runs over the enclosing grid followed
by the assoc's own extents, and an `ekl.reduce` sums every element axis
of its operand. A value is held as an array with one axis per grid axis
of the block that defined it, of extent 1 where the value does not vary,
followed by the axes of its own type. An op that reads a value defined
over a shorter grid, or combines it with a value of higher rank, inserts
axes of extent 1 between the two groups, so NumPy broadcasting never
aligns a grid axis with an element axis. Counters follow the
element-at-a-time model: one count per grid point per scalar op.

The oracle computes on `Fraction`s. The evaluator holds a rational value
as a `_Pair`: an object array of Python-int numerators over one positive
denominator that the whole array shares (Knuth, TAOCP Vol. 2, 4.5.1, on
delaying gcd work). An input, or a float cast to rational, is scaled once
to the lcm of its denominators; an integer or a literal has denominator
1, or that of the literal. Then `mul` and `neg` touch one object array,
`add` and `sub` scale the numerators by two scalar quotients (none when
the denominators are equal), a reduction sums the numerators, comparisons
cross-multiply, and `stack`, `choice` and gathers bring their operands
to one denominator. A pair is brought toward lowest terms at
every reduction result and every assoc result of the kernel body by one
gcd taken over its denominator and all its numerators. Two cases keep
one denominator per element instead, and then every op works element by
element: a quotient by an array, and a value whose lcm of denominators
has more than `_COMMON_BITS` (1024) bits, such as thousands of distinct
prime denominators. The rule depends only on the value's denominators.

A value crosses the kernel boundary with one conversion each way, by
`_convert`, which also converts literals. When the kernel starts, each
input becomes a pair or an array of its declared machine dtype, and an
index-typed input out of its range is a `BoundsTrap` naming the input; a
rational input given by `rational_input` is a pair already, and no
`Fraction` of it is built. At `ekl.output` the value becomes an array of
the declared dtype (a NumPy scalar at rank 0), or reduced `Fraction`s for
a rational, each built once. A declared output that the body did not
assign is an `EvalError` once the body has run.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .ir import (
    Block,
    IntAttr,
    Operation,
    RationalAttr,
    Value,
    kernel_inputs,
    kernel_outputs,
    kernels_of,
)
from .ops import expanded_slots
from .types import (
    F64,
    ArrayType,
    BoolType,
    FloatType,
    IndexType,
    IntType,
    RationalType,
    Type,
    rational_to_float,
    scalar_of,
    shape_of,
)


class EvalError(Exception):
    """Runtime evaluation failure (not a bounds violation)."""


class BoundsTrap(EvalError):
    """A deduced index bound was violated at run time."""


@dataclass
class OpCounters:
    """Scalar arithmetic counters accumulated by the instrumented evaluator."""

    multiplies: int = 0
    adds: int = 0
    comparisons: int = 0
    gather_reads: int = 0
    intermediate_elements: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


_INT_DTYPES = {8: np.int8, 16: np.int16, 32: np.int32, 64: np.int64}
_FLOAT_DTYPES = {32: np.float32, 64: np.float64}


def dtype_for(scalar: Type):
    if isinstance(scalar, IntType):
        return _INT_DTYPES[scalar.width]
    if isinstance(scalar, FloatType):
        return _FLOAT_DTYPES[scalar.width]
    if isinstance(scalar, IndexType):
        return np.int64
    if isinstance(scalar, BoolType):
        return np.bool_
    if isinstance(scalar, RationalType):
        return object
    raise EvalError(f"no runtime representation for type {scalar}")


_ARITH_FUNCS = {
    "ekl.add": operator.add,
    "ekl.sub": operator.sub,
    "ekl.mul": operator.mul,
    "ekl.div": operator.truediv,
}

_CMP_FUNCS = {
    "eq": operator.eq,
    "ne": operator.ne,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
}


_INPLACE_FUNCS = {
    "ekl.add": operator.iadd,
    "ekl.sub": operator.isub,
    "ekl.mul": operator.imul,
    "ekl.div": operator.itruediv,
}


def _apply_arith(op: Operation, a, b, in_place: bool = False):
    """Apply a binary arith op, into `a` when `in_place`; a rational
    division by zero is an EvalError."""
    funcs = _INPLACE_FUNCS if in_place else _ARITH_FUNCS
    try:
        return funcs[op.kind](a, b)
    except ZeroDivisionError:
        raise EvalError(f"{op.location}: division by zero") from None


def _attr_value(attr):
    if isinstance(attr, (RationalAttr, IntAttr)):
        return attr.value
    raise EvalError(f"cannot evaluate attribute {attr!r}")


# Exact (numerator, denominator) of each element, lowest terms and a
# positive denominator: Fractions, ints, bools and floats all provide it.
_RATIO = np.frompyfunc(operator.methodcaller("as_integer_ratio"), 1, 2)
_FRACTION = np.frompyfunc(Fraction, 2, 1)


# An array takes one denominator, the lcm of its own, only while that lcm
# has at most this many bits; past it the array keeps one denominator per
# element. Random denominators up to 100 have an lcm of at most 136 bits
# (that of 1 to 100); thousands of distinct prime denominators would make
# every numerator a number of tens of thousands of bits.
_COMMON_BITS = 1024


class _Pair:
    """Exact rational array: Python-int numerators over positive Python-int
    denominators. `num` is an object array. In the common form `den` is one
    Python int that every element shares; in the per-element form it is an
    object array of `num`'s shape, which only division by an array and a
    value whose lcm of denominators exceeds `_COMMON_BITS` bits produce.
    Not necessarily in lowest terms; see `reduced`."""

    __slots__ = ("num", "den")

    def __init__(self, num, den) -> None:
        # Ufuncs on 0-d object arrays return bare Python ints.
        self.num = np.asarray(num, dtype=object)
        self.den = den if type(den) is int else np.asarray(den, dtype=object)

    @staticmethod
    def of(value) -> _Pair:
        """The pair form of a rational, integer, bool or float value."""
        if isinstance(value, _Pair):
            return value
        arr = np.asarray(value)
        if arr.dtype == object or arr.dtype.kind == "f":
            return _Pair(*_RATIO(arr)).common()
        return _Pair(arr.astype(np.int64).astype(object), 1)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.num.shape

    @property
    def ndim(self) -> int:
        return self.num.ndim

    @property
    def is_common(self) -> bool:
        return type(self.den) is int

    def common(self) -> _Pair:
        """This pair over the lcm of its denominators, unless that lcm
        exceeds `_COMMON_BITS` bits."""
        if self.is_common:
            return self
        lcm = 1
        for d in set(self.den.flat):
            lcm = math.lcm(lcm, d)
            if lcm.bit_length() > _COMMON_BITS:
                return self
        return _Pair(self.num * (lcm // self.den), lcm)

    def per_element(self) -> _Pair:
        """This pair with one denominator per element, as a view."""
        if self.is_common:
            den = np.broadcast_to(np.array(self.den, dtype=object), self.num.shape)
            return _Pair(self.num, den)
        return self

    def reduced(self) -> _Pair:
        """Divide out the gcd of the denominator and every numerator, or of
        each element's own numerator and denominator."""
        if self.is_common:
            g = math.gcd(self.den, *self.num.flat)
            return self if g == 1 else _Pair(self.num // g, self.den // g)
        g = np.gcd(self.num, self.den)
        return _Pair(self.num // g, self.den // g)

    def to(self, scalar: Type) -> np.ndarray:
        """Cast to a machine kind, as `float`, `int` and `bool` cast a
        Fraction: floats round correctly and integers truncate toward
        zero. A value the kind cannot hold raises OverflowError."""
        if isinstance(scalar, FloatType):
            out = np.asarray(self.num / self.den, dtype=np.float64)
            with np.errstate(over="ignore"):
                out = out.astype(dtype_for(scalar), copy=False)
            if np.isinf(out).any():
                raise OverflowError
            return out
        if isinstance(scalar, BoolType):
            return np.asarray(self.num != 0)
        # Truncate on Python ints: `astype` then raises on a value out of
        # range, where a machine integer would wrap.
        q = np.asarray(np.abs(self.num) // self.den, dtype=object)
        return np.where(self.num < 0, -q, q).astype(dtype_for(scalar))

    def __neg__(self) -> _Pair:
        return _Pair(-self.num, self.den)

    def __add__(self, other: _Pair) -> _Pair:
        return self._add(other, operator.add)

    def __sub__(self, other: _Pair) -> _Pair:
        return self._add(other, operator.sub)

    def _add(self, other: _Pair, f) -> _Pair:
        if self.is_common and other.is_common:
            den = math.lcm(self.den, other.den)
            return _Pair(f(_scaled(self, den), _scaled(other, den)), den)
        a, b = self.per_element(), other.per_element()
        return _Pair(f(a.num * b.den, b.num * a.den), a.den * b.den)

    def __mul__(self, other: _Pair) -> _Pair:
        if not (self.is_common and other.is_common):
            self, other = self.per_element(), other.per_element()
        return _Pair(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: _Pair) -> _Pair:
        """Division; by one value (with its extent-1 axes) the quotient
        keeps the common form, by an array it takes one denominator per
        element."""
        if (other.num == 0).any():
            raise ZeroDivisionError
        if self.is_common and other.is_common and other.num.size == 1:
            d = other.num.flat[0]
            factor = other.den if d > 0 else -other.den
            return _Pair(self.num * factor, self.den * abs(d))
        a, b = self.per_element(), other.per_element()
        num = a.num * b.den
        den = a.den * b.num
        flip = b.num < 0
        return _Pair(np.where(flip, -num, num), np.where(flip, -den, den))

    def sum(self) -> _Pair:
        """Sum over the last axis; per element, over the lcm of its
        denominators."""
        if self.is_common:
            return _Pair(self.num.sum(axis=-1), self.den)
        # On a 1-d pair the lcm is a bare Python int.
        den = np.lcm.reduce(self.den, axis=-1)
        scale = np.asarray(den, dtype=object)[..., None] // self.den
        return _Pair((self.num * scale).sum(axis=-1), den)


def _scaled(x: _Pair, den: int) -> np.ndarray:
    """The numerators of common-form `x` over `den`, a multiple of its own."""
    return x.num if x.den == den else x.num * (den // x.den)


def rational_input(num, den) -> _Pair:
    """An exact rational input for `eval_kernel` from integer numerators
    over positive integer denominators (object arrays of Python ints of one
    shape), in place of an array of Fractions, which it never builds."""
    return _Pair(num, den).common()


def _each(f, *xs):
    """Apply an array function to plain arrays, or to pairs brought to one
    denominator: to their numerators over the lcm of their common
    denominators, or else to numerators and denominators per element."""
    if not isinstance(xs[0], _Pair):
        return f(*xs)
    if all(x.is_common for x in xs):
        den = math.lcm(*(x.den for x in xs))
        return _Pair(f(*(_scaled(x, den) for x in xs)), den)
    xs = [x.per_element() for x in xs]
    return _Pair(f(*(x.num for x in xs)), f(*(x.den for x in xs)))


def _fractions(value):
    """A runtime value with any pair read as reduced Fractions: an object
    array, or one Fraction when 0-d."""
    return _FRACTION(value.num, value.den) if isinstance(value, _Pair) else value


# --- the grid evaluator ------------------------------------------------------


def _convert(x, scalar: Type, op: Operation):
    """Convert a held value to the representation of a scalar kind: a pair
    for rationals, a NumPy array of the machine dtype otherwise. A rational
    that the machine kind cannot hold traps at `op`."""
    if isinstance(scalar, RationalType):
        return _Pair.of(x)
    if isinstance(x, _Pair):
        try:
            return x.to(scalar)
        except OverflowError:
            raise EvalError(f"{op.location}: value out of range for {scalar}") from None
    dt = np.dtype(dtype_for(scalar))
    return x if x.dtype == dt else x.astype(dt)


def _check_index(x, scalar: IndexType, where) -> None:
    """Trap unless every element of `x` lies in the range of `scalar`;
    `where` (a location, or an input named in words) heads the message."""
    if ((x < 0) | (x >= scalar.bound)).any():
        raise BoundsTrap(f"{where}: value out of range for {scalar}")


def _get(env: dict, v: Value, k: int, rank: int):
    """The value of `v` laid out over a grid of `k` axes followed by `rank`
    element axes. Axes of extent 1 go between the axes of the grid `v` was
    defined over and its own element axes."""
    x = env[v]
    pad = k + rank - x.ndim
    if not pad:
        return x
    lead = x.ndim - len(shape_of(v.type))
    return _each(lambda a: a.reshape(a.shape[:lead] + (1,) * pad + a.shape[lead:]), x)


def _axis(i: int, n: int, width: int) -> tuple[int, ...]:
    """The shape of a `width`-axis array that varies along axis `i` only."""
    return (1,) * i + (n,) + (1,) * (width - i - 1)


def _fill(x, k: int, shape: tuple[int, ...]):
    """Broadcast the element axes of a value held over `k` grid axes to
    `shape`, as a view."""
    if x.shape[k:] == shape:
        return x
    return _each(lambda a: np.broadcast_to(a, a.shape[:k] + shape), x)


def _points(grid: tuple[int, ...], t: Type) -> int:
    """Scalar elements of a value of type `t` over every point of `grid`."""
    return math.prod(grid) * math.prod(shape_of(t))


# A float assoc that only a reduce consumes is generated in slabs of whole
# rows of its first index, each of at most this many elements over the grid
# (and at least one row), so the whole summand grid is never held at once.
_SLAB_ELEMENTS = 1 << 16


def _folds(op: Operation) -> bool:
    """Whether assoc `op` is generated by the reduce that consumes it, one
    slab at a time: a float assoc whose only use is a reduce in the same
    block."""
    uses = op.result.uses
    return (
        len(uses) == 1
        and uses[0][0].kind == "ekl.reduce"
        and uses[0][0].parent is op.parent
        and isinstance(scalar_of(op.result.type), FloatType)
    )


def _fold(acc, x, k: int):
    """Add the elements of `x` past its first `k` axes to `acc`, one at a
    time in element order, so a float sum is bit-identical to a sequential
    loop. `acc` None starts from 0."""
    mat = x.reshape(x.shape[:k] + (-1,))
    if acc is None:
        acc = np.zeros(x.shape[:k], dtype=x.dtype)
    for t in range(mat.shape[-1]):
        acc = acc + mat[..., t]
    return acc


class _Evaluator:
    """One run of the grid evaluator: walks a kernel and counts its scalar
    operations, one count per grid point per scalar op."""

    def __init__(self, counters: OpCounters) -> None:
        self.counters = counters
        self.outputs: dict[str, object] = {}

    def run_kernel(self, kernel: Operation, inputs: dict[str, object]):
        env: dict[Value, object] = {}
        block = kernel.body()
        for arg, (name, t) in zip(block.args, kernel_inputs(kernel)):
            if name not in inputs:
                raise EvalError(f"missing input '{name}'")
            value = inputs[name]
            if not isinstance(value, _Pair):
                value = np.asarray(value)
            if value.shape != shape_of(t):
                raise EvalError(
                    f"input '{name}' has shape {value.shape}, expected {shape_of(t)}"
                )
            scalar = scalar_of(t)
            value = _convert(value, scalar, kernel)
            if isinstance(scalar, IndexType):
                _check_index(value, scalar, f"input '{name}'")
            env[arg] = value
        self._exec_block(block, env, ())
        for name, _ in kernel_outputs(kernel):
            if name not in self.outputs:
                raise EvalError(f"{kernel.location}: output '{name}' was not assigned")
        return self.outputs

    def _exec_block(self, block: Block, env: dict, grid: tuple[int, ...]):
        """Run `block` over `grid`; returns its yielded value, or None."""
        for op in block.ops:
            if op.kind == "ekl.yield":
                return _get(env, op.operands[0], len(grid), 0)
            step = _STEPS.get(op.kind)
            if step is None:
                raise EvalError(f"{op.location}: cannot evaluate op '{op.kind}'")
            step(self, op, env, grid)
        return None

    def _literal(self, op: Operation, env, grid) -> None:
        value = np.asarray(_attr_value(op.attrs["value"]))
        x = _convert(value, scalar_of(op.result.type), op)
        env[op.result] = _each(lambda a: a.reshape((1,) * len(grid) + a.shape), x)

    def _arith(self, op: Operation, env, grid) -> None:
        rt = op.result.type
        rs, rank, k = scalar_of(rt), len(shape_of(rt)), len(grid)
        lhs, rhs = op.operands
        a = _convert(_get(env, lhs, k, rank), rs, op)
        b = _convert(_get(env, rhs, k, rank), rs, op)
        # The left operand is overwritten when an arith op of this block
        # computed it and nothing else uses it: a product chain over the
        # full grid then holds one full-size temporary, not two.
        producer = lhs.defining_op
        in_place = (
            producer is not None
            and producer.kind in _ARITH_FUNCS
            and producer.parent is op.parent
            and len(lhs.uses) == 1
            and isinstance(a, np.ndarray)
            and a.shape == np.broadcast_shapes(a.shape, np.shape(b))
        )
        if op.kind == "ekl.div" and isinstance(rs, FloatType):
            # IEEE semantics: x / 0 is inf or nan, without a NumPy warning.
            with np.errstate(divide="ignore", invalid="ignore"):
                out = _apply_arith(op, a, b, in_place)
        else:
            out = _apply_arith(op, a, b, in_place)
        if isinstance(rs, IndexType):
            _check_index(out, rs, op.location)
        if op.kind in ("ekl.mul", "ekl.div"):
            self.counters.multiplies += _points(grid, rt)
        else:
            self.counters.adds += _points(grid, rt)
        env[op.result] = out

    def _neg(self, op: Operation, env, grid) -> None:
        rt = op.result.type
        x = _get(env, op.operands[0], len(grid), len(shape_of(rt)))
        self.counters.adds += _points(grid, rt)
        env[op.result] = -_convert(x, scalar_of(rt), op)

    def _cmp(self, op: Operation, env, grid) -> None:
        rt = op.result.type
        k, rank = len(grid), len(shape_of(rt))
        a, b = (_get(env, v, k, rank) for v in op.operands)
        kinds = [scalar_of(v.type) for v in op.operands]
        if any(isinstance(t, FloatType) for t in kinds):
            a, b = _convert(a, F64, op), _convert(b, F64, op)
        elif any(isinstance(t, RationalType) for t in kinds):
            a, b = _Pair.of(a), _Pair.of(b)
            a, b = a.num * b.den, b.num * a.den
        self.counters.comparisons += _points(grid, rt)
        env[op.result] = np.asarray(_CMP_FUNCS[op.attrs["pred"].value](a, b))

    def _subscript(self, op: Operation, env, grid) -> None:
        """Index the source's own grid axes by the grid, and each element
        axis by its slot: an index value, or a whole axis, kept after the
        grid axes of the result, in order."""
        rt = op.result.type
        k, kept = len(grid), shape_of(rt)
        width = k + len(kept)
        source = op.operands[0]
        src = env[source]
        rank = len(shape_of(source.type))
        lead = src.ndim - rank
        key = [
            np.arange(n).reshape(_axis(i, n, width))
            for i, n in enumerate(src.shape[:lead])
        ]
        out_axis = k
        indices = iter(op.operands[1:])
        for axis, kind in enumerate(expanded_slots(op, rank), start=lead):
            if kind == ":":
                n = src.shape[axis]
                key.append(np.arange(n).reshape(_axis(out_axis, n, width)))
                out_axis += 1
                continue
            idx = _get(env, next(indices), k, len(kept))
            if isinstance(idx, _Pair):
                idx = idx.to(IntType(64))
            if ((idx < 0) | (idx >= src.shape[axis])).any():
                raise BoundsTrap(
                    f"{op.location}: index out of range for axis of extent "
                    f"{src.shape[axis]}"
                )
            key.append(idx)
        self.counters.gather_reads += _points(grid, rt)
        env[op.result] = _each(lambda a: a[tuple(key)], src)

    def _stack(self, op: Operation, env, grid) -> None:
        rt = op.result.type
        k, rank, rs = len(grid), len(shape_of(rt)) - 1, scalar_of(rt)
        parts = [_convert(_get(env, v, k, rank), rs, op) for v in op.operands]
        env[op.result] = _each(
            lambda *arrays: np.stack(np.broadcast_arrays(*arrays), axis=-1), *parts
        )

    def _choice(self, op: Operation, env, grid) -> None:
        rt = op.result.type
        k, rank, rs = len(grid), len(shape_of(rt)), scalar_of(rt)
        cond = _get(env, op.operands[0], k, rank)
        a, b = (_convert(_get(env, v, k, rank), rs, op) for v in op.operands[1:])
        env[op.result] = _each(lambda a, b: np.where(cond, a, b), a, b)

    def _cast(self, op: Operation, env, grid) -> None:
        target = op.result.type
        scalar, shape, k = scalar_of(target), shape_of(target), len(grid)
        x = _convert(_get(env, op.operands[0], k, len(shape)), scalar, op)
        if isinstance(scalar, IndexType):
            _check_index(x, scalar, op.location)
        env[op.result] = _fill(x, k, shape)

    def _generate(self, op: Operation, env, grid, rows: range | None = None):
        """The value of an assoc over `grid`: its body runs over `grid`
        followed by the assoc's extents, or only by `rows` of its first
        extent, in an environment of its own, dropped when it returns."""
        rt = op.result.type
        if not isinstance(rt, ArrayType):
            raise EvalError(f"{op.location}: assoc is not typed as an array")
        block = op.body()
        k = len(grid)
        if rows is None:
            rows = range(rt.shape[0])
        extents = (len(rows),) + rt.shape[1:]
        inner = grid + extents
        env = dict(env)
        for i, (arg, n) in enumerate(zip(block.args, extents)):
            start = rows.start if i == 0 else 0
            env[arg] = np.arange(start, start + n).reshape(_axis(k + i, n, len(inner)))
        value = _convert(self._exec_block(block, env, inner), rt.scalar, op)
        if isinstance(value, _Pair) and not grid:
            value = value.reduced()
        return _fill(value, k, extents)

    def _assoc(self, op: Operation, env, grid) -> None:
        if _folds(op):
            return
        env[op.result] = self._generate(op, env, grid)
        self.counters.intermediate_elements += _points(grid, op.result.type)

    def _reduce(self, op: Operation, env, grid) -> None:
        """A sum over every element axis of the operand. Floats fold in
        element order; a float assoc consumed only here is generated and
        folded one slab at a time."""
        source = op.operands[0]
        rs, shape, k = scalar_of(op.result.type), source.type.shape, len(grid)
        producer = source.defining_op
        if not math.prod(shape):
            out = _convert(np.zeros((1,) * k, dtype=np.int64), rs, op)
        elif producer is not None and producer.kind == "ekl.assoc" and _folds(producer):
            out = None
            step = max(1, _SLAB_ELEMENTS // max(math.prod(grid + shape[1:]), 1))
            for start in range(0, shape[0], step):
                rows = range(start, min(start + step, shape[0]))
                out = _fold(out, self._generate(producer, env, grid, rows), k)
            self.counters.intermediate_elements += _points(grid, source.type)
        else:
            x = _convert(_get(env, source, k, len(shape)), rs, op)
            if isinstance(rs, FloatType):
                out = _fold(None, x, k)
            else:
                mat = _each(lambda a: a.reshape(a.shape[:k] + (-1,)), x)
                out = mat.sum() if isinstance(mat, _Pair) else mat.sum(axis=-1)
                out = _convert(out, rs, op)
                if isinstance(out, _Pair):
                    out = out.reduced()
        self.counters.adds += _points(grid, source.type)
        env[op.result] = out

    def _if_stmt(self, op: Operation, env, grid) -> None:
        if grid:
            raise EvalError(
                f"{op.location}: an if statement inside a generator cannot be evaluated"
            )
        region = 0 if bool(env[op.operands[0]]) else 1
        self._exec_block(op.body(region), env, grid)

    def _output(self, op: Operation, env, grid) -> None:
        declared = op.attrs["type"].value
        shape = shape_of(declared)
        value = _fill(_convert(env[op.operands[0]], scalar_of(declared), op), 0, shape)
        if isinstance(value, _Pair):
            value = _fractions(value)
        elif not shape:
            value = value[()]
        elif not value.flags.writeable:
            value = value.copy()
        self.outputs[op.attrs["name"].value] = value


_STEPS = {
    "ekl.literal": _Evaluator._literal,
    **dict.fromkeys(_ARITH_FUNCS, _Evaluator._arith),
    "ekl.neg": _Evaluator._neg,
    "ekl.cmp": _Evaluator._cmp,
    "ekl.subscript": _Evaluator._subscript,
    "ekl.stack": _Evaluator._stack,
    "ekl.choice": _Evaluator._choice,
    "ekl.cast": _Evaluator._cast,
    "ekl.assoc": _Evaluator._assoc,
    "ekl.reduce": _Evaluator._reduce,
    "ekl.if_stmt": _Evaluator._if_stmt,
    "ekl.output": _Evaluator._output,
}


def eval_kernel(
    kernel: Operation, inputs: dict[str, object]
) -> tuple[dict[str, object], OpCounters]:
    """Instrumented evaluation of one typed kernel."""
    evaluator = _Evaluator(OpCounters())
    outputs = evaluator.run_kernel(kernel, inputs)
    return outputs, evaluator.counters


def eval_module(
    module: Operation, inputs: dict[str, object]
) -> tuple[dict[str, object], OpCounters]:
    """Evaluate every kernel of a module against one shared input set."""
    counters = OpCounters()
    outputs: dict[str, object] = {}
    for kernel in kernels_of(module):
        outputs.update(_Evaluator(counters).run_kernel(kernel, inputs))
    return outputs, counters


# --- naive AST oracle --------------------------------------------------------


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (bool, int)):
        return Fraction(int(x))
    return Fraction(float(x))


def _as_fractions(value):
    """`value` with every element an exact Fraction; a Fraction at rank 0."""
    flat = np.asarray(value, dtype=object).ravel()
    exact = np.array([_to_fraction(x) for x in flat], dtype=object)
    return exact.reshape(np.shape(value))[()]


def _holds_fractions(x) -> bool:
    """Whether an oracle value is a Fraction or an array of Fractions."""
    if isinstance(x, np.ndarray):
        return x.dtype == object and x.size > 0 and isinstance(x.flat[0], Fraction)
    return isinstance(x, Fraction)


def _to_float(value, scalar: FloatType, op: Operation):
    """An oracle value in double precision: a float, or a float array. A
    rational past the finite range of `scalar` traps at `op`, as the
    evaluator's conversion of a rational does."""
    is_object = isinstance(value, np.ndarray) and value.dtype == object
    for x in value.flat if is_object else (value,):
        if isinstance(x, Fraction):
            try:
                rational_to_float(x, scalar)
            except OverflowError:
                raise EvalError(f"{op.location}: value out of range for {scalar}") from None
    return np.asarray(value, dtype=np.float64) if np.shape(value) else float(value)


def _ieee_divide(a, b):
    """Double-precision `a / b` by IEEE 754, where `x / 0` is `inf`,
    `-inf` or `nan` and raises no warning; a float, or a float array."""
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.asarray(a, dtype=np.float64) / np.asarray(b, dtype=np.float64)
    return q if q.ndim else float(q)


def _declared(value, scalar: Type, op: Operation):
    """An oracle output of Fractions in its declared machine type: an
    integer kind truncates toward zero, as `int` does, and a value that
    its dtype cannot hold traps; a float kind rounds correctly to double
    precision and then takes its width."""
    kinds = (IntType, IndexType, FloatType)
    if not _holds_fractions(value) or not isinstance(scalar, kinds):
        return value
    if isinstance(scalar, FloatType):
        out = np.asarray(_to_float(value, scalar, op)).astype(f"float{scalar.width}")
    else:
        dtype = f"int{scalar.width if isinstance(scalar, IntType) else 64}"
        out = np.array([int(x) for x in np.ravel(value)], dtype=object)
        info = np.iinfo(dtype)
        if ((out < info.min) | (out > info.max)).any():
            raise EvalError(f"{op.location}: value out of range for {scalar}")
        out = out.astype(dtype)
    return out.reshape(np.shape(value))[()]


def eval_ast_oracle(
    kernel: Operation, inputs: dict[str, object]
) -> dict[str, object]:
    """Dynamically typed tree-walking baseline evaluator.

    Ignores the deduced machine types except for input binding,
    association index extents and declared outputs: rationals stay exact
    Fractions until an output declares a machine type, and float
    arithmetic is uniformly double precision. Used to cross-check the
    instrumented evaluator and every later pipeline stage.
    """
    env: dict[Value, object] = {}
    outputs: dict[str, object] = {}

    def bind_input(arg: Value, value) -> None:
        scalar = scalar_of(arg.type)
        shape = shape_of(arg.type)
        if np.shape(value) != shape:
            raise EvalError(f"input shape {np.shape(value)} != declared {shape}")
        if isinstance(scalar, RationalType):
            env[arg] = _as_fractions(value)
        elif isinstance(scalar, FloatType):
            env[arg] = np.asarray(value, dtype=np.float64) if shape else float(value)
        elif isinstance(scalar, BoolType):
            env[arg] = np.asarray(value, dtype=bool) if shape else bool(value)
        else:
            arr = np.asarray(value, dtype=np.int64)
            if isinstance(scalar, IndexType) and (
                (arr < 0) | (arr >= scalar.bound)
            ).any():
                raise BoundsTrap(f"input value out of range for {scalar}")
            env[arg] = arr if shape else int(arr)

    def run_block(block: Block):
        for op in block.ops:
            step(op)
        if block.ops and block.ops[-1].kind == "ekl.yield":
            return env[block.ops[-1].operands[0]]
        return None

    def assoc_shape(op: Operation) -> tuple[int, ...]:
        args = op.body().args
        bounds = []
        for arg in args:
            if not isinstance(arg.type, IndexType):
                raise EvalError("association index has no deduced extent")
            bounds.append(arg.type.bound)
        return tuple(bounds)

    def step(op: Operation) -> None:
        kind = op.kind
        if kind == "ekl.literal":
            t = op.result.type
            value = _attr_value(op.attrs["value"])
            if isinstance(t, BoolType):
                value = bool(value)
            elif isinstance(t, IndexType):
                value = int(value)
            env[op.result] = value
        elif kind in _ARITH_FUNCS:
            a, b = _align(env[op.operands[0]], env[op.operands[1]], op)
            if kind == "ekl.div" and not (_holds_fractions(a) or _holds_fractions(b)):
                # Floats and machine integers divide to a float.
                env[op.result] = _ieee_divide(a, b)
            else:
                try:
                    env[op.result] = _ARITH_FUNCS[kind](a, b)
                except ZeroDivisionError:
                    raise EvalError(f"{op.location}: division by zero") from None
        elif kind == "ekl.neg":
            env[op.result] = -env[op.operands[0]]
        elif kind == "ekl.cmp":
            a, b = _align(env[op.operands[0]], env[op.operands[1]], op)
            env[op.result] = _CMP_FUNCS[op.attrs["pred"].value](
                np.asarray(a), np.asarray(b)
            ) if np.shape(a) or np.shape(b) else _CMP_FUNCS[
                op.attrs["pred"].value
            ](a, b)
        elif kind == "ekl.subscript":
            src = np.asarray(env[op.operands[0]])
            key: list = []
            indices = iter(op.operands[1:])
            for axis, kind in enumerate(expanded_slots(op, src.ndim)):
                if kind == ":":
                    key.append(slice(None))
                    continue
                i = int(env[next(indices)])
                if not 0 <= i < src.shape[axis]:
                    raise BoundsTrap(
                        f"{op.location}: index {i} out of range for axis "
                        f"of extent {src.shape[axis]}"
                    )
                key.append(i)
            result = src[tuple(key)]
            if isinstance(result, np.ndarray) and result.ndim == 0:
                result = result[()]
            env[op.result] = result
        elif kind == "ekl.stack":
            parts = [env[v] for v in op.operands]
            shapes = [np.shape(p) for p in parts]
            common = max(shapes, key=len)
            arrs = [np.broadcast_to(np.asarray(p, dtype=object), common) for p in parts]
            env[op.result] = np.stack(arrs, axis=-1)
        elif kind == "ekl.choice":
            cond, a, b = (env[v] for v in op.operands)
            if np.shape(cond) == () and np.shape(a) == () and np.shape(b) == ():
                env[op.result] = a if bool(cond) else b
            else:
                env[op.result] = np.where(np.asarray(cond), a, b)
        elif kind == "ekl.if_stmt":
            run_block(op.body(0 if bool(env[op.operands[0]]) else 1))
        elif kind == "ekl.assoc":
            shape = assoc_shape(op)
            out = np.empty(shape, dtype=object)
            for idx in np.ndindex(shape):
                for arg, i in zip(op.body().args, idx):
                    env[arg] = i
                out[idx] = run_block(op.body())
            env[op.result] = out
        elif kind == "ekl.reduce":
            env[op.result] = sum(np.asarray(env[op.operands[0]]).flat, Fraction(0))
        elif kind == "ekl.cast":
            target = scalar_of(op.result.type)
            value = env[op.operands[0]]
            if isinstance(target, FloatType):
                env[op.result] = _to_float(value, target, op)
            elif isinstance(target, RationalType):
                env[op.result] = _as_fractions(value)
            else:
                env[op.result] = (
                    np.asarray(value, dtype=np.int64)
                    if np.shape(value)
                    else int(value)
                )
        elif kind == "ekl.output":
            scalar = scalar_of(op.attrs["type"].value)
            outputs[op.attrs["name"].value] = _declared(env[op.operands[0]], scalar, op)
        elif kind == "ekl.yield":
            pass
        else:
            raise EvalError(f"oracle cannot evaluate op '{op.kind}'")

    def _align(a, b, op: Operation):
        # Rationals mix with floats by falling to double precision. The
        # evaluator converts the operands of an arith op to its result
        # type, and those of a comparison to f64.
        scalar = F64 if op.kind == "ekl.cmp" else scalar_of(op.result.type)
        a_frac = isinstance(a, Fraction) or (
            isinstance(a, np.ndarray) and a.dtype == object
        )
        b_frac = isinstance(b, Fraction) or (
            isinstance(b, np.ndarray) and b.dtype == object
        )
        a_float = isinstance(a, float) or (
            isinstance(a, np.ndarray) and np.issubdtype(a.dtype, np.floating)
        )
        b_float = isinstance(b, float) or (
            isinstance(b, np.ndarray) and np.issubdtype(b.dtype, np.floating)
        )
        if a_frac and b_float:
            a = _to_float(a, scalar, op)
        if b_frac and a_float:
            b = _to_float(b, scalar, op)
        return a, b

    block = kernel.body()
    for arg, (name, _) in zip(block.args, kernel_inputs(kernel)):
        if name not in inputs:
            raise EvalError(f"missing input '{name}'")
        bind_input(arg, inputs[name])
    run_block(block)
    return outputs


# --- random inputs -----------------------------------------------------------


def random_inputs(kernel: Operation, rng: np.random.Generator) -> dict[str, object]:
    """Seedable random inputs matching the kernel's declared input types.

    Floats uniform in [-1, 1], integers in [-1000, 1000], index values in
    their declared range, rationals with numerator and denominator up to
    100 in magnitude.
    """
    inputs: dict[str, object] = {}
    for name, t in kernel_inputs(kernel):
        scalar = scalar_of(t)
        shape = shape_of(t)
        if isinstance(scalar, FloatType):
            value = rng.uniform(-1.0, 1.0, size=shape)
            inputs[name] = value if shape else float(value)
        elif isinstance(scalar, IndexType):
            value = rng.integers(0, scalar.bound, size=shape)
            inputs[name] = value if shape else int(value)
        elif isinstance(scalar, IntType):
            lo = max(-1000, -(2 ** (scalar.width - 1)))
            hi = min(1000, 2 ** (scalar.width - 1) - 1)
            value = rng.integers(lo, hi + 1, size=shape)
            inputs[name] = value if shape else int(value)
        elif isinstance(scalar, BoolType):
            value = rng.integers(0, 2, size=shape).astype(bool)
            inputs[name] = value if shape else bool(value)
        elif isinstance(scalar, RationalType):
            num = rng.integers(-100, 101, size=shape).astype(object)
            den = rng.integers(1, 101, size=shape).astype(object)
            inputs[name] = _FRACTION(num, den)
        else:
            raise EvalError(f"cannot generate inputs of type {t}")
    return inputs
