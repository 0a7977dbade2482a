"""Reference interpreters for typed modules.

Two independent routes: `eval_ast_oracle` is a naive dynamically typed
tree walker used as a semantic baseline, and `Interpreter`/`eval_kernel`
is the instrumented evaluator that honors the deduced machine types and
counts scalar arithmetic operations. Both enforce the bounds-safety
contract at runtime.

The oracle computes on `Fraction`s. The evaluator holds a rational array
as a `_Pair`: a NumPy object array of Python-int numerators and one of
denominators, always positive. Kernel inputs become pairs once, when the
kernel starts. On the vectorized path `add`, `sub`, `mul`, `div` and `neg`
work on the two arrays and run no gcd, comparisons cross-multiply, and a
plain-sum reduction puts its terms over the lcm of their denominators.
A pair is brought to lowest terms with one `np.gcd` at every reduction
result and at every assoc result stored in the environment, so its
magnitudes stay those of reduced `Fraction`s. Reduced `Fraction`s are
built at `ekl.output` and wherever a per-element handler reads a pair.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ir import (
    Block,
    DenseAttr,
    IntAttr,
    Operation,
    RationalAttr,
    Value,
    kernels_of,
)
from .types import (
    EXPR,
    F64,
    ArrayType,
    BoolType,
    FloatType,
    IndexType,
    IntType,
    PseudoType,
    RationalType,
    Type,
    scalar_of,
    shape_of,
    with_shape,
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
        return {
            "multiplies": self.multiplies,
            "adds": self.adds,
            "comparisons": self.comparisons,
            "gather_reads": self.gather_reads,
            "intermediate_elements": self.intermediate_elements,
        }


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


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (bool, int)):
        return Fraction(int(x))
    return Fraction(float(x))


def coerce(value, t: Type):
    """Convert a runtime value to the representation of type `t`.

    Broadcasts to the target shape and traps on index-bound violations.
    """
    scalar = scalar_of(t)
    shape = shape_of(t)
    value = _fractions(value)
    if isinstance(scalar, RationalType):
        if not shape and not isinstance(value, np.ndarray):
            return _to_fraction(value)
        arr = np.asarray(value, dtype=object)
        flat = [_to_fraction(x) for x in arr.ravel()]
        out = np.array(flat, dtype=object).reshape(arr.shape)
        return np.broadcast_to(out, shape).copy() if out.shape != shape else out
    dt = dtype_for(scalar)
    if isinstance(scalar, (IntType, IndexType)):
        conv = lambda x: int(x)  # noqa: E731
    elif isinstance(scalar, FloatType):
        conv = lambda x: float(x)  # noqa: E731
    else:
        conv = lambda x: bool(x)  # noqa: E731
    arr = np.asarray(value)
    if arr.dtype == object:
        flat = [conv(x) for x in arr.ravel()]
        arr = np.array(flat, dtype=dt).reshape(arr.shape)
    elif arr.dtype != dt:
        arr = arr.astype(dt)
    if arr.shape != shape:
        arr = np.broadcast_to(arr, shape).copy()
    if isinstance(scalar, IndexType):
        if ((arr < 0) | (arr >= scalar.bound)).any():
            raise BoundsTrap(
                f"value out of range for {scalar}: {arr if shape else arr[()]}"
            )
    if not shape:
        return arr[()]
    return arr


def _size(t: Type) -> int:
    return math.prod(shape_of(t))


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
    if isinstance(attr, RationalAttr):
        return attr.value
    if isinstance(attr, IntAttr):
        return attr.value
    raise EvalError(f"cannot evaluate attribute {attr!r}")


class _VecUnsupported(Exception):
    """Internal: generator body falls outside the vectorized fast path."""


_VEC_SCALARS = (IntType, IndexType, BoolType, RationalType, FloatType)
# Exact (numerator, denominator) of each element, lowest terms and a
# positive denominator: Fractions, ints, bools and floats all provide it.
_RATIO = np.frompyfunc(operator.methodcaller("as_integer_ratio"), 1, 2)
_FRACTION = np.frompyfunc(Fraction, 2, 1)


class _Pair:
    """Exact rational array: Python-int numerators over positive Python-int
    denominators, as two NumPy object arrays of one shape. Not necessarily
    in lowest terms; see `reduced`."""

    __slots__ = ("num", "den")

    def __init__(self, num, den) -> None:
        # Ufuncs on 0-d object arrays return bare Python ints.
        self.num = np.asarray(num, dtype=object)
        self.den = np.asarray(den, dtype=object)

    @staticmethod
    def of(value) -> _Pair:
        """The pair form of a rational, integer, bool or float value."""
        if isinstance(value, _Pair):
            return value
        arr = np.asarray(value)
        if arr.dtype == object or arr.dtype.kind == "f":
            return _Pair(*_RATIO(arr))
        num = arr.astype(np.int64).astype(object)
        return _Pair(num, np.ones(arr.shape, dtype=object))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.num.shape

    @property
    def ndim(self) -> int:
        return self.num.ndim

    def reduced(self) -> _Pair:
        g = np.gcd(self.num, self.den)
        return _Pair(self.num // g, self.den // g)

    def fractions(self):
        """Reduced Fractions: an object array, or one Fraction when 0-d."""
        return _FRACTION(self.num, self.den)

    def to(self, scalar: Type) -> np.ndarray:
        """Cast to a machine kind, as `float`, `int` and `bool` cast a
        Fraction: floats round correctly and integers truncate toward
        zero."""
        if isinstance(scalar, FloatType):
            out = np.asarray(self.num / self.den)
        elif isinstance(scalar, BoolType):
            out = np.asarray(self.num != 0)
        else:
            q = np.abs(self.num) // self.den
            out = np.where(self.num < 0, -q, q)
        return out.astype(dtype_for(scalar))

    def __neg__(self) -> _Pair:
        return _Pair(-self.num, self.den)

    def __add__(self, other: _Pair) -> _Pair:
        return _Pair(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: _Pair) -> _Pair:
        return _Pair(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other: _Pair) -> _Pair:
        return _Pair(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: _Pair) -> _Pair:
        if (other.num == 0).any():
            raise ZeroDivisionError
        num = self.num * other.den
        den = self.den * other.num
        flip = other.num < 0
        return _Pair(np.where(flip, -num, num), np.where(flip, -den, den))

    def sum(self) -> _Pair:
        """Sum over the last axis, over the lcm of its denominators."""
        den = np.lcm.reduce(self.den, axis=-1)
        num = (self.num * (den[..., None] // self.den)).sum(axis=-1)
        return _Pair(num, den)


def _each(x, f):
    """Apply an array function to a plain array, or to both arrays of a
    pair."""
    return _Pair(f(x.num), f(x.den)) if isinstance(x, _Pair) else f(x)


def _fractions(value):
    """A runtime value with any pair read as reduced Fractions."""
    return value.fractions() if isinstance(value, _Pair) else value


def _vec_convert(x, scalar: Type):
    """Convert a grid value to the runtime representation of a scalar kind:
    a pair for rationals, a NumPy array of the machine dtype otherwise."""
    if isinstance(scalar, RationalType):
        return _Pair.of(x)
    if isinstance(x, _Pair):
        return x.to(scalar)
    dt = np.dtype(dtype_for(scalar))
    return x if x.dtype == dt else x.astype(dt)


class Interpreter:
    """Instrumented evaluator for fully typed modules."""

    def __init__(self, counters: OpCounters | None = None) -> None:
        self.counters = counters if counters is not None else OpCounters()
        self.outputs: dict[str, object] = {}
        self._handlers = {
            "ekl.literal": self._op_literal,
            "ekl.add": self._op_arith,
            "ekl.sub": self._op_arith,
            "ekl.mul": self._op_arith,
            "ekl.div": self._op_arith,
            "ekl.neg": self._op_neg,
            "ekl.cmp": self._op_cmp,
            "ekl.subscript": self._op_subscript,
            "ekl.stack": self._op_stack,
            "ekl.choice": self._op_choice,
            "ekl.if_stmt": self._op_if_stmt,
            "ekl.assoc": self._op_assoc,
            "ekl.reduce": self._op_reduce,
            "ekl.cast": self._op_cast,
            "ekl.broadcast": self._op_broadcast,
            "ekl.output": self._op_output,
            "ekl.yield": lambda op, env: None,
        }

    # --- drivers ------------------------------------------------------------

    def run_kernel(self, kernel: Operation, inputs: dict[str, object]):
        env: dict[Value, object] = {}
        block = kernel.body()
        for i, arg in enumerate(block.args):
            name_attr = kernel.attrs.get(f"in{i}")
            name = name_attr.value if name_attr is not None else f"in{i}"
            if name not in inputs:
                raise EvalError(f"missing input '{name}'")
            value = inputs[name]
            declared = shape_of(arg.type)
            if np.shape(value) != declared:
                raise EvalError(
                    f"input '{name}' has shape {np.shape(value)}, "
                    f"expected {declared}"
                )
            value = coerce(value, arg.type)
            if isinstance(scalar_of(arg.type), RationalType) and declared:
                value = _Pair.of(value)
            env[arg] = value
        self.outputs = {}
        self._exec_block(block, env)
        return self.outputs

    def _exec_block(self, block: Block, env: dict[Value, object]):
        for op in block.ops:
            handler = self._handlers.get(op.kind)
            if handler is None:
                raise EvalError(f"cannot evaluate op '{op.kind}'")
            handler(op, env)
        if block.ops and block.ops[-1].kind == "ekl.yield":
            return env[block.ops[-1].operands[0]]
        return None

    def _result_type(self, op: Operation) -> Type:
        t = op.result.type
        if t == EXPR:
            raise EvalError(
                f"op '{op.kind}' is untyped; run type checking before evaluation"
            )
        return t

    # --- handlers -----------------------------------------------------------

    def _op_literal(self, op: Operation, env) -> None:
        t = op.attrs["type"].value
        if isinstance(t, PseudoType):
            env[op.result] = t
            return
        attr = op.attrs["value"]
        if isinstance(attr, DenseAttr):
            env[op.result] = coerce(
                np.array(attr.values, dtype=object).reshape(shape_of(attr.type)),
                attr.type,
            )
            return
        value = _attr_value(attr)
        if isinstance(t, BoolType):
            value = bool(value)
        env[op.result] = coerce(value, with_shape(scalar_of(t), shape_of(t)))

    def _materialize_operand(self, value, scalar: Type):
        """Convert an operand to the compute scalar kind, keeping its shape."""
        return coerce(value, with_shape(scalar, np.shape(value)))

    def _op_arith(self, op: Operation, env) -> None:
        rt = self._result_type(op)
        scalar = scalar_of(rt)
        vals = [self._materialize_operand(env[v], scalar) for v in op.operands]
        result = _apply_arith(op, *vals)
        n = max(_size(rt), 1)
        if op.kind in ("ekl.mul", "ekl.div"):
            self.counters.multiplies += n
        else:
            self.counters.adds += n
        env[op.result] = coerce(result, rt)

    def _op_neg(self, op: Operation, env) -> None:
        rt = self._result_type(op)
        value = self._materialize_operand(env[op.operands[0]], scalar_of(rt))
        self.counters.adds += max(_size(rt), 1)
        env[op.result] = coerce(-np.asarray(value) if np.shape(value) else -value, rt)

    def _op_cmp(self, op: Operation, env) -> None:
        rt = self._result_type(op)
        ts = [scalar_of(v.type) for v in op.operands]
        vals = [_fractions(env[v]) for v in op.operands]
        if any(isinstance(t, FloatType) for t in ts):
            vals = [self._materialize_operand(v, F64) for v in vals]
        a, b = vals
        result = _CMP_FUNCS[op.attrs["pred"].value](np.asarray(a), np.asarray(b))
        self.counters.comparisons += max(_size(rt), 1)
        env[op.result] = coerce(result, rt)

    def _op_subscript(self, op: Operation, env) -> None:
        rt = self._result_type(op)
        src = np.asarray(_fractions(env[op.operands[0]]))
        rank = src.ndim
        slots = []
        for v in op.operands[1:]:
            value = env[v]
            if isinstance(value, PseudoType):
                slots.append((value.kind, None))
            else:
                slots.append(("index", value))
        fixed = sum(1 for k, _ in slots if k != "...")
        key: list = []
        axis = 0
        for kind, value in slots:
            if kind == "...":
                for _ in range(rank - fixed):
                    key.append(slice(None))
                    axis += 1
            elif kind == ":":
                key.append(slice(None))
                axis += 1
            else:
                i = int(value)
                if not 0 <= i < src.shape[axis]:
                    raise BoundsTrap(
                        f"{op.location}: index {i} out of range for axis of "
                        f"extent {src.shape[axis]}"
                    )
                key.append(i)
                axis += 1
        result = src[tuple(key)]
        self.counters.gather_reads += max(_size(rt), 1)
        env[op.result] = coerce(result, rt)

    def _op_stack(self, op: Operation, env) -> None:
        rt = self._result_type(op)
        scalar = scalar_of(rt)
        elem_shape = shape_of(rt)[:-1]
        parts = []
        for v in op.operands:
            value = self._materialize_operand(env[v], scalar)
            parts.append(np.broadcast_to(np.asarray(value), elem_shape))
        env[op.result] = coerce(np.stack(parts, axis=-1), rt)

    def _op_choice(self, op: Operation, env) -> None:
        rt = self._result_type(op)
        cond = env[op.operands[0]]
        a, b = _fractions(env[op.operands[1]]), _fractions(env[op.operands[2]])
        if np.shape(cond) == () and np.shape(a) == () and np.shape(b) == ():
            env[op.result] = coerce(a if bool(cond) else b, rt)
            return
        env[op.result] = coerce(np.where(np.asarray(cond), a, b), rt)

    def _op_if_stmt(self, op: Operation, env) -> None:
        cond = env[op.operands[0]]
        region = 0 if bool(cond) else 1
        self._exec_block(op.body(region), env)

    def _op_assoc(self, op: Operation, env) -> None:
        rt = self._result_type(op)
        if not isinstance(rt, ArrayType):
            raise EvalError("assoc result is not an array; module is not typed")
        fast = self._try_vectorized(op, env)
        if fast is not None:
            env[op.result] = fast
            return
        args = op.body().args
        shape = rt.shape
        out = np.empty(shape, dtype=dtype_for(rt.scalar))
        for idx in np.ndindex(shape):
            for arg, i in zip(args, idx):
                env[arg] = i
            out[idx] = self._exec_block(op.body(), env)
        self.counters.intermediate_elements += out.size
        env[op.result] = out

    # --- vectorized fast path ----------------------------------------------
    #
    # Generator bodies over exact element kinds (integers, indices, bools,
    # rationals) are evaluated whole-grid with numpy instead of one index
    # tuple at a time. Exact arithmetic makes the reassociation inherent in
    # bulk reduction value-preserving, so results are identical to the
    # element-at-a-time loop. Counters are accumulated with the loop's
    # semantics: one count per grid point per scalar operation.

    def _try_vectorized(self, op: Operation, env) -> np.ndarray | _Pair | None:
        tmp = OpCounters()
        try:
            arr = self._vec_assoc(op, env, {}, (), tmp)
        except _VecUnsupported:
            return None
        rt = op.result.type
        arr = _vec_convert(arr, rt.scalar)
        if isinstance(arr, _Pair):
            arr = arr.reduced()
        out = _each(arr, lambda a: np.array(np.broadcast_to(a, rt.shape)))
        for key, n in tmp.as_dict().items():
            setattr(self.counters, key, getattr(self.counters, key) + n)
        self.counters.intermediate_elements += _size(rt)
        return out

    def _vec_lookup(self, v: Value, venv: dict, env: dict):
        """Resolve a value to a ('g', grid-array) or ('w', whole-array) entry."""
        entry = venv.get(v)
        if entry is not None:
            return entry
        if v not in env:
            raise _VecUnsupported
        value = env[v]
        if isinstance(value, PseudoType):
            raise _VecUnsupported
        if isinstance(scalar_of(v.type), RationalType):
            # Per-element handlers leave Fractions in the environment.
            value = _Pair.of(value)
        else:
            value = np.asarray(value)
        return ("w" if value.ndim > 0 else "g", value)

    def _vec_assoc(
        self,
        op: Operation,
        env: dict,
        genv: dict,
        grid: tuple[int, ...],
        counters: OpCounters,
    ) -> np.ndarray | _Pair:
        """Evaluate one assoc vectorized; returns an array or pair
        broadcastable to grid + extents. genv carries grid entries of
        enclosing generators."""
        block = op.body()
        for arg in block.args:
            if not isinstance(arg.type, IndexType):
                raise _VecUnsupported
        shape = tuple(arg.type.bound for arg in block.args)
        full = grid + shape
        points = math.prod(full)
        pad = (1,) * len(shape)
        venv: dict[Value, tuple] = {}
        for v, entry in genv.items():
            if entry[0] == "g":
                venv[v] = ("g", _each(entry[1], lambda a: a.reshape(a.shape + pad)))
            elif entry[0] == "w":
                venv[v] = entry
        for i, arg in enumerate(block.args):
            lead = len(grid) + i
            trail = len(shape) - i - 1
            venv[arg] = (
                "g",
                np.arange(shape[i]).reshape((1,) * lead + (shape[i],) + (1,) * trail),
            )

        def grid_of(v: Value) -> np.ndarray:
            entry = self._vec_lookup(v, venv, env)
            if entry[0] != "g":
                raise _VecUnsupported
            return entry[1]

        result_value = None
        # Values whose grid arrays arith ops of this body computed. An arith
        # op overwrites its left operand when that is one of them and has no
        # other use: a product chain over the full grid then holds one
        # full-size temporary, not two.
        computed: set[Value] = set()
        for body_op in block.ops:
            kind = body_op.kind
            if kind == "ekl.yield":
                entry = self._vec_lookup(body_op.operands[0], venv, env)
                if entry[0] != "g":
                    raise _VecUnsupported
                result_value = entry[1]
                continue
            if not body_op.results:
                raise _VecUnsupported
            rt = body_op.result.type
            rs = scalar_of(rt)
            if not isinstance(rs, _VEC_SCALARS):
                raise _VecUnsupported
            if kind == "ekl.literal":
                t = body_op.attrs["type"].value
                if isinstance(t, PseudoType):
                    raise _VecUnsupported
                attr = body_op.attrs["value"]
                if isinstance(attr, DenseAttr):
                    dense = coerce(
                        np.array(attr.values, dtype=object).reshape(
                            shape_of(attr.type)
                        ),
                        attr.type,
                    )
                    venv[body_op.result] = (
                        "w",
                        _vec_convert(np.asarray(dense), scalar_of(attr.type)),
                    )
                    continue
                value = _attr_value(attr)
                if isinstance(t, BoolType):
                    value = bool(value)
                scalar = scalar_of(t)
                venv[body_op.result] = (
                    "g",
                    _vec_convert(np.asarray(coerce(value, scalar)), scalar),
                )
            elif kind in _ARITH_FUNCS:
                if isinstance(rt, ArrayType):
                    raise _VecUnsupported
                lhs = body_op.operands[0]
                a = _vec_convert(grid_of(lhs), rs)
                b = _vec_convert(grid_of(body_op.operands[1]), rs)
                in_place = (
                    lhs in computed
                    and len(lhs.uses) == 1
                    and isinstance(a, np.ndarray)
                    and a.shape == np.broadcast_shapes(a.shape, np.shape(b))
                )
                out = _apply_arith(body_op, a, b, in_place)
                computed.add(body_op.result)
                if kind in ("ekl.mul", "ekl.div"):
                    counters.multiplies += points
                else:
                    counters.adds += points
                if isinstance(rs, IndexType) and isinstance(out, np.ndarray):
                    if ((out < 0) | (out >= rs.bound)).any():
                        raise BoundsTrap(f"value out of range for {rs}")
                venv[body_op.result] = ("g", _each(out, np.asarray))
            elif kind == "ekl.neg":
                out = -_vec_convert(grid_of(body_op.operands[0]), rs)
                counters.adds += points
                venv[body_op.result] = ("g", _each(out, np.asarray))
            elif kind == "ekl.cmp":
                ts = [scalar_of(v.type) for v in body_op.operands]
                a = grid_of(body_op.operands[0])
                b = grid_of(body_op.operands[1])
                if any(isinstance(t, FloatType) for t in ts):
                    a = _vec_convert(a, F64)
                    b = _vec_convert(b, F64)
                elif any(isinstance(t, RationalType) for t in ts):
                    a, b = _Pair.of(a), _Pair.of(b)
                    a, b = a.num * b.den, b.num * a.den
                out = _CMP_FUNCS[body_op.attrs["pred"].value](a, b)
                counters.comparisons += points
                venv[body_op.result] = ("g", np.asarray(out))
            elif kind == "ekl.subscript":
                if isinstance(rt, ArrayType):
                    raise _VecUnsupported
                src_entry = self._vec_lookup(body_op.operands[0], venv, env)
                if src_entry[0] != "w":
                    raise _VecUnsupported
                src = src_entry[1]
                key = []
                for axis, v in enumerate(body_op.operands[1:]):
                    idx = grid_of(v)
                    if idx.dtype == object or idx.dtype == bool:
                        raise _VecUnsupported
                    if ((idx < 0) | (idx >= src.shape[axis])).any():
                        raise BoundsTrap(
                            f"{body_op.location}: index out of range for axis "
                            f"of extent {src.shape[axis]}"
                        )
                    key.append(idx)
                if len(key) != src.ndim:
                    raise _VecUnsupported
                out = _each(src, lambda a: np.asarray(a[tuple(key)]))
                counters.gather_reads += points
                venv[body_op.result] = ("g", _vec_convert(out, rs))
            elif kind == "ekl.choice":
                cond = grid_of(body_op.operands[0])
                a = _vec_convert(grid_of(body_op.operands[1]), rs)
                b = _vec_convert(grid_of(body_op.operands[2]), rs)
                if isinstance(a, _Pair):
                    out = _Pair(
                        np.where(cond, a.num, b.num), np.where(cond, a.den, b.den)
                    )
                else:
                    out = np.asarray(np.where(cond, a, b))
                venv[body_op.result] = ("g", out)
            elif kind == "ekl.cast":
                venv[body_op.result] = (
                    "g",
                    _vec_convert(grid_of(body_op.operands[0]), rs),
                )
            elif kind == "ekl.assoc":
                if not isinstance(rt, ArrayType):
                    raise _VecUnsupported
                inner = self._vec_assoc(body_op, env, venv, full, counters)
                counters.intermediate_elements += points * math.prod(rt.shape)
                venv[body_op.result] = ("ga", inner, len(rt.shape))
            elif kind == "ekl.reduce":
                entry = venv.get(body_op.operands[0])
                if entry is None or entry[0] != "ga":
                    raise _VecUnsupported
                _, arr, rank = entry
                combiner = body_op.body()
                ops = combiner.ops
                if (
                    len(ops) != 2
                    or ops[0].kind != "ekl.add"
                    or sorted(ops[0].operands, key=id) != sorted(combiner.args, key=id)
                    or ops[1].kind != "ekl.yield"
                    or ops[1].operands[0] is not ops[0].result
                ):
                    raise _VecUnsupported
                src_type = body_op.operands[0].type
                if not isinstance(src_type, ArrayType):
                    raise _VecUnsupported
                inner_shape = src_type.shape
                inner_full = full + inner_shape
                n = math.prod(inner_shape)
                init = coerce(_attr_value(body_op.attrs["init"]), rs)
                if n == 0:
                    out = np.broadcast_to(np.asarray(init), full)
                else:
                    mat = _each(
                        _vec_convert(arr, rs),
                        lambda a: np.broadcast_to(a, inner_full).reshape(full + (-1,)),
                    )
                    if isinstance(rs, FloatType):
                        # Floats fold sequentially along the reduced axis so
                        # the result is bit-identical to the element-at-a-time
                        # loop.
                        acc = np.full(full, init, dtype=mat.dtype)
                        for t in range(n):
                            acc = acc + mat[..., t]
                        out = acc
                    elif isinstance(mat, _Pair):
                        out = mat.sum()
                        if init != 0:
                            out = _Pair.of(init) + out
                        out = out.reduced()
                    else:
                        out = np.add.reduce(mat, axis=-1)
                        if init != 0:
                            out = init + out
                counters.adds += points * n
                venv[body_op.result] = ("g", _vec_convert(_each(out, np.asarray), rs))
            else:
                raise _VecUnsupported
        if result_value is None:
            raise _VecUnsupported
        return result_value

    def _op_reduce(self, op: Operation, env) -> None:
        rt = self._result_type(op)
        src = np.asarray(_fractions(env[op.operands[0]]))
        acc_arg, elem_arg = op.body().args
        acc = coerce(_attr_value(op.attrs["init"]), rt)
        for x in src.flat:
            env[acc_arg] = acc
            env[elem_arg] = x
            acc = coerce(self._exec_block(op.body(), env), rt)
        env[op.result] = acc

    def _op_cast(self, op: Operation, env) -> None:
        env[op.result] = coerce(env[op.operands[0]], op.attrs["type"].value)

    def _op_broadcast(self, op: Operation, env) -> None:
        rt = self._result_type(op)
        value = np.broadcast_to(
            np.asarray(_fractions(env[op.operands[0]])), shape_of(rt)
        )
        env[op.result] = coerce(value.copy(), rt)

    def _op_output(self, op: Operation, env) -> None:
        declared = op.attrs["type"].value
        self.outputs[op.attrs["name"].value] = coerce(env[op.operands[0]], declared)


def evaluate_block(block: Block, env: dict[Value, object]):
    """Evaluate an isolated expression block; returns the yielded value."""
    return Interpreter()._exec_block(block, dict(env))


def eval_kernel(
    kernel: Operation, inputs: dict[str, object]
) -> tuple[dict[str, object], OpCounters]:
    """Instrumented evaluation of one typed kernel."""
    interp = Interpreter()
    outputs = interp.run_kernel(kernel, inputs)
    return outputs, interp.counters


def eval_module(
    module: Operation, inputs: dict[str, object]
) -> tuple[dict[str, object], OpCounters]:
    """Evaluate every kernel of a module against one shared input set."""
    counters = OpCounters()
    outputs: dict[str, object] = {}
    for kernel in kernels_of(module):
        interp = Interpreter(counters)
        outputs.update(interp.run_kernel(kernel, inputs))
    return outputs, counters


# --- naive AST oracle --------------------------------------------------------


def eval_ast_oracle(
    kernel: Operation, inputs: dict[str, object]
) -> dict[str, object]:
    """Dynamically typed tree-walking baseline evaluator.

    Ignores the deduced machine types except for input binding and
    association index extents: rationals stay exact Fractions and float
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
            arr = np.array(
                [_to_fraction(x) for x in np.asarray(value, dtype=object).ravel()],
                dtype=object,
            ).reshape(shape)
            env[arg] = arr if shape else arr[()]
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
            t = op.attrs["type"].value
            if isinstance(t, PseudoType):
                env[op.result] = t
            else:
                attr = op.attrs["value"]
                if isinstance(attr, DenseAttr):
                    vals = [
                        _to_fraction(x) if not isinstance(x, float) else x
                        for x in attr.values
                    ]
                    env[op.result] = np.array(vals, dtype=object).reshape(
                        shape_of(attr.type)
                    )
                else:
                    value = _attr_value(attr)
                    if isinstance(t, BoolType):
                        value = bool(value)
                    elif isinstance(t, IndexType):
                        value = int(value)
                    env[op.result] = value
        elif kind in _ARITH_FUNCS:
            a, b = env[op.operands[0]], env[op.operands[1]]
            env[op.result] = _ARITH_FUNCS[kind](*_align(a, b))
        elif kind == "ekl.neg":
            env[op.result] = -env[op.operands[0]]
        elif kind == "ekl.cmp":
            a, b = _align(env[op.operands[0]], env[op.operands[1]])
            env[op.result] = _CMP_FUNCS[op.attrs["pred"].value](
                np.asarray(a), np.asarray(b)
            ) if np.shape(a) or np.shape(b) else _CMP_FUNCS[
                op.attrs["pred"].value
            ](a, b)
        elif kind == "ekl.subscript":
            src = np.asarray(env[op.operands[0]])
            key: list = []
            slots = [env[v] for v in op.operands[1:]]
            fixed = sum(
                1
                for s in slots
                if not (isinstance(s, PseudoType) and s.kind == "...")
            )
            axis = 0
            for s in slots:
                if isinstance(s, PseudoType) and s.kind == "...":
                    for _ in range(src.ndim - fixed):
                        key.append(slice(None))
                        axis += 1
                elif isinstance(s, PseudoType) and s.kind == ":":
                    key.append(slice(None))
                    axis += 1
                else:
                    i = int(s)
                    if not 0 <= i < src.shape[axis]:
                        raise BoundsTrap(
                            f"{op.location}: index {i} out of range for axis "
                            f"of extent {src.shape[axis]}"
                        )
                    key.append(i)
                    axis += 1
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
            src = np.asarray(env[op.operands[0]])
            acc = _attr_value(op.attrs["init"])
            acc_arg, elem_arg = op.body().args
            for x in src.flat:
                env[acc_arg] = acc
                env[elem_arg] = x
                acc = run_block(op.body())
            env[op.result] = acc
        elif kind == "ekl.cast":
            target = scalar_of(op.attrs["type"].value)
            value = env[op.operands[0]]
            if isinstance(target, FloatType):
                env[op.result] = (
                    np.asarray(value, dtype=np.float64)
                    if np.shape(value)
                    else float(value)
                )
            elif isinstance(target, RationalType):
                env[op.result] = (
                    np.array(
                        [_to_fraction(x) for x in np.asarray(value, dtype=object).ravel()],
                        dtype=object,
                    ).reshape(np.shape(value))
                    if np.shape(value)
                    else _to_fraction(value)
                )
            else:
                env[op.result] = (
                    np.asarray(value, dtype=np.int64)
                    if np.shape(value)
                    else int(value)
                )
        elif kind == "ekl.broadcast":
            env[op.result] = np.broadcast_to(
                np.asarray(env[op.operands[0]]), op.attrs["shape"].value
            ).copy()
        elif kind == "ekl.output":
            outputs[op.attrs["name"].value] = env[op.operands[0]]
        elif kind == "ekl.yield":
            pass
        else:
            raise EvalError(f"oracle cannot evaluate op '{op.kind}'")

    def _align(a, b):
        # Rationals mix with floats by falling to double precision.
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
            a = float(a) if isinstance(a, Fraction) else a.astype(np.float64)
        if b_frac and a_float:
            b = float(b) if isinstance(b, Fraction) else b.astype(np.float64)
        return a, b

    block = kernel.body()
    for i, arg in enumerate(block.args):
        name_attr = kernel.attrs.get(f"in{i}")
        name = name_attr.value if name_attr is not None else f"in{i}"
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
    block = kernel.body()
    for i, arg in enumerate(block.args):
        name_attr = kernel.attrs.get(f"in{i}")
        name = name_attr.value if name_attr is not None else f"in{i}"
        scalar = scalar_of(arg.type)
        shape = shape_of(arg.type)
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
            num = rng.integers(-100, 101, size=shape)
            den = rng.integers(1, 101, size=shape)
            flat = [
                Fraction(int(n), int(d))
                for n, d in zip(np.ravel(num), np.ravel(den))
            ]
            arr = np.array(flat, dtype=object).reshape(shape)
            inputs[name] = arr if shape else arr[()]
        else:
            raise EvalError(f"cannot generate inputs of type {arg.type}")
    return inputs
