"""The ekl op set: registered signatures, local verifiers, and typing rules.

Expression-producing ops have a result; statements have none. Containers
(program, kernel) hold one block each; an assoc holds a functor block
terminated by a yield, and a reduce sums every element of its operand.
A literal and a cast carry their type only as their result type, and
only values are operands: a subscript describes its `:` and `...` slots
in its `slots` attribute.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .diagnostics import Diagnostic, Location, error
from .ir import (
    Attribute,
    Block,
    IntAttr,
    OpSignature,
    Operation,
    RationalAttr,
    REGISTRY,
    StringAttr,
    TypeAttr,
    Value,
)
from .typecheck import TypingContext
from .types import (
    BOOL,
    EXPR,
    F64,
    RATIONAL,
    SI64,
    ArrayType,
    BoolType,
    CombineError,
    FloatType,
    IndexType,
    IntType,
    RationalType,
    Type,
    _smallest_int_for,
    broadcast_and_promote,
    broadcast_shapes,
    index_add_bound,
    is_arithmetic_type,
    is_numeric_scalar,
    promote,
    scalar_of,
    shape_of,
    with_shape,
)

CMP_PREDICATES = ("eq", "ne", "lt", "le", "gt", "ge")


# --- structural verifiers ---------------------------------------------------


def _verify_functor(op: Operation) -> list[Diagnostic]:
    block = op.body()
    if not block.ops or block.ops[-1].kind != "ekl.yield":
        return [error(op.location, f"'{op.kind}' region must end with ekl.yield")]
    return []


def _verify_typed(op: Operation) -> list[Diagnostic]:
    """A literal or a cast has its type as its result type from the
    start; a literal also needs its value."""
    diags = []
    if op.kind == "ekl.literal" and "value" not in op.attrs:
        diags.append(error(op.location, "literal requires a 'value' attribute"))
    if op.result is not None and op.result.type is EXPR:
        diags.append(error(op.location, f"'{op.kind}' requires a result type"))
    return diags


def _verify_subscript(op: Operation) -> list[Diagnostic]:
    attr = op.attrs.get("slots")
    if attr is None:
        return []
    if not isinstance(attr, StringAttr) or not set(attr.value) <= set("i:."):
        why = "must be a string of 'i', ':' and '.'"
    elif attr.value.count("i") != len(op.operands) - 1:
        n, m = attr.value.count("i"), len(op.operands) - 1
        why = f"reads {n} index operands, but the op has {m}"
    elif "i" * len(attr.value) == attr.value:
        why = "must be absent when every slot is an index"
    else:
        return []
    return [error(op.location, f"subscript 'slots' {why}")]


def _verify_cmp(op: Operation) -> list[Diagnostic]:
    pred = op.attrs.get("pred")
    if not isinstance(pred, StringAttr) or pred.value not in CMP_PREDICATES:
        return [error(op.location, "cmp requires a 'pred' attribute")]
    return []


def _verify_kernel(op: Operation) -> list[Diagnostic]:
    if not isinstance(op.attrs.get("name"), StringAttr):
        return [error(op.location, "kernel requires a 'name' attribute")]
    return []


def _verify_output(op: Operation) -> list[Diagnostic]:
    diags = []
    if not isinstance(op.attrs.get("name"), StringAttr):
        diags.append(error(op.location, "output requires a 'name' attribute"))
    if not isinstance(op.attrs.get("type"), TypeAttr):
        diags.append(error(op.location, "output requires a 'type' attribute"))
    return diags


# --- rule helpers -----------------------------------------------------------


def _literal_value(v: Value) -> Fraction | bool | None:
    """The exact value of a scalar literal: a bool for a bool literal, a
    Fraction for a rational, index or integer one; otherwise None."""
    op = v.defining_op
    if op is None or op.kind != "ekl.literal":
        return None
    t = op.result.type
    attr = op.attrs["value"]
    if isinstance(t, BoolType) and isinstance(attr, IntAttr):
        return bool(attr.value)
    if isinstance(t, (RationalType, IndexType, IntType)) and isinstance(
        attr, (IntAttr, RationalAttr)
    ):
        return Fraction(attr.value)
    return None


_EXACT = {
    "ekl.add": operator.add,
    "ekl.sub": operator.sub,
    "ekl.mul": operator.mul,
    "ekl.div": operator.truediv,
    "ekl.neg": operator.neg,
}


def _demote_index(t: Type) -> Type:
    """Integer type standing in for an index when bounds cannot be tracked."""
    s = scalar_of(t)
    if isinstance(s, IndexType):
        return with_shape(_smallest_int_for(0, s.bound - 1) or SI64, shape_of(t))
    return t


def _operand_samples(op: Operation, ctx: TypingContext) -> list[Type] | None:
    samples = []
    for v in op.operands:
        s = ctx.sample(v)
        if s is None:
            return None  # rule re-fires once more is known
        samples.append(s)
    return samples


def _combine(ctx: TypingContext, types: list[Type], what: str) -> Type:
    try:
        return broadcast_and_promote(types)
    except CombineError as exc:
        raise ctx.contradict(
            f"no {what} for operands: {exc.reason} failed for "
            f"{exc.left} and {exc.right}"
        )


# --- typing rules -----------------------------------------------------------


def arith_rule(op: Operation, ctx: TypingContext) -> None:
    samples = _operand_samples(op, ctx)
    if samples is None:
        return
    for s in samples:
        if isinstance(scalar_of(s), BoolType) or not is_arithmetic_type(s):
            raise ctx.contradict(f"'{op.kind}' operand has non-arithmetic type {s}")
    if op.kind == "ekl.add":
        # Index addition tracks the exclusive upper bound of the result.
        scalars = [scalar_of(s) for s in samples]
        index = index_add_bound(*scalars)
        if index is None and any(isinstance(s, IndexType) for s in scalars):
            idx, other = (0, 1) if isinstance(scalars[0], IndexType) else (1, 0)
            const = _literal_value(op.operands[other])
            if const is not None and const.denominator == 1 and const >= 0:
                index = IndexType(scalars[idx].bound + int(const))
        if index is not None:
            shape = broadcast_shapes(shape_of(samples[0]), shape_of(samples[1]))
            if shape is None:
                raise ctx.contradict(
                    f"no broadcast shape for {samples[0]} and {samples[1]}"
                )
            ctx.exact(op.result, with_shape(index, shape))
            return
    samples = [_demote_index(s) for s in samples]
    result = _combine(ctx, samples, "arithmetic type")
    if op.kind == "ekl.div" and not isinstance(scalar_of(result), (FloatType, RationalType)):
        # True division: integer operands promote to f64, NumPy-style.
        result = with_shape(F64, shape_of(result))
    ctx.exact(op.result, result)


def cmp_rule(op: Operation, ctx: TypingContext) -> None:
    samples = _operand_samples(op, ctx)
    if samples is None:
        return
    for s in samples:
        if not is_arithmetic_type(s) and not isinstance(scalar_of(s), BoolType):
            raise ctx.contradict(f"cannot compare values of type {s}")
    combined = _combine(ctx, [with_shape(RATIONAL, shape_of(s)) for s in samples], "broadcast shape")
    ctx.exact(op.result, with_shape(BOOL, shape_of(combined)))


def cmp_type(op: Operation) -> Type | None:
    """The type that comparison `op` computes in: the promoted scalar type
    of its operands, or None when they have none."""
    return promote(*(scalar_of(v.type) for v in op.operands))


def subscript_slots(op: Operation) -> str:
    """One character per written slot of a subscript: `i` reads the next
    index operand, `:` keeps a whole axis, `.` is the ellipsis."""
    attr = op.attrs.get("slots")
    return "i" * (len(op.operands) - 1) if attr is None else attr.value


def expanded_slots(op: Operation, rank: int) -> str:
    """The slots of a subscript of a rank-`rank` source, its ellipsis
    replaced by a `:` for each axis that no other slot names."""
    slots = subscript_slots(op)
    return slots.replace(".", ":" * (rank - len(slots) + 1))


def set_slots(op: Operation, slots: str) -> None:
    """Record `slots` on a subscript; the attribute is absent when every
    slot is an index."""
    if "i" * len(slots) == slots:
        op.attrs.pop("slots", None)
    else:
        op.attrs["slots"] = StringAttr(slots)


def _constant_slot(v: Value) -> Fraction | None:
    """Exact value of a slot built from literals by arithmetic and
    negation; None when it is not such a constant or divides by zero."""
    op = v.defining_op
    if op is None:
        return None
    if op.kind == "ekl.literal":
        return _literal_value(v)
    fn = _EXACT.get(op.kind)
    if fn is None:
        return None
    values = [_constant_slot(w) for w in op.operands]
    if any(x is None for x in values) or (op.kind == "ekl.div" and values[1] == 0):
        return None
    return fn(*values)


def subscript_rule(op: Operation, ctx: TypingContext) -> None:
    src = ctx.sample(op.operands[0])
    if src is None:
        return
    if not isinstance(src, ArrayType):
        raise ctx.contradict(f"subscript of non-array type {src}")
    slots = subscript_slots(op)
    rank = len(src.shape)
    if "." in slots:
        if slots.count(".") > 1:
            raise ctx.contradict("at most one ellipsis is allowed in a subscript")
        fixed = len(slots) - 1
        if fixed > rank:
            raise ctx.contradict(
                f"subscript consumes {fixed} axes but array has rank {rank}"
            )
        slots = slots.replace(".", ":" * (rank - fixed))  # as `expanded_slots`
    elif len(slots) != rank:
        raise ctx.contradict(
            f"subscript has {len(slots)} indexers but array has rank {rank}"
        )
    kept: list[int] = []
    indices = iter(op.operands[1:])
    for axis, kind in enumerate(slots):
        extent = src.shape[axis]
        if kind == ":":
            kept.append(extent)
            continue
        operand = next(indices)
        s = ctx.sample(operand)
        if s is not None and isinstance(s, ArrayType):
            raise ctx.contradict(
                "array-valued subscripts are not supported; use named indices"
            )
        if extent == 0:
            raise ctx.contradict("cannot index an axis of extent 0")
        if isinstance(s, RationalType):
            # A rational fits `index<N>` by the literal carve-out of `_fits`,
            # which does not look at its value: prove the value here.
            value = _constant_slot(operand)
            if value is None:
                raise ctx.contradict(
                    f"rational subscript on axis {axis} is not a constant; "
                    f"index with an index-typed value"
                )
            if value.denominator != 1 or not 0 <= value < extent:
                raise ctx.contradict(
                    f"constant subscript {value} on axis {axis} is not an "
                    f"integer in [0, {extent})"
                )
        ctx.at_most(operand, IndexType(extent))
    ctx.exact(op.result, with_shape(src.scalar, tuple(kept)))


def stack_rule(op: Operation, ctx: TypingContext) -> None:
    samples = _operand_samples(op, ctx)
    if samples is None:
        return
    combined = _combine(ctx, samples, "stack element type")
    scalar = scalar_of(combined)
    shape = shape_of(combined) + (len(op.operands),)
    ctx.exact(op.result, ArrayType(scalar, shape))


def choice_rule(op: Operation, ctx: TypingContext) -> None:
    cond, a, b = op.operands
    cs = ctx.sample(cond)
    if cs is not None and not isinstance(scalar_of(cs), BoolType):
        raise ctx.contradict(f"condition must be boolean, got {cs}")
    sa, sb = ctx.sample(a), ctx.sample(b)
    if cs is None or sa is None or sb is None:
        return
    value = _combine(ctx, [sa, sb], "common branch type")
    shape = broadcast_shapes(shape_of(cs), shape_of(value))
    if shape is None:
        raise ctx.contradict(
            f"condition shape {shape_of(cs)} does not broadcast with "
            f"branch shape {shape_of(value)}"
        )
    ctx.exact(op.result, with_shape(scalar_of(value), shape))


def if_stmt_rule(op: Operation, ctx: TypingContext) -> None:
    ctx.at_most(op.operands[0], BOOL)


def assoc_rule(op: Operation, ctx: TypingContext) -> None:
    block = op.body()
    args = block.args
    yielded = block.ops[-1].operands[0]
    # Downward: a known result array constrains the index space and element.
    res_t = ctx.sample(op.result)
    if isinstance(res_t, ArrayType):
        if len(res_t.shape) != len(args):
            raise ctx.contradict(
                f"result rank {len(res_t.shape)} does not match the "
                f"{len(args)} association indices"
            )
        for arg, extent in zip(args, res_t.shape):
            ctx.at_most(arg, IndexType(max(extent, 1)))
        ctx.at_most(yielded, res_t.scalar)
    elif res_t is not None:
        raise ctx.contradict(f"assoc result must be an array, got {res_t}")
    # Upward: settled index bounds and element type determine the result.
    arg_ts = [ctx.sample(a) for a in args]
    elem = ctx.sample(yielded)
    if elem is None or any(not isinstance(t, IndexType) for t in arg_ts):
        return
    if isinstance(elem, ArrayType):
        raise ctx.contradict("assoc functor must yield a scalar element")
    shape = tuple(t.bound for t in arg_ts)
    ctx.exact(op.result, ArrayType(elem, shape))


def reduce_rule(op: Operation, ctx: TypingContext) -> None:
    src = ctx.sample(op.operands[0])
    if src is None:
        return
    if not isinstance(src, ArrayType):
        raise ctx.contradict(f"reduce requires an array operand, got {src}")
    elem = src.scalar
    # A sum of `index<N>` values reaches past N unless N is 1.
    if not is_numeric_scalar(elem) or (isinstance(elem, IndexType) and elem.bound > 1):
        raise ctx.contradict(f"cannot sum values of type {elem}")
    ctx.exact(op.result, elem)


def output_rule(op: Operation, ctx: TypingContext) -> None:
    declared = op.attrs["type"].value
    ctx.at_most(op.operands[0], declared)


def cast_rule(op: Operation, ctx: TypingContext) -> None:
    src = ctx.sample(op.operands[0])
    if src is not None:
        if not is_arithmetic_type(src) and not isinstance(scalar_of(src), BoolType):
            raise ctx.contradict(f"cannot cast from non-numeric type {src}")


# --- registration -----------------------------------------------------------


def _sig(kind: str, **kw) -> None:
    REGISTRY[kind] = OpSignature(**kw)


_sig("ekl.program", num_regions=1, is_container=True)
_sig(
    "ekl.kernel",
    num_regions=1,
    verifier=_verify_kernel,
)
_sig("ekl.literal", num_results=1, verifier=_verify_typed)
_sig(
    "ekl.subscript",
    min_operands=1,
    max_operands=None,
    num_results=1,
    verifier=_verify_subscript,
    typing_rule=subscript_rule,
)
for _kind in ("ekl.add", "ekl.sub", "ekl.mul", "ekl.div"):
    _sig(_kind, min_operands=2, max_operands=2, num_results=1, typing_rule=arith_rule)
_sig("ekl.neg", min_operands=1, max_operands=1, num_results=1, typing_rule=arith_rule)
_sig(
    "ekl.cmp",
    min_operands=2,
    max_operands=2,
    num_results=1,
    verifier=_verify_cmp,
    typing_rule=cmp_rule,
)
_sig("ekl.stack", min_operands=1, max_operands=None, num_results=1, typing_rule=stack_rule)
_sig("ekl.choice", min_operands=3, max_operands=3, num_results=1, typing_rule=choice_rule)
_sig(
    "ekl.if_stmt",
    min_operands=1,
    max_operands=1,
    num_regions=2,
    typing_rule=if_stmt_rule,
)
_sig(
    "ekl.assoc",
    num_regions=1,
    num_results=1,
    verifier=_verify_functor,
    typing_rule=assoc_rule,
)
_sig(
    "ekl.reduce",
    min_operands=1,
    max_operands=1,
    num_results=1,
    typing_rule=reduce_rule,
)
_sig("ekl.yield", min_operands=1, max_operands=1)
_sig("ekl.output", min_operands=1, max_operands=1, verifier=_verify_output, typing_rule=output_rule)
_sig(
    "ekl.cast",
    min_operands=1,
    max_operands=1,
    num_results=1,
    verifier=_verify_typed,
    typing_rule=cast_rule,
)


# --- builder helpers --------------------------------------------------------
#
# Each construct that more than one pass creates is built here, so its
# shape is decided once. Builders return the op unattached; the caller
# places it.


def make_literal(value: Attribute, type: Type, loc: Location = Location()) -> Operation:
    """A literal of `value`, of result type `type`."""
    return Operation("ekl.literal", attrs={"value": value}, result_type=type, location=loc)


def number_literal(value: Fraction | int, loc: Location = Location()) -> Operation:
    return make_literal(RationalAttr(Fraction(value)), RATIONAL, loc)


def index_literal(value: int, loc: Location = Location()) -> Operation:
    return make_literal(IntAttr(value), IndexType(value + 1), loc)


def bool_literal(value: bool, loc: Location = Location()) -> Operation:
    return make_literal(IntAttr(int(value)), BOOL, loc)


def make_yield(value: Value, loc: Location = Location()) -> Operation:
    return Operation("ekl.yield", operands=[value], location=loc)


def make_assoc(block: Block, result_type: Type, loc: Location) -> Operation:
    """An assoc over the functor `block`."""
    return Operation(
        "ekl.assoc",
        regions=[block],
        result_type=result_type,
        location=loc,
    )


def make_sum(source: Value, type: Type, loc: Location) -> Operation:
    """The sum of every element of `source`, of result type `type`."""
    return Operation("ekl.reduce", operands=[source], result_type=type, location=loc)


def make_cast(value: Value, target: Type, loc: Location) -> Operation:
    return Operation("ekl.cast", operands=[value], result_type=target, location=loc)


def make_subscript(
    source: Value, indices: list[Value], type: Type, loc: Location, slots: str = ""
) -> Operation:
    """`source[...]` with result type `type`, reading `indices` in order at
    the `i`s of `slots`; by default every slot is an index."""
    op = Operation(
        "ekl.subscript", operands=[source, *indices], result_type=type, location=loc
    )
    set_slots(op, slots)
    return op
