"""The ekl op set: registered signatures, local verifiers, and typing rules.

Expression-producing ops have exactly one result. Containers (program,
kernel) hold single-block regions; generator ops (assoc, reduce) hold
functor regions terminated by a yield.
"""

from __future__ import annotations

from fractions import Fraction

from .diagnostics import Diagnostic, Location, error
from .ir import (
    Attribute,
    IntAttr,
    OpSignature,
    Operation,
    RationalAttr,
    REGISTRY,
    ShapeAttr,
    StringAttr,
    TypeAttr,
    Value,
)
from .typecheck import TypingContext, equiv, upper
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
    PseudoType,
    RationalType,
    Type,
    _smallest_int_for,
    broadcast_and_promote,
    broadcast_shapes,
    index_add_bound,
    is_arithmetic_type,
    scalar_of,
    shape_of,
    with_shape,
)

CMP_PREDICATES = ("eq", "ne", "lt", "le", "gt", "ge")
ARITH_KINDS = ("ekl.add", "ekl.sub", "ekl.mul", "ekl.div", "ekl.neg")


# --- structural verifiers ---------------------------------------------------


def _verify_functor(op: Operation) -> list[Diagnostic]:
    block = op.regions[0].block
    if not block.ops or block.ops[-1].kind != "ekl.yield":
        return [error(op.location, f"'{op.kind}' region must end with ekl.yield")]
    return []


def _verify_literal(op: Operation) -> list[Diagnostic]:
    diags = []
    if "value" not in op.attrs:
        diags.append(error(op.location, "literal requires a 'value' attribute"))
    if "type" not in op.attrs or not isinstance(op.attrs["type"], TypeAttr):
        diags.append(error(op.location, "literal requires a 'type' attribute"))
    return diags


def _verify_cmp(op: Operation) -> list[Diagnostic]:
    pred = op.attrs.get("pred")
    if not isinstance(pred, StringAttr) or pred.value not in CMP_PREDICATES:
        return [error(op.location, "cmp requires a 'pred' attribute")]
    return []


def _verify_kernel(op: Operation) -> list[Diagnostic]:
    if not isinstance(op.attrs.get("name"), StringAttr):
        return [error(op.location, "kernel requires a 'name' attribute")]
    return []


def _verify_reduce(op: Operation) -> list[Diagnostic]:
    diags = _verify_functor(op)
    if len(op.regions[0].block.args) != 2:
        diags.append(
            error(op.location, "reduce functor must take exactly two arguments")
        )
    return diags


def _verify_output(op: Operation) -> list[Diagnostic]:
    diags = []
    if not isinstance(op.attrs.get("name"), StringAttr):
        diags.append(error(op.location, "output requires a 'name' attribute"))
    if not isinstance(op.attrs.get("type"), TypeAttr):
        diags.append(error(op.location, "output requires a 'type' attribute"))
    return diags


# --- rule helpers -----------------------------------------------------------


def _literal_type(op: Operation) -> Type | None:
    """The lexer-annotated type of a literal-defining op, if any."""
    if op.kind == "ekl.literal":
        attr = op.attrs.get("type")
        if isinstance(attr, TypeAttr):
            return attr.value
    return None


def _literal_int_value(v: Value) -> int | None:
    """Constant integer value of a rational/index literal operand, if any."""
    op = v.defining_op
    if op is None or op.kind != "ekl.literal":
        return None
    attr = op.attrs.get("value")
    if isinstance(attr, IntAttr):
        return attr.value
    if isinstance(attr, RationalAttr) and attr.value.denominator == 1:
        return int(attr.value)
    return None


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


def literal_rule(op: Operation, ctx: TypingContext) -> None:
    t = op.attrs["type"].value
    ctx.deduce(op.result, equiv(t))


def arith_rule(op: Operation, ctx: TypingContext) -> None:
    samples = _operand_samples(op, ctx)
    if samples is None:
        return
    for s in samples:
        if isinstance(scalar_of(s), (PseudoType, BoolType)) or not is_arithmetic_type(s):
            raise ctx.contradict(f"'{op.kind}' operand has non-arithmetic type {s}")
    if op.kind == "ekl.add":
        # Index addition tracks the exclusive upper bound of the result.
        scalars = [scalar_of(s) for s in samples]
        index = index_add_bound(*scalars)
        if index is None and any(isinstance(s, IndexType) for s in scalars):
            idx, other = (0, 1) if isinstance(scalars[0], IndexType) else (1, 0)
            const = _literal_int_value(op.operands[other])
            if const is not None and const >= 0:
                index = IndexType(scalars[idx].bound + const)
        if index is not None:
            shape = broadcast_shapes(shape_of(samples[0]), shape_of(samples[1]))
            if shape is None:
                raise ctx.contradict(
                    f"no broadcast shape for {samples[0]} and {samples[1]}"
                )
            ctx.deduce(op.result, equiv(with_shape(index, shape)))
            return
    samples = [_demote_index(s) for s in samples]
    result = _combine(ctx, samples, "arithmetic type")
    if op.kind == "ekl.div" and not isinstance(scalar_of(result), (FloatType, RationalType)):
        # True division: integer operands promote to f64, NumPy-style.
        result = with_shape(F64, shape_of(result))
    ctx.deduce(op.result, equiv(result))


def cmp_rule(op: Operation, ctx: TypingContext) -> None:
    samples = _operand_samples(op, ctx)
    if samples is None:
        return
    for s in samples:
        if not is_arithmetic_type(s) and not isinstance(scalar_of(s), BoolType):
            raise ctx.contradict(f"cannot compare values of type {s}")
    combined = _combine(ctx, [with_shape(RATIONAL, shape_of(s)) for s in samples], "broadcast shape")
    ctx.deduce(op.result, equiv(with_shape(BOOL, shape_of(combined))))


def _subscript_slots(op: Operation) -> list[tuple[str, int]]:
    """Classify subscript slots syntactically: (kind, operand index).

    Kinds: 'index' (scalar index expression), ':' (identity), '...'
    (ellipsis), '*' (extent).
    """
    slots = []
    for i, v in enumerate(op.operands[1:], start=1):
        defop = v.defining_op
        lt = _literal_type(defop) if defop is not None else None
        if isinstance(lt, PseudoType):
            slots.append((lt.kind, i))
        else:
            slots.append(("index", i))
    return slots


def subscript_rule(op: Operation, ctx: TypingContext) -> None:
    src = ctx.sample(op.operands[0])
    if src is None:
        return
    if not isinstance(src, ArrayType):
        raise ctx.contradict(f"subscript of non-array type {src}")
    slots = _subscript_slots(op)
    n_ellipsis = sum(1 for k, _ in slots if k == "...")
    if n_ellipsis > 1:
        raise ctx.contradict("at most one ellipsis is allowed in a subscript")
    for k, _ in slots:
        if k == "*":
            raise ctx.contradict("extent '*' subscripts are not supported")
    rank = len(src.shape)
    fixed = len(slots) - n_ellipsis
    if n_ellipsis:
        if fixed > rank:
            raise ctx.contradict(
                f"subscript consumes {fixed} axes but array has rank {rank}"
            )
    elif fixed != rank:
        raise ctx.contradict(
            f"subscript has {fixed} indexers but array has rank {rank}"
        )
    # Expand the ellipsis to identity indexers and pair slots with axes.
    expanded: list[tuple[str, int | None]] = []
    for kind, idx in slots:
        if kind == "...":
            expanded.extend((":", None) for _ in range(rank - fixed))
        else:
            expanded.append((kind, idx))
    kept: list[int] = []
    for axis, (kind, idx) in enumerate(expanded):
        extent = src.shape[axis]
        if kind == ":":
            kept.append(extent)
            continue
        operand = op.operands[idx]
        s = ctx.sample(operand)
        if s is not None and isinstance(s, ArrayType):
            raise ctx.contradict(
                "array-valued subscripts are not supported; use named indices"
            )
        if extent == 0:
            raise ctx.contradict("cannot index an axis of extent 0")
        ctx.deduce(operand, upper(IndexType(extent)))
    ctx.deduce(op.result, equiv(with_shape(src.scalar, tuple(kept))))


def stack_rule(op: Operation, ctx: TypingContext) -> None:
    samples = _operand_samples(op, ctx)
    if samples is None:
        return
    combined = _combine(ctx, samples, "stack element type")
    scalar = scalar_of(combined)
    shape = shape_of(combined) + (len(op.operands),)
    ctx.deduce(op.result, equiv(ArrayType(scalar, shape)))


def _choice_like_rule(op: Operation, ctx: TypingContext) -> None:
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
    ctx.deduce(op.result, equiv(with_shape(scalar_of(value), shape)))


def if_stmt_rule(op: Operation, ctx: TypingContext) -> None:
    ctx.deduce(op.operands[0], upper(BOOL))


def _yield_operand(op: Operation, region: int = 0) -> Value:
    return op.regions[region].block.ops[-1].operands[0]


def assoc_rule(op: Operation, ctx: TypingContext) -> None:
    args = op.regions[0].block.args
    yielded = _yield_operand(op)
    shape_attr = op.attrs.get("shape")
    if isinstance(shape_attr, ShapeAttr):
        if len(shape_attr.value) != len(args):
            raise ctx.contradict(
                "assoc shape attribute rank does not match functor arity"
            )
        for arg, extent in zip(args, shape_attr.value):
            ctx.deduce(arg, equiv(IndexType(max(extent, 1))))
    # Downward: a known result array constrains the index space and element.
    res = ctx.interval(op.result)
    res_t = res.sample()
    if isinstance(res_t, ArrayType):
        if len(res_t.shape) != len(args):
            raise ctx.contradict(
                f"result rank {len(res_t.shape)} does not match the "
                f"{len(args)} association indices"
            )
        for arg, extent in zip(args, res_t.shape):
            ctx.deduce(arg, upper(IndexType(max(extent, 1))))
        ctx.deduce(yielded, upper(res_t.scalar))
    elif res_t is not None:
        raise ctx.contradict(f"assoc result must be an array, got {res_t}")
    # Upward: settled index bounds and element type determine the result.
    arg_ts = [ctx.sample(a) for a in args]
    elem = ctx.sample(yielded)
    if elem is None or any(not isinstance(t, IndexType) for t in arg_ts):
        return
    if isinstance(elem, ArrayType):
        raise ctx.contradict("assoc functor must yield a scalar element")
    if isinstance(elem, PseudoType):
        raise ctx.contradict("assoc functor cannot yield a pseudo value")
    shape = tuple(t.bound for t in arg_ts)
    ctx.deduce(op.result, equiv(ArrayType(elem, shape)))


def reduce_rule(op: Operation, ctx: TypingContext) -> None:
    src = ctx.sample(op.operands[0])
    if src is None:
        return
    if not isinstance(src, ArrayType):
        raise ctx.contradict(f"reduce requires an array operand, got {src}")
    acc, elem = op.regions[0].block.args
    ctx.deduce(acc, equiv(src.scalar))
    ctx.deduce(elem, equiv(src.scalar))
    ctx.deduce(_yield_operand(op), upper(src.scalar))
    ctx.deduce(op.result, equiv(src.scalar))


def output_rule(op: Operation, ctx: TypingContext) -> None:
    declared = op.attrs["type"].value
    ctx.deduce(op.operands[0], upper(declared))


def cast_rule(op: Operation, ctx: TypingContext) -> None:
    target = op.attrs["type"].value
    src = ctx.sample(op.operands[0])
    if src is not None:
        if not is_arithmetic_type(src) and not isinstance(scalar_of(src), BoolType):
            raise ctx.contradict(f"cannot cast from non-numeric type {src}")
    ctx.deduce(op.result, equiv(target))


def broadcast_op_rule(op: Operation, ctx: TypingContext) -> None:
    shape = op.attrs["shape"].value
    src = ctx.sample(op.operands[0])
    if src is None:
        return
    if broadcast_shapes(shape_of(src), shape) != shape:
        raise ctx.contradict(f"cannot broadcast {src} to shape {list(shape)}")
    ctx.deduce(op.result, equiv(with_shape(scalar_of(src), shape)))


# --- transmutation hooks ----------------------------------------------------


def _accept_transmute(op: Operation, arg: Value, new_type: Type) -> bool:
    return True


def _assoc_transmute(op: Operation, arg: Value, new_type: Type) -> bool:
    """Keep the synced shape attribute consistent with the index arguments."""
    if not isinstance(new_type, IndexType):
        return False
    attr = op.attrs.get("shape")
    if isinstance(attr, ShapeAttr):
        shape = list(attr.value)
        shape[arg.index] = new_type.bound
        op.attrs["shape"] = ShapeAttr(tuple(shape))
    return True


# --- registration -----------------------------------------------------------


def _sig(kind: str, **kw) -> OpSignature:
    return REGISTRY.register(OpSignature(kind=kind, **kw))


_sig("ekl.program", num_regions=1, is_container=True)
_sig(
    "ekl.kernel",
    num_regions=1,
    verifier=_verify_kernel,
)
_sig(
    "ekl.literal",
    num_results=1,
    verifier=_verify_literal,
    typing_rule=literal_rule,
)
_sig(
    "ekl.subscript",
    min_operands=1,
    max_operands=None,
    num_results=1,
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
_sig("ekl.choice", min_operands=3, max_operands=3, num_results=1, typing_rule=_choice_like_rule)
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
    transmute_hook=_assoc_transmute,
)
_sig(
    "ekl.reduce",
    min_operands=1,
    max_operands=1,
    num_regions=1,
    num_results=1,
    verifier=_verify_reduce,
    typing_rule=reduce_rule,
    transmute_hook=_accept_transmute,
)
_sig("ekl.yield", min_operands=1, max_operands=1)
_sig("ekl.output", min_operands=1, max_operands=1, verifier=_verify_output, typing_rule=output_rule)
_sig("ekl.cast", min_operands=1, max_operands=1, num_results=1, typing_rule=cast_rule)
_sig(
    "ekl.broadcast",
    min_operands=1,
    max_operands=1,
    num_results=1,
    typing_rule=broadcast_op_rule,
)


# --- builder helpers --------------------------------------------------------


def make_literal(
    value: Attribute, type: Type, loc: Location = Location()
) -> Operation:
    return Operation(
        "ekl.literal",
        attrs={"value": value, "type": TypeAttr(type)},
        result_types=[EXPR],
        location=loc,
    )


def number_literal(value: Fraction | int, loc: Location = Location()) -> Operation:
    return make_literal(RationalAttr(Fraction(value)), RATIONAL, loc)


def index_literal(value: int, loc: Location = Location()) -> Operation:
    return make_literal(IntAttr(value), IndexType(value + 1), loc)


def bool_literal(value: bool, loc: Location = Location()) -> Operation:
    return make_literal(IntAttr(int(value)), BOOL, loc)


def pseudo_literal(kind: str, loc: Location = Location()) -> Operation:
    return make_literal(StringAttr(kind), PseudoType(kind), loc)


def make_yield(value: Value, loc: Location = Location()) -> Operation:
    return Operation("ekl.yield", operands=[value], location=loc)


# --- structural queries -----------------------------------------------------


def is_plain_sum(reduce_op: Operation) -> bool:
    """Whether a reduce's combiner only adds its two arguments, in either
    order, and yields the sum. The reduce's `init` is not consulted."""
    body = reduce_op.body()
    if len(body.ops) != 2 or len(body.args) != 2:
        return False
    add, yld = body.ops
    args = list(body.args)
    return (
        add.kind == "ekl.add"
        and list(add.operands) in (args, args[::-1])
        and yld.kind == "ekl.yield"
        and yld.operands[0] is add.result
    )
