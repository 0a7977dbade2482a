"""Normalization passes over typed modules.

Three stages, each idempotent and semantics-preserving:

- `simplify`: exact constant folding over rationals, integers and
  booleans, choices on constant conditions dissolved, algebraic
  identities, subscript-of-stack resolution, and dead code elimination.
- `materialize_casts`: inserts explicit cast ops where deduced operand
  types differ from the computed type, and expands `...` subscripts.
- `to_generator_form`: rewrites whole-array elementwise computation into
  assoc generators with scalar functors and hoists loop-invariant scalars
  out of functor bodies.

Local rewrites run through one function, `rewrite(module, rules)`,
modelled on MLIR's greedy pattern rewriter: one forward walk over a pre-order
snapshot applies the first rule that matches each op, then one dead code
elimination removes what the rules left unused. A rule reads only its op
and the ops that define its operands, and it changes only its op and the
operands of that op's users. In pre-order an operand is defined before
all of its users, so when the walk reaches an op, no later rewrite can
change what a rule saw there: the single walk reaches the fix-point that
repeated rounds would, and needs no round count.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, Iterable

from .ir import (
    Block,
    IntAttr,
    Operation,
    RationalAttr,
    Value,
    erase_tree,
    walk_lexical,
)
from .ops import (
    _EXACT,
    CMP_PREDICATES,
    _literal_value,
    cmp_type,
    expanded_slots,
    make_assoc,
    make_cast,
    make_literal,
    make_subscript,
    make_yield,
    set_slots,
)
from .types import (
    ArrayType,
    BoolType,
    IndexType,
    IntType,
    RationalType,
    Type,
    rational_cast,
    rational_fits_exactly,
    scalar_of,
    shape_of,
    with_shape,
)

_ARITH = ("ekl.add", "ekl.sub", "ekl.mul", "ekl.div")
_DCE_KEEP = ("ekl.output", "ekl.yield", "ekl.kernel", "ekl.program")

Rule = Callable[[Operation], bool]


# --- rewriting ---------------------------------------------------------------


def _dce_block(block: Block) -> None:
    """Erase unused ops, users before the ops they use."""
    for op in reversed(list(block.ops)):
        for nested in op.regions:
            _dce_block(nested)
        if op.kind in _DCE_KEEP or (op.result is not None and op.result.uses):
            continue
        if op.kind == "ekl.if_stmt" and any(
            nested.kind == "ekl.output" for nested in walk_lexical(op)
        ):
            continue  # a statement that sets an output
        erase_tree(op)


def rewrite(module: Operation, rules: Iterable[Rule]) -> Operation:
    """Apply the rules to each op in one forward walk, then remove dead
    ops; mutates in place.

    A rule returns True when it has replaced its op; no further rule is
    then tried on that op. A rule that returns False may still have
    changed the op in place, as `_make_explicit` does.
    """
    for op in list(walk_lexical(module)):
        if op.parent is None and op is not module:
            continue  # erased by an earlier rewrite
        for rule in rules:
            if rule(op):
                break
    for block in module.regions:
        _dce_block(block)
    return module


# --- simplify ----------------------------------------------------------------


def _replace_with(op: Operation, replacement: Operation) -> None:
    """Put `replacement`, already of op's result type, in op's place."""
    op.parent.insert_before(op, replacement)
    op.result.replace_all_uses_with(replacement.result)
    erase_tree(op)


def _forward(op: Operation, value: Value) -> bool:
    """Replace `op` by `value` when the two have the same type, or else by
    a literal of op's type when `value` is a literal that it holds."""
    if value.type != op.result.type:
        return _fold_into(op, _literal_value(value))
    op.result.replace_all_uses_with(value)
    erase_tree(op)
    return True


_UNIT = {"ekl.add": 0, "ekl.sub": 0, "ekl.mul": 1, "ekl.div": 1}

_CMP_PY = {pred: getattr(operator, pred) for pred in CMP_PREDICATES}


def _exact_value(op: Operation) -> Fraction | bool | None:
    """The exact value of an arithmetic, negation or comparison op whose
    operands are all literals, compared in their promoted type. None for
    any other op, a division by zero, which stays a runtime error, and
    where a cast to that type or the result type would round or trap."""
    if op.kind != "ekl.cmp" and op.kind not in _EXACT:
        return None
    values = [_literal_value(v) for v in op.operands]
    if any(v is None for v in values):
        return None
    if op.kind == "ekl.cmp":
        values = [rational_cast(x, cmp_type(op)) for x in values]
        return None if None in values else _CMP_PY[op.attrs["pred"].value](*values)
    if not all(rational_fits_exactly(v, op.result.type) for v in values):
        return None
    if op.kind == "ekl.div" and values[1] == 0:
        return None
    return _EXACT[op.kind](*values)


def _try_fold(op: Operation) -> bool:
    """Exact evaluation over literals."""
    return _fold_into(op, _exact_value(op))


def _fold_into(op: Operation, value: Fraction | bool | None) -> bool:
    """Replace `op` by a literal of `value` when its result type holds the
    value exactly: a value out of range does not wrap."""
    if value is None:
        return False
    t = op.result.type
    if not isinstance(t, (RationalType, BoolType, IndexType, IntType)):
        return False  # a float result keeps its op
    if not rational_fits_exactly(value, t):
        return False
    attr = RationalAttr(value) if isinstance(t, RationalType) else IntAttr(int(value))
    _replace_with(op, make_literal(attr, t, op.location))
    return True


def _try_identity(op: Operation) -> bool:
    """x+0, x-0, x*1, x/1, double negation, and full-axis subscripts."""
    if op.kind in _UNIT:
        unit = _UNIT[op.kind]
        if _literal_value(op.operands[1]) == unit:
            return _forward(op, op.operands[0])
        if op.kind in ("ekl.add", "ekl.mul") and _literal_value(op.operands[0]) == unit:
            return _forward(op, op.operands[1])
    elif op.kind == "ekl.neg":
        inner = op.operands[0].defining_op
        if inner is not None and inner.kind == "ekl.neg":
            return _forward(op, inner.operands[0])
    elif op.kind == "ekl.subscript" and len(op.operands) == 1:
        # A read with no index keeps every axis whole: it is the source.
        return _forward(op, op.operands[0])
    return False


def _try_stack_subscript(op: Operation) -> bool:
    """stack(a, b, ...)[_k] resolves to the k-th element."""
    if op.kind != "ekl.subscript" or len(op.operands) != 2 or "slots" in op.attrs:
        return False
    stack = op.operands[0].defining_op
    if stack is None or stack.kind != "ekl.stack":
        return False
    if len(shape_of(stack.result.type)) != 1:
        return False
    k = _literal_value(op.operands[1])
    if not isinstance(k, Fraction) or k not in range(len(stack.operands)):
        return False
    return _forward(op, stack.operands[int(k)])


def _try_choice(op: Operation) -> bool:
    """A choice on a constant condition dissolves into the chosen operand."""
    if op.kind != "ekl.choice":
        return False
    cond = _literal_value(op.operands[0])
    if not isinstance(cond, bool):
        return False
    return _forward(op, op.operands[1 if cond else 2])


SIMPLIFY_RULES = (_try_fold, _try_identity, _try_stack_subscript, _try_choice)


def simplify(module: Operation) -> Operation:
    """Fold, apply identities and remove dead code; mutates in place."""
    return rewrite(module, SIMPLIFY_RULES)


# --- materialize_casts -------------------------------------------------------


def _cast_operands_to(op: Operation, indices: list[int], scalar: Type) -> bool:
    changed = False
    for i in indices:
        v = op.operands[i]
        if scalar_of(v.type) == scalar:
            continue
        cast = make_cast(v, with_shape(scalar, shape_of(v.type)), op.location)
        op.parent.insert_before(op, cast)
        op.set_operand(i, cast.result)
        changed = True
    return changed


def _make_explicit(op: Operation) -> bool:
    """Give `op` explicit casts; the op itself stays."""
    kind = op.kind
    if kind == "ekl.subscript":
        # The ellipsis becomes the `:`s of the axes it stands for.
        set_slots(op, expanded_slots(op, len(shape_of(op.operands[0].type))))
    elif kind in _ARITH + ("ekl.neg",):
        rs = scalar_of(op.result.type)
        if not isinstance(rs, IndexType):  # index arithmetic keeps its bounds
            _cast_operands_to(op, list(range(len(op.operands))), rs)
    elif kind == "ekl.cmp":
        common = cmp_type(op)
        if common is not None and not isinstance(common, RationalType):
            _cast_operands_to(op, [0, 1], common)
    elif kind == "ekl.choice":
        rs = scalar_of(op.result.type)
        if not isinstance(rs, IndexType):
            _cast_operands_to(op, [1, 2], rs)
    elif kind == "ekl.stack":
        rs = scalar_of(op.result.type)
        _cast_operands_to(op, list(range(len(op.operands))), rs)
    elif kind == "ekl.output":
        # The checker already gave the operand the declared shape.
        _cast_operands_to(op, [0], scalar_of(op.attrs["type"].value))
    return False


def materialize_casts(module: Operation) -> Operation:
    """Insert explicit conversions so every op sees its computed scalar kind."""
    return rewrite(module, (_make_explicit,))


# --- to_generator_form -------------------------------------------------------

_SCALARIZE = (
    "ekl.add",
    "ekl.sub",
    "ekl.mul",
    "ekl.div",
    "ekl.neg",
    "ekl.cmp",
    "ekl.choice",
    "ekl.cast",
)


def _subscript_mapped(
    block: Block, v: Value, shape: tuple[int, ...], loc
) -> Value:
    """Read one element of `v` at the functor's index point.

    Right-aligned broadcast mapping: equal extents use the index argument,
    extent-1 axes read element 0, missing leading axes are dropped.
    """
    vshape = shape_of(v.type)
    if not vshape:
        return v  # loop-invariant scalar, captured directly
    offset = len(shape) - len(vshape)
    slots: list[Value] = []
    for a, extent in enumerate(vshape):
        if extent == shape[offset + a] and extent != 1:
            slots.append(block.args[offset + a])
        elif extent == 1 and shape[offset + a] == 1:
            slots.append(block.args[offset + a])
        else:
            lit = block.append(make_literal(IntAttr(0), IndexType(1), loc))
            slots.append(lit.result)
    return block.append(make_subscript(v, slots, scalar_of(v.type), loc)).result


def _scalarize(op: Operation) -> bool:
    """An elementwise op on arrays becomes an assoc over its result's
    extents with the scalar op as its body."""
    if op.kind not in _SCALARIZE or not isinstance(op.result.type, ArrayType):
        return False
    rt = op.result.type
    shape = rt.shape
    block = Block([IndexType(max(e, 1)) for e in shape])
    loc = op.location
    body_operands = [
        _subscript_mapped(block, v, shape, loc) for v in op.operands
    ]
    if op.kind == "ekl.cast":
        scalar_op = make_cast(body_operands[0], scalar_of(rt), loc)
    else:
        scalar_op = Operation(
            op.kind,
            operands=body_operands,
            attrs=op.attrs,
            result_type=scalar_of(rt),
            location=loc,
        )
    block.append(scalar_op)
    block.append(make_yield(scalar_op.result, loc))
    _replace_with(op, make_assoc(block, rt, loc))
    return True


def _licm(module: Operation) -> None:
    """Hoist functor-body ops whose whole subtree depends only on outer
    values.

    One walk over the assocs in reversed pre-order: an assoc is visited
    after every assoc nested in it, so what an inner body hoists into an
    enclosing body is there to move further out when the enclosing assoc
    is visited.
    """
    assocs = [op for op in walk_lexical(module) if op.kind == "ekl.assoc"]
    for g in reversed(assocs):
        block = g.body()
        inside: set[Value] = set(block.args)
        inside.update(body_op.result for body_op in block.ops)
        for body_op in list(block.ops[:-1]):
            if body_op.kind in ("ekl.literal", "ekl.yield"):
                continue
            subtree = list(walk_lexical(body_op))
            own = {nested.result for nested in subtree}
            own.update(a for n in subtree for b in n.regions for a in b.args)
            deps = (v for nested in subtree for v in nested.operands)
            if any(v in inside and v not in own for v in deps):
                continue
            block.ops.remove(body_op)
            g.parent.insert_before(g, body_op)
            inside.discard(body_op.result)


def to_generator_form(module: Operation) -> Operation:
    """Lower all whole-array computation into generator trees."""
    rewrite(module, (_scalarize,))
    _licm(module)
    return module
