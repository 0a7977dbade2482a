"""Normalization passes over typed modules.

Three stages, each idempotent and semantics-preserving:

- `simplify`: exact constant folding over rationals, algebraic identities,
  subscript-of-stack resolution, and dead code elimination.
- `materialize_casts`: inserts explicit cast ops where deduced operand
  types differ from the computed type, and expands `...` subscripts.
- `to_generator_form`: rewrites whole-array elementwise computation into
  assoc generators with scalar functors and hoists loop-invariant scalars
  out of functor bodies.
"""

from __future__ import annotations

from fractions import Fraction

from .ir import (
    Block,
    IntAttr,
    Operation,
    RationalAttr,
    Region,
    ShapeAttr,
    TypeAttr,
    Value,
    erase_tree,
    walk_lexical,
)
from .ops import (
    bool_literal,
    index_literal,
    make_yield,
    number_literal,
    pseudo_literal,
)
from .types import (
    BOOL,
    RATIONAL,
    ArrayType,
    BoolType,
    IndexType,
    PseudoType,
    RationalType,
    Type,
    promote,
    scalar_of,
    shape_of,
    with_shape,
)

_ARITH = ("ekl.add", "ekl.sub", "ekl.mul", "ekl.div")
_GENERATORS = ("ekl.assoc", "ekl.reduce")
_DCE_KEEP = ("ekl.output", "ekl.yield", "ekl.kernel", "ekl.program")


# --- simplify ----------------------------------------------------------------


def _literal_value(v: Value) -> Fraction | bool | None:
    op = v.defining_op
    if op is None or op.kind != "ekl.literal":
        return None
    t = op.attrs["type"].value
    attr = op.attrs["value"]
    if isinstance(t, RationalType) and isinstance(attr, RationalAttr):
        return attr.value
    if isinstance(t, BoolType) and isinstance(attr, IntAttr):
        return bool(attr.value)
    return None


def _replace_with(op: Operation, replacement: Operation) -> None:
    op.parent.insert_before(op, replacement)
    replacement.result.type = op.result.type
    op.result.replace_all_uses_with(replacement.result)
    erase_tree(op)


_CMP_PY = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}


def _try_fold(op: Operation) -> bool:
    """Exact evaluation of operations over rational and boolean literals."""
    if op.kind not in _ARITH + ("ekl.neg", "ekl.cmp"):
        return False
    if op.result.type not in (RATIONAL, BOOL):
        return False
    vals = [_literal_value(v) for v in op.operands]
    if any(v is None for v in vals):
        return False
    nums = [Fraction(int(v)) if isinstance(v, bool) else v for v in vals]
    if op.kind == "ekl.cmp":
        result = _CMP_PY[op.attrs["pred"].value](nums[0], nums[1])
        _replace_with(op, bool_literal(result, op.location))
        return True
    if op.kind == "ekl.neg":
        value = -nums[0]
    elif op.kind == "ekl.add":
        value = nums[0] + nums[1]
    elif op.kind == "ekl.sub":
        value = nums[0] - nums[1]
    elif op.kind == "ekl.mul":
        value = nums[0] * nums[1]
    else:
        if nums[1] == 0:
            return False  # division by zero stays a runtime error
        value = nums[0] / nums[1]
    if op.result.type != RATIONAL:
        return False
    _replace_with(op, number_literal(value, op.location))
    return True


def _try_identity(op: Operation) -> bool:
    """x+0, x-0, x*1, x/1, and double negation."""

    def replace(keep: Value) -> bool:
        if keep.type != op.result.type:
            return False
        op.result.replace_all_uses_with(keep)
        erase_tree(op)
        return True

    if op.kind in ("ekl.add", "ekl.sub"):
        if _literal_value(op.operands[1]) == Fraction(0):
            return replace(op.operands[0])
        if op.kind == "ekl.add" and _literal_value(op.operands[0]) == Fraction(0):
            return replace(op.operands[1])
    elif op.kind in ("ekl.mul", "ekl.div"):
        if _literal_value(op.operands[1]) == Fraction(1):
            return replace(op.operands[0])
        if op.kind == "ekl.mul" and _literal_value(op.operands[0]) == Fraction(1):
            return replace(op.operands[1])
    elif op.kind == "ekl.neg":
        inner = op.operands[0].defining_op
        if inner is not None and inner.kind == "ekl.neg":
            return replace(inner.operands[0])
    elif op.kind == "ekl.subscript":
        # A read whose every slot keeps its full axis is the source itself.
        def full_axis(v: Value) -> bool:
            defop = v.defining_op
            if defop is None or defop.kind != "ekl.literal":
                return False
            t = defop.attrs["type"].value
            return isinstance(t, PseudoType)

        if len(op.operands) > 1 and all(full_axis(v) for v in op.operands[1:]):
            return replace(op.operands[0])
    return False


def _try_stack_subscript(op: Operation) -> bool:
    """stack(a, b, ...)[_k] resolves to the k-th element."""
    if op.kind != "ekl.subscript" or len(op.operands) != 2:
        return False
    stack = op.operands[0].defining_op
    if stack is None or stack.kind != "ekl.stack":
        return False
    if len(shape_of(stack.result.type)) != 1:
        return False
    slot = op.operands[1].defining_op
    if slot is None or slot.kind != "ekl.literal":
        return False
    attr = slot.attrs["value"]
    if not isinstance(attr, IntAttr):
        return False
    k = attr.value
    if not 0 <= k < len(stack.operands):
        return False
    element = stack.operands[k]
    if element.type != op.result.type:
        return False
    op.result.replace_all_uses_with(element)
    erase_tree(op)
    return True


def _has_output(op: Operation) -> bool:
    return any(nested.kind == "ekl.output" for nested in walk_lexical(op))


def _dce_block(block: Block) -> bool:
    changed = False
    for op in reversed(list(block.ops)):
        for region in op.regions:
            changed |= _dce_block(region.block)
        if op.kind in _DCE_KEEP:
            continue
        if op.kind == "ekl.if_stmt" and _has_output(op):
            continue
        if all(not r.uses for r in op.results):
            erase_tree(op)
            changed = True
    return changed


def simplify(module: Operation) -> Operation:
    """Iterate local rewrites and DCE to a fix-point; mutates in place."""
    for _ in range(100):
        changed = False
        for op in list(walk_lexical(module)):
            if op.parent is None and op is not module:
                continue  # erased by an earlier rewrite
            changed |= (
                _try_fold(op) or _try_identity(op) or _try_stack_subscript(op)
            )
        for region in module.regions:
            changed |= _dce_block(region.block)
        if not changed:
            break
    return module


# --- materialize_casts -------------------------------------------------------


def _cast_before(anchor: Operation, value: Value, target: Type) -> Value:
    cast = Operation(
        "ekl.cast",
        operands=[value],
        attrs={"type": TypeAttr(target)},
        result_types=[target],
        location=anchor.location,
    )
    anchor.parent.insert_before(anchor, cast)
    return cast.result


def _cast_operands_to(op: Operation, indices: list[int], scalar: Type) -> bool:
    changed = False
    for i in indices:
        v = op.operands[i]
        s = scalar_of(v.type)
        if s == scalar or isinstance(s, PseudoType):
            continue
        op.set_operand(i, _cast_before(op, v, with_shape(scalar, shape_of(v.type))))
        changed = True
    return changed


def _expand_ellipsis(op: Operation) -> None:
    src_t = op.operands[0].type
    if not isinstance(src_t, ArrayType):
        return
    slots = []
    has_ellipsis = False
    for v in op.operands[1:]:
        defop = v.defining_op
        t = None
        if defop is not None and defop.kind == "ekl.literal":
            t = defop.attrs["type"].value
        kind = t.kind if isinstance(t, PseudoType) else "index"
        has_ellipsis |= kind == "..."
        slots.append((kind, v))
    if not has_ellipsis:
        return
    fixed = sum(1 for k, _ in slots if k != "...")
    missing = len(src_t.shape) - fixed
    new_operands = [op.operands[0]]
    for kind, v in slots:
        if kind == "...":
            for _ in range(missing):
                identity = pseudo_literal(":", op.location)
                identity.result.type = PseudoType(":")
                op.parent.insert_before(op, identity)
                new_operands.append(identity.result)
        else:
            new_operands.append(v)
    op.drop_operands()
    for v in new_operands:
        op.add_operand(v)
    for kind, v in slots:
        if kind == "..." and not v.uses and v.defining_op is not None:
            erase_tree(v.defining_op)


def materialize_casts(module: Operation) -> Operation:
    """Insert explicit conversions so every op sees its computed scalar kind."""
    for op in list(walk_lexical(module)):
        if op.parent is None:
            continue
        kind = op.kind
        if kind == "ekl.subscript":
            _expand_ellipsis(op)
        elif kind in _ARITH + ("ekl.neg",):
            rs = scalar_of(op.result.type)
            if isinstance(rs, IndexType):
                continue  # index arithmetic keeps its bound tracking
            _cast_operands_to(op, list(range(len(op.operands))), rs)
        elif kind == "ekl.cmp":
            sa, sb = (scalar_of(v.type) for v in op.operands)
            common = promote(sa, sb)
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
            declared = op.attrs["type"].value
            _cast_operands_to(op, [0], scalar_of(declared))
            v = op.operands[0]
            if shape_of(v.type) != shape_of(declared):
                bc = Operation(
                    "ekl.broadcast",
                    operands=[v],
                    attrs={"shape": ShapeAttr(shape_of(declared))},
                    result_types=[declared],
                    location=op.location,
                )
                op.parent.insert_before(op, bc)
                op.set_operand(0, bc.result)
    return module


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


def _source_for_mapping(v: Value) -> Value:
    """See through explicit broadcasts: index mapping subsumes them."""
    op = v.defining_op
    if op is not None and op.kind == "ekl.broadcast":
        return op.operands[0]
    return v


def _subscript_mapped(
    block: Block, v: Value, shape: tuple[int, ...], loc
) -> Value:
    """Read one element of `v` at the functor's index point.

    Right-aligned broadcast mapping: equal extents use the index argument,
    extent-1 axes read element 0, missing leading axes are dropped.
    """
    v = _source_for_mapping(v)
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
            lit = index_literal(0, loc)
            lit.result.type = IndexType(1)
            block.append(lit)
            slots.append(lit.result)
    sub = Operation(
        "ekl.subscript",
        operands=[v] + slots,
        result_types=[scalar_of(v.type)],
        location=loc,
    )
    block.append(sub)
    return sub.result


def _scalarize(op: Operation) -> None:
    rt = op.result.type
    assert isinstance(rt, ArrayType)
    shape = rt.shape
    block = Block([IndexType(max(e, 1)) for e in shape])
    loc = op.location
    body_operands = [
        _subscript_mapped(block, v, shape, loc) for v in op.operands
    ]
    attrs = dict(op.attrs)
    if op.kind == "ekl.cast":
        attrs["type"] = TypeAttr(scalar_of(attrs["type"].value))
    scalar_op = Operation(
        op.kind,
        operands=body_operands,
        attrs=attrs,
        result_types=[scalar_of(rt)],
        location=loc,
    )
    block.append(scalar_op)
    block.append(make_yield(scalar_op.result, loc))
    assoc = Operation(
        "ekl.assoc",
        attrs={"shape": ShapeAttr(shape)},
        regions=[Region(block)],
        result_types=[rt],
        location=loc,
    )
    op.parent.insert_before(op, assoc)
    op.result.replace_all_uses_with(assoc.result)
    erase_tree(op)


def _licm(module: Operation) -> None:
    """Hoist functor-body ops whose whole subtree depends only on outer
    values."""
    for _ in range(50):
        changed = False
        for g in list(walk_lexical(module)):
            if g.kind not in _GENERATORS or g.parent is None:
                continue
            block = g.body()
            inside: set[Value] = set(block.args)
            for body_op in block.ops:
                inside.update(body_op.results)
            for body_op in list(block.ops[:-1]):
                if body_op.kind in ("ekl.literal", "ekl.yield"):
                    continue
                deps = [
                    v
                    for nested in walk_lexical(body_op)
                    for v in nested.operands
                ]
                own: set[Value] = set(body_op.results)
                for nested in walk_lexical(body_op):
                    own.update(nested.results)
                    for region in nested.regions:
                        own.update(region.block.args)
                if any(v in inside and v not in own for v in deps):
                    continue
                block.ops.remove(body_op)
                g.parent.insert_before(g, body_op)
                inside.difference_update(body_op.results)
                changed = True
        if not changed:
            break


def to_generator_form(module: Operation) -> Operation:
    """Lower all whole-array computation into generator trees."""
    for op in list(walk_lexical(module)):
        if op.parent is None:
            continue
        if op.kind in _SCALARIZE and isinstance(op.result.type, ArrayType):
            _scalarize(op)
    _licm(module)
    for region in module.regions:
        _dce_block(region.block)
    return module
