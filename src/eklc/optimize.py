"""Optimization passes over generator-form modules, which
`eklc.pipeline.PASSES` runs in the order listed here.

- `lift_reductions`: sum factorization. Each summand of a reduction body is
  factored by peeling one bound index at a time into hoisted intermediate
  tensors, turning one O(n^(o+r)) loop nest into a chain of smaller sweeps.
  Applied only where reassociation is exact (rational or integer elements)
  unless fast-math is requested.
- `if_to_choice`: dissolves choices on a constant condition that
  `simplify` kept because their chosen operand needed a cast, which
  `materialize_casts` has since made explicit.
- `fuse_producers`: inlines single-use generators into their one consumer
  when the read is a bijective per-element gather.
- `lower_rationals`: narrows rational literals to the machine types they
  feed, warning when the conversion is inexact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .diagnostics import Diagnostic, warning
from .ir import (
    Block,
    Operation,
    RationalAttr,
    Value,
    clone_op,
    erase_tree,
    kernels_of,
    walk_lexical,
)
from .normalize import _dce_block, _replace_with, _try_choice, rewrite
from .ops import (
    make_assoc,
    make_cast,
    make_literal,
    make_subscript,
    make_sum,
    make_yield,
)
from .types import (
    RATIONAL,
    ArrayType,
    BoolType,
    IndexType,
    IntType,
    RationalType,
    promote,
    rational_fits_exactly,
    rational_in_range,
    scalar_of,
)


def _ops_inside(root: Operation) -> set[int]:
    ids = set()
    for block in root.regions:
        for op in block.ops:
            for nested in walk_lexical(op):
                ids.add(id(nested))
    return ids


def _clone_expr(
    value: Value, mapping: dict[Value, Value], block: Block, inside: set[int]
) -> Value:
    """Clone a value's defining subtree into `block`, capturing outer
    values."""
    if value in mapping:
        return mapping[value]
    op = value.defining_op
    if op is None or id(op) not in inside:
        return value
    for operand in op.operands:
        _clone_expr(operand, mapping, block, inside)
    block.append(clone_op(op, mapping))
    return mapping[value]


def _used_indices(
    value: Value, index_args: set[Value], inside: set[int], memo: dict
) -> set[Value]:
    if value in memo:
        return memo[value]
    if value in index_args:
        memo[value] = {value}
        return memo[value]
    memo[value] = set()
    op = value.defining_op
    if op is None or id(op) not in inside:
        return memo[value]
    used: set[Value] = set()
    for nested in walk_lexical(op):
        for operand in nested.operands:
            used |= _used_indices(operand, index_args, inside, memo)
    memo[value] = used
    return used


def _extent(arg: Value) -> int | None:
    return arg.type.bound if isinstance(arg.type, IndexType) else None


def _arith_value(block: Block, kind: str, loc, *operands: Value) -> Value:
    """Append a `kind` op over one or two operands to `block`; its result
    has their promoted scalar type, or the first one's."""
    first, last = (scalar_of(v.type) for v in (operands[0], operands[-1]))
    op = Operation(
        kind,
        operands=list(operands),
        result_type=promote(first, last) or first,
        location=loc,
    )
    block.append(op)
    return op.result


# --- reduction lifting -------------------------------------------------------


@dataclass
class _Factor:
    """One multiplicand of a summand during factorization."""

    used: set[Value] = field(default_factory=set)
    value: Value | None = None  # original subtree, cloned on emission
    table: Operation | None = None  # hoisted intermediate
    table_keys: tuple[Value, ...] = ()  # original index args keying the table
    multiplicity: int | None = None  # constant factor for unused bound axes

    def emit(
        self, mapping: dict[Value, Value], block: Block, inside: set[int], loc
    ) -> Value:
        if self.multiplicity is not None:
            m = RationalAttr(Fraction(self.multiplicity))
            return block.append(make_literal(m, RATIONAL, loc)).result
        if self.table is not None:
            table = self.table.result
            slots = [mapping[a] for a in self.table_keys]
            sub = make_subscript(table, slots, scalar_of(table.type), loc)
            return block.append(sub).result
        return _clone_expr(self.value, dict(mapping), block, inside)


def _summands(value: Value, inside: set[int], sign: int = 1):
    op = value.defining_op
    if op is not None and id(op) in inside:
        if op.kind == "ekl.add":
            return _summands(op.operands[0], inside, sign) + _summands(
                op.operands[1], inside, sign
            )
        if op.kind == "ekl.sub":
            return _summands(op.operands[0], inside, sign) + _summands(
                op.operands[1], inside, -sign
            )
        if op.kind == "ekl.neg":
            return _summands(op.operands[0], inside, -sign)
    return [(sign, value)]


def _product_factors(value: Value, inside: set[int]) -> list[Value]:
    op = value.defining_op
    if op is not None and id(op) in inside and op.kind == "ekl.mul":
        return _product_factors(op.operands[0], inside) + _product_factors(
            op.operands[1], inside
        )
    return [value]


def lift_reductions(module: Operation, fast_math: bool = False) -> Operation:
    """Factor `assoc{... reduce(assoc{...})}` reduction nests into sweeps."""
    for kernel in kernels_of(module):
        for op in list(kernel.body().ops):
            if op.kind == "ekl.assoc" and op.parent is not None:
                _try_lift(kernel.body(), op, fast_math)
        _dce_block(kernel.body())
    return module


def _try_lift(parent: Block, outer: Operation, fast_math: bool) -> None:
    if not isinstance(outer.result.type, ArrayType):
        return
    element = outer.result.type.scalar
    if not (
        isinstance(element, (RationalType, IntType, BoolType)) or fast_math
    ):
        return  # float reassociation changes results; require fast-math
    body = outer.body()
    if not body.ops or body.ops[-1].kind != "ekl.yield":
        return
    yielded = body.ops[-1].operands[0]
    reduce_op = yielded.defining_op
    if (
        reduce_op is None
        or reduce_op.kind != "ekl.reduce"
        or reduce_op.parent is not body
    ):
        return
    inner = reduce_op.operands[0].defining_op
    if (
        inner is None
        or inner.kind != "ekl.assoc"
        or inner.parent is not body
        or len(inner.result.uses) != 1
    ):
        return
    outer_args = list(body.args)
    inner_args = list(inner.body().args)
    order = outer_args + inner_args
    if any(_extent(a) is None for a in order):
        return
    if not inner.body().ops or inner.body().ops[-1].kind != "ekl.yield":
        return
    term = inner.body().ops[-1].operands[0]

    inside = _ops_inside(outer)
    index_args = set(order)
    memo: dict = {}
    loc = outer.location

    summands = [
        (sign, [
            _Factor(used=_used_indices(f, index_args, inside, memo), value=f)
            for f in _product_factors(root, inside)
        ])
        for sign, root in _summands(term, inside)
    ]
    if len(inner_args) == 1 and all(
        inner_args[0] in f.used for _, factors in summands for f in factors
    ):
        return  # peeling would hoist a table equal to the nest itself
    lowered_summands = [
        (sign, _peel(parent, outer, factors, inner_args, order, inside, loc))
        for sign, factors in summands
    ]

    # Rebuild the outer association from the factored summands.
    new_block = Block([a.type for a in outer_args])
    mapping = dict(zip(outer_args, new_block.args))
    total: Value | None = None
    for sign, factors in lowered_summands:
        product: Value | None = None
        for f in sorted(factors, key=lambda f: f.multiplicity is not None):
            v = f.emit(mapping, new_block, inside, loc)
            product = (
                v
                if product is None
                else _arith_value(new_block, "ekl.mul", loc, product, v)
            )
        if total is None:
            total = product
            if sign < 0:
                total = _arith_value(new_block, "ekl.neg", loc, product)
        else:
            kind = "ekl.add" if sign > 0 else "ekl.sub"
            total = _arith_value(new_block, kind, loc, total, product)
    if scalar_of(total.type) != element:
        total = new_block.append(make_cast(total, element, loc)).result
    new_block.append(make_yield(total, loc))
    new_assoc = make_assoc(new_block, outer.result.type, loc)
    parent.insert_before(outer, new_assoc)
    outer.result.replace_all_uses_with(new_assoc.result)
    erase_tree(outer)


def _peel(
    parent: Block,
    anchor: Operation,
    factors: list[_Factor],
    inner_args: list[Value],
    order: list[Value],
    inside: set[int],
    loc,
) -> list[_Factor]:
    """Eliminate bound indices one by one, hoisting partial contractions."""
    bound = list(inner_args)
    pos = {a: i for i, a in enumerate(order)}
    while bound:
        best = None
        for r in bound:
            group = [f for f in factors if r in f.used]
            free = sorted(
                {a for f in group for a in f.used if a is not r},
                key=pos.__getitem__,
            )
            size = math.prod(_extent(a) for a in free) if free else 1
            key = (size, pos[r])
            if best is None or key < best[0]:
                best = (key, r, group, free)
        _, r, group, free = best
        bound.remove(r)
        if not group:
            # No factor depends on this index: the sum is a multiplication.
            factors.append(_Factor(used=set(), multiplicity=_extent(r)))
            continue
        table = _emit_table(parent, anchor, group, r, free, inside, loc)
        factors = [f for f in factors if f not in group]
        factors.append(
            _Factor(used=set(free), table=table, table_keys=tuple(free))
        )
    return factors


def _emit_table(
    parent: Block,
    anchor: Operation,
    group: list[_Factor],
    r: Value,
    free: list[Value],
    inside: set[int],
    loc,
) -> Operation:
    """Hoist `T[free...] = sum over r of the group's product`."""
    table_block = Block([a.type for a in free])
    mapping = dict(zip(free, table_block.args))
    sweep_block = Block([r.type])
    sweep_mapping = dict(mapping)
    sweep_mapping[r] = sweep_block.args[0]
    product: Value | None = None
    for f in group:
        v = f.emit(sweep_mapping, sweep_block, inside, loc)
        product = (
            v
            if product is None
            else _arith_value(sweep_block, "ekl.mul", loc, product, v)
        )
    sweep_block.append(make_yield(product, loc))
    scalar = scalar_of(product.type)
    sweep = make_assoc(sweep_block, ArrayType(scalar, (_extent(r),)), loc)
    table_block.append(sweep)
    fold = table_block.append(make_sum(sweep.result, scalar, loc))
    table_block.append(make_yield(fold.result, loc))
    shape = tuple(_extent(a) for a in free)
    table = make_assoc(table_block, ArrayType(scalar, shape), loc)
    parent.insert_before(anchor, table)
    return table


# --- conditional conversion --------------------------------------------------


def if_to_choice(module: Operation) -> Operation:
    """Choices on a constant condition dissolve into the chosen operand,
    now of the choice's type."""
    return rewrite(module, (_try_choice,))


# --- producer fusion ---------------------------------------------------------


def fuse_producers(module: Operation) -> Operation:
    """Inline a single-use assoc into its one per-element consumer.

    One pre-order walk. A fusion erases the producer and clones its body in
    front of the consumer, which comes later in pre-order, and it leaves the
    uses of every other assoc as they were; so no op earlier in the walk can
    become fusable, and the walk goes on from the producer's index.
    """
    for block in module.regions:
        _fuse_in_block(block)
    for block in module.regions:
        _dce_block(block)
    return module


def _fuse_in_block(block: Block) -> None:
    i = 0
    while i < len(block.ops):
        op = block.ops[i]
        if _fuse(op):
            continue
        for nested in op.regions:
            _fuse_in_block(nested)
        i += 1


def _fuse(op: Operation) -> bool:
    """Fuse `op` into its consumer if it is a fusable producer."""
    if op.kind != "ekl.assoc" or len(op.result.uses) != 1:
        return False
    user, idx = op.result.uses[0]
    if user.kind != "ekl.subscript" or idx != 0 or "slots" in user.attrs:
        return False
    args = op.body().args
    slots = user.operands[1:]
    # Bijective read: the consumer indexes the producer with exactly its
    # own enclosing index arguments, in order.
    enclosing = user.parent
    owner = None if enclosing is None else enclosing.parent
    if owner is None or owner.kind != "ekl.assoc":
        return False
    if list(slots) != list(enclosing.args) or len(slots) != len(args):
        return False
    mapping = dict(zip(args, slots))
    for body_op in op.body().ops[:-1]:
        enclosing.insert_before(user, clone_op(body_op, mapping))
    yielded = op.body().ops[-1].operands[0]
    replacement = mapping.get(yielded, yielded)
    user.result.replace_all_uses_with(replacement)
    erase_tree(user)
    erase_tree(op)
    return True


# --- rational lowering -------------------------------------------------------


def lower_rationals(module: Operation) -> list[Diagnostic]:
    """Narrow rational literals feeding machine-typed casts.

    Returns warnings for constants that are out of range or not exactly
    representable.
    """
    warnings: list[Diagnostic] = []

    def lower(op: Operation) -> bool:
        if op.kind != "ekl.cast":
            return False
        src = op.operands[0].defining_op
        if src is None or src.kind != "ekl.literal":
            return False
        attr = src.attrs["value"]
        if not isinstance(attr, RationalAttr):
            return False
        if not isinstance(src.result.type, RationalType):
            return False
        target = op.result.type
        if isinstance(target, ArrayType):
            return False
        if not rational_in_range(attr.value, target):
            # The constant is not printed: it may have hundreds of digits.
            message = (
                f"rational constant is out of range for {target}; evaluating it traps"
            )
        elif not rational_fits_exactly(attr.value, target):
            message = (
                f"rational constant {attr.value} is not exactly "
                f"representable as {target}; it will be rounded"
            )
        else:
            _replace_with(op, make_literal(attr, target, op.location))
            return True
        warnings.append(warning(op.location, message))
        return False

    rewrite(module, (lower,))
    return warnings
