"""Minimal extensible SSA IR: operations, blocks, values.

Operations double as AST nodes and dataflow nodes. Operand edges always
point at values defined earlier in canonical lexical order (or at enclosing
block arguments), so the module is a DAG and dominance reduces to lexical
order. Of MLIR's structure the IR keeps only what EKL uses: a region is a
single block, and an op has at most one result. Op kinds are registered in
a static signature table that stands in for dialect registration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .diagnostics import Diagnostic, Location, UNKNOWN_LOC, error
from .types import Type


# --- attributes -------------------------------------------------------------


class Attribute:
    __slots__ = ()


@dataclass(frozen=True)
class IntAttr(Attribute):
    value: int


@dataclass(frozen=True)
class RationalAttr(Attribute):
    """Exact rational, stored in lowest terms with positive denominator."""

    value: Fraction

    def __post_init__(self) -> None:
        # Fraction normalizes on construction; convert ints defensively.
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class StringAttr(Attribute):
    value: str


@dataclass(frozen=True)
class TypeAttr(Attribute):
    value: Type


# --- values and structure ---------------------------------------------------


class Value:
    """SSA value: either an op result or a block argument."""

    __slots__ = ("type", "owner", "uses")

    def __init__(self, type: Type, owner) -> None:
        self.type = type
        self.owner = owner  # Operation (result) or Block (argument)
        self.uses: list[tuple["Operation", int]] = []

    @property
    def defining_op(self) -> Optional["Operation"]:
        return self.owner if isinstance(self.owner, Operation) else None

    def replace_all_uses_with(self, other: "Value") -> None:
        for op, idx in list(self.uses):
            op.set_operand(idx, other)


class Block:
    """A region of an op: typed arguments followed by an op list. EKL
    functors never branch, so each region is exactly one block, and the
    block's parent is the op that owns it."""

    __slots__ = ("args", "ops", "parent")

    def __init__(self, arg_types: list[Type] | None = None) -> None:
        self.args: list[Value] = []
        self.ops: list[Operation] = []
        self.parent: Operation | None = None
        for t in arg_types or []:
            self.add_arg(t)

    def add_arg(self, type: Type) -> Value:
        v = Value(type, self)
        self.args.append(v)
        return v

    def append(self, op: "Operation") -> "Operation":
        op.parent = self
        self.ops.append(op)
        return op

    def insert_before(self, anchor: "Operation", op: "Operation") -> "Operation":
        op.parent = self
        self.ops.insert(self.ops.index(anchor), op)
        return op


class Operation:
    """Generic IR node with a kind, operands, attributes, regions (one
    block each) and at most one result."""

    __slots__ = ("kind", "operands", "attrs", "regions", "result", "location", "parent")

    def __init__(
        self,
        kind: str,
        operands: list[Value] | None = None,
        attrs: dict[str, Attribute] | None = None,
        regions: list[Block] | None = None,
        result_type: Type | None = None,
        location: Location = UNKNOWN_LOC,
    ) -> None:
        self.kind = kind
        self.attrs: dict[str, Attribute] = dict(attrs) if attrs else {}
        self.location = location
        self.parent: Block | None = None
        self.operands: list[Value] = list(operands) if operands else []
        for idx, v in enumerate(self.operands):
            v.uses.append((self, idx))
        self.regions: list[Block] = list(regions) if regions else []
        for block in self.regions:
            block.parent = self
        self.result = None if result_type is None else Value(result_type, self)

    def add_operand(self, v: Value) -> None:
        idx = len(self.operands)
        self.operands.append(v)
        v.uses.append((self, idx))

    def set_operand(self, idx: int, v: Value) -> None:
        old = self.operands[idx]
        old.uses.remove((self, idx))
        self.operands[idx] = v
        v.uses.append((self, idx))

    def add_region(self, block: Block) -> Block:
        block.parent = self
        self.regions.append(block)
        return block

    def body(self, i: int = 0) -> Block:
        return self.regions[i]

    def drop_operands(self) -> None:
        for idx, v in enumerate(self.operands):
            v.uses.remove((self, idx))
        self.operands = []

    def __repr__(self) -> str:
        return f"<op {self.kind}>"


# --- signature registry -----------------------------------------------------


@dataclass
class OpSignature:
    """Registered shape of an op kind, standing in for dialect registration."""

    min_operands: int = 0
    max_operands: int | None = 0  # None means variadic
    num_results: int = 0  # 0 or 1
    num_regions: int = 0
    verifier: Callable[[Operation], list[Diagnostic]] | None = None
    typing_rule: Callable | None = None  # (op, ctx) -> None
    is_container: bool = False  # may appear as a top-level module


# Op kind -> signature; importing `eklc` registers the ekl dialect.
REGISTRY: dict[str, OpSignature] = {}


# --- traversal and verification --------------------------------------------


def walk_lexical(op: Operation) -> Iterator[Operation]:
    """Deterministic pre-order walk: an op precedes its regions' contents.

    The walk keeps its own stack of pending ops, so a yield costs the same
    at any nesting depth. A region's ops are read when the walk yields the
    op holding it; no caller adds or removes ops while it walks."""
    stack = [op]
    pop, push = stack.pop, stack.extend
    while stack:
        op = pop()
        yield op
        regions = op.regions
        if regions:
            for block in reversed(regions):
                push(reversed(block.ops))


def _verify_block(block: Block, visible: set[Value], diags: list[Diagnostic]) -> None:
    scope = set(visible)
    scope.update(block.args)
    for op in block.ops:
        sig = REGISTRY.get(op.kind)
        if sig is None:
            diags.append(error(op.location, f"unregistered op kind '{op.kind}'"))
        else:
            n = len(op.operands)
            if n < sig.min_operands or (
                sig.max_operands is not None and n > sig.max_operands
            ):
                diags.append(
                    error(
                        op.location,
                        f"'{op.kind}' has {n} operands, signature requires "
                        f"{sig.min_operands}"
                        + (
                            ""
                            if sig.max_operands == sig.min_operands
                            else f"..{sig.max_operands if sig.max_operands is not None else 'N'}"
                        ),
                    )
                )
            n = 0 if op.result is None else 1
            if n != sig.num_results:
                diags.append(
                    error(
                        op.location,
                        f"'{op.kind}' has {n} results, expected {sig.num_results}",
                    )
                )
            if len(op.regions) != sig.num_regions:
                diags.append(
                    error(
                        op.location,
                        f"'{op.kind}' has {len(op.regions)} regions, expected "
                        f"{sig.num_regions}",
                    )
                )
            elif sig.verifier is not None:
                # An op's own verifier may read the regions its kind declares.
                diags.extend(sig.verifier(op))
        for v in op.operands:
            if v not in scope:
                diags.append(
                    error(op.location, f"'{op.kind}' operand does not dominate use")
                )
        for block in op.regions:
            _verify_block(block, scope, diags)
        if op.result is not None:
            scope.add(op.result)


def verify(module: Operation) -> list[Diagnostic]:
    """Structural verification; never aborts on the first error."""
    diags: list[Diagnostic] = []
    sig = REGISTRY.get(module.kind)
    if sig is None:
        diags.append(error(module.location, f"unregistered op kind '{module.kind}'"))
        return diags
    if not sig.is_container:
        diags.append(
            error(module.location, f"'{module.kind}' is not a top-level container op")
        )
    for block in module.regions:
        _verify_block(block, set(), diags)
    if sig.verifier is not None:
        diags.extend(sig.verifier(module))
    return diags


# --- structural equality and cloning ---------------------------------------


def structurally_equal(a: Operation, b: Operation) -> bool:
    """Same kinds, operand wiring, attributes, types, and region nesting.

    Locations are ignored.
    """
    mapping: dict[Value, Value] = {}

    def eq_op(x: Operation, y: Operation) -> bool:
        if x.kind != y.kind or x.attrs != y.attrs:
            return False
        if len(x.operands) != len(y.operands) or len(x.regions) != len(y.regions):
            return False
        for vx, vy in zip(x.operands, y.operands):
            if mapping.get(vx) is not vy:
                return False
        rx, ry = x.result, y.result
        if rx is not None:
            if ry is None or rx.type != ry.type:
                return False
            mapping[rx] = ry
        elif ry is not None:
            return False
        for bx, by in zip(x.regions, y.regions):
            if len(bx.args) != len(by.args) or len(bx.ops) != len(by.ops):
                return False
            for vx, vy in zip(bx.args, by.args):
                if vx.type != vy.type:
                    return False
                mapping[vx] = vy
            for ox, oy in zip(bx.ops, by.ops):
                if not eq_op(ox, oy):
                    return False
        return True

    return eq_op(a, b)


def clone_op(op: Operation, mapping: dict[Value, Value]) -> Operation:
    """Copy an op and everything nested in it, remapping operands through
    `mapping`. The copy has no parent.

    Values not present in the mapping are referenced as-is (out-of-tree
    captures). The result and block args of the copy are recorded in the
    mapping.
    """
    result = op.result
    clone = Operation(
        op.kind,
        operands=[mapping.get(v, v) for v in op.operands],
        attrs=dict(op.attrs),
        result_type=None if result is None else result.type,
        location=op.location,
    )
    for block in op.regions:
        new_block = clone.add_region(Block())
        for arg in block.args:
            mapping[arg] = new_block.add_arg(arg.type)
        for nested in block.ops:
            new_block.append(clone_op(nested, mapping))
    if result is not None:
        mapping[result] = clone.result
    return clone


def erase_tree(op: Operation) -> None:
    """Erase an op and everything nested in it.

    The op's own result must have no external uses; internal edges are
    unlinked so captured outer values do not retain stale uses.
    """
    assert op.result is None or not op.result.uses, "erasing op tree with uses"
    for nested in walk_lexical(op):
        nested.drop_operands()
    if op.parent is not None:
        op.parent.ops.remove(op)
        op.parent = None


def kernels_of(module: Operation) -> list[Operation]:
    return [op for op in module.body().ops if op.kind == "ekl.kernel"]


def kernel_inputs(kernel: Operation) -> list[tuple[str, Type]]:
    """The (name, type) of each kernel argument, in order; an argument
    without an `in<i>` name attribute is named `in<i>`."""
    pairs = []
    for i, arg in enumerate(kernel.body().args):
        key = f"in{i}"
        name_attr = kernel.attrs.get(key)
        pairs.append((name_attr.value if name_attr is not None else key, arg.type))
    return pairs


def kernel_outputs(kernel: Operation) -> list[tuple[str, Type]]:
    """The (name, declared type) of each kernel output, in order."""
    pairs = []
    i = 0
    while f"out{i}" in kernel.attrs:
        pairs.append((kernel.attrs[f"out{i}"].value, kernel.attrs[f"out{i}_type"].value))
        i += 1
    return pairs


def count_ops(module: Operation) -> int:
    return sum(1 for _ in walk_lexical(module))
