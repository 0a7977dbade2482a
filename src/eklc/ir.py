"""Minimal extensible SSA IR: operations, single-block regions, values.

Operations double as AST nodes and dataflow nodes. Operand edges always
point at values defined earlier in canonical lexical order (or at enclosing
block arguments), so the module is a DAG and dominance reduces to lexical
order. Op kinds are registered in a static signature table that stands in
for dialect registration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .diagnostics import Diagnostic, Location, UNKNOWN_LOC, error
from .types import Type, is_subtype


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


@dataclass(frozen=True)
class ShapeAttr(Attribute):
    value: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(e < 0 for e in self.value):
            raise ValueError("shape extents must be non-negative")


@dataclass(frozen=True)
class DenseAttr(Attribute):
    """Dense tensor literal: scalar element type, shape, row-major values."""

    type: Type  # ArrayType or scalar type
    values: tuple  # of Fraction / int / float / bool


# --- values and structure ---------------------------------------------------


class Value:
    """SSA value: either an op result or a block argument."""

    __slots__ = ("type", "owner", "index", "uses")

    def __init__(self, type: Type, owner, index: int) -> None:
        self.type = type
        self.owner = owner  # Operation (result) or Block (argument)
        self.index = index
        self.uses: list[tuple["Operation", int]] = []

    @property
    def is_block_arg(self) -> bool:
        return isinstance(self.owner, Block)

    @property
    def defining_op(self) -> Optional["Operation"]:
        return self.owner if isinstance(self.owner, Operation) else None

    def replace_all_uses_with(self, other: "Value") -> None:
        for op, idx in list(self.uses):
            op.set_operand(idx, other)


class Block:
    """Single basic block: typed arguments followed by an op list."""

    def __init__(self, arg_types: list[Type] | None = None) -> None:
        self.args: list[Value] = []
        self.ops: list[Operation] = []
        self.parent: Region | None = None
        for t in arg_types or []:
            self.add_arg(t)

    def add_arg(self, type: Type) -> Value:
        v = Value(type, self, len(self.args))
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


class Region:
    """Region with exactly one block (EKL functors never branch)."""

    def __init__(self, block: Block | None = None) -> None:
        self.block = block or Block()
        self.block.parent = self
        self.parent: Operation | None = None


class Operation:
    """Generic IR node with a kind, operands, attributes, and regions."""

    def __init__(
        self,
        kind: str,
        operands: list[Value] | None = None,
        attrs: dict[str, Attribute] | None = None,
        regions: list[Region] | None = None,
        result_types: list[Type] | None = None,
        location: Location = UNKNOWN_LOC,
    ) -> None:
        self.kind = kind
        self.operands: list[Value] = []
        self.attrs: dict[str, Attribute] = dict(attrs or {})
        self.regions: list[Region] = []
        self.results: list[Value] = []
        self.location = location
        self.parent: Block | None = None
        for v in operands or []:
            self.add_operand(v)
        for r in regions or []:
            self.add_region(r)
        for t in result_types or []:
            self.add_result(t)

    def add_operand(self, v: Value) -> None:
        idx = len(self.operands)
        self.operands.append(v)
        v.uses.append((self, idx))

    def set_operand(self, idx: int, v: Value) -> None:
        old = self.operands[idx]
        old.uses.remove((self, idx))
        self.operands[idx] = v
        v.uses.append((self, idx))

    def add_region(self, r: Region) -> Region:
        r.parent = self
        self.regions.append(r)
        return r

    def add_result(self, t: Type) -> Value:
        v = Value(t, self, len(self.results))
        self.results.append(v)
        return v

    @property
    def result(self) -> Value:
        assert len(self.results) == 1, f"{self.kind} has {len(self.results)} results"
        return self.results[0]

    @property
    def parent_op(self) -> Optional["Operation"]:
        if self.parent and self.parent.parent:
            return self.parent.parent.parent
        return None

    def body(self, i: int = 0) -> Block:
        return self.regions[i].block

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

    kind: str
    min_operands: int = 0
    max_operands: int | None = 0  # None means variadic
    num_results: int = 0
    num_regions: int = 0
    verifier: Callable[[Operation], list[Diagnostic]] | None = None
    typing_rule: Callable | None = None  # (op, ctx) -> None
    # (op, arg, new_type) -> bool; consulted when transmuting block args.
    transmute_hook: Callable[[Operation, Value, Type], bool] | None = None
    is_container: bool = False  # may appear as a top-level module


class OpRegistry:
    def __init__(self) -> None:
        self._table: dict[str, OpSignature] = {}

    def register(self, sig: OpSignature) -> OpSignature:
        if sig.kind in self._table:
            raise ValueError(f"op kind {sig.kind!r} already registered")
        self._table[sig.kind] = sig
        return sig

    def lookup(self, kind: str) -> OpSignature | None:
        return self._table.get(kind)

    def kinds(self) -> list[str]:
        return sorted(self._table)


REGISTRY = OpRegistry()


# --- traversal and verification --------------------------------------------


def walk_lexical(op: Operation) -> Iterator[Operation]:
    """Deterministic pre-order walk: an op precedes its regions' contents."""
    yield op
    for region in op.regions:
        for nested in region.block.ops:
            yield from walk_lexical(nested)


def _verify_block(block: Block, visible: set[Value], diags: list[Diagnostic]) -> None:
    scope = set(visible)
    scope.update(block.args)
    for op in block.ops:
        sig = REGISTRY.lookup(op.kind)
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
            if len(op.results) != sig.num_results:
                diags.append(
                    error(
                        op.location,
                        f"'{op.kind}' has {len(op.results)} results, expected "
                        f"{sig.num_results}",
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
            if sig.verifier is not None:
                diags.extend(sig.verifier(op))
        for v in op.operands:
            if v not in scope:
                diags.append(
                    error(op.location, f"'{op.kind}' operand does not dominate use")
                )
        for region in op.regions:
            _verify_block(region.block, scope, diags)
        scope.update(op.results)


def verify(module: Operation) -> list[Diagnostic]:
    """Structural verification; never aborts on the first error."""
    diags: list[Diagnostic] = []
    sig = REGISTRY.lookup(module.kind)
    if sig is None:
        diags.append(error(module.location, f"unregistered op kind '{module.kind}'"))
        return diags
    if not sig.is_container:
        diags.append(
            error(module.location, f"'{module.kind}' is not a top-level container op")
        )
    for region in module.regions:
        _verify_block(region.block, set(), diags)
    if sig.verifier is not None:
        diags.extend(sig.verifier(module))
    return diags


# --- transmutation ----------------------------------------------------------


def transmute_value(v: Value, new_type: Type) -> Diagnostic | None:
    """Replace a value's type in place; legal only when narrowing to a subtype.

    Returns None on success, or a rejection diagnostic. Block-argument
    transmutation consults the owning op's registered hook, which may veto
    or atomically update synced attributes.
    """
    if not is_subtype(new_type, v.type):
        return error(
            _value_loc(v), f"cannot transmute {v.type} to non-subtype {new_type}"
        )
    if v.is_block_arg:
        owner = v.owner.parent.parent if v.owner.parent else None
        if owner is not None:
            sig = REGISTRY.lookup(owner.kind)
            hook = sig.transmute_hook if sig else None
            if hook is None:
                return error(
                    owner.location,
                    f"'{owner.kind}' does not support block-argument transmutation",
                )
            if not hook(owner, v, new_type):
                return error(
                    owner.location,
                    f"'{owner.kind}' vetoed transmutation to {new_type}",
                )
    v.type = new_type
    return None


def _value_loc(v: Value) -> Location:
    if isinstance(v.owner, Operation):
        return v.owner.location
    owner = v.owner.parent.parent if v.owner.parent else None
    return owner.location if owner else UNKNOWN_LOC


# --- structural equality and cloning ---------------------------------------


def structurally_equal(a: Operation, b: Operation) -> bool:
    """Same kinds, operand wiring, attributes, types, and region nesting.

    Locations are ignored.
    """
    mapping: dict[Value, Value] = {}

    def eq_op(x: Operation, y: Operation) -> bool:
        if x.kind != y.kind or x.attrs != y.attrs:
            return False
        if len(x.operands) != len(y.operands) or len(x.results) != len(y.results):
            return False
        if len(x.regions) != len(y.regions):
            return False
        for vx, vy in zip(x.operands, y.operands):
            if mapping.get(vx) is not vy:
                return False
        for vx, vy in zip(x.results, y.results):
            if vx.type != vy.type:
                return False
            mapping[vx] = vy
        for rx, ry in zip(x.regions, y.regions):
            bx, by = rx.block, ry.block
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
    """Deep-copy an op, remapping operands through `mapping`.

    Values not present in the mapping are referenced as-is (out-of-tree
    captures). Results and block args of the clone are recorded in the
    mapping.
    """
    clone = Operation(
        op.kind,
        operands=[mapping.get(v, v) for v in op.operands],
        attrs=dict(op.attrs),
        location=op.location,
    )
    for r in op.regions:
        new_block = Block()
        for arg in r.block.args:
            mapping[arg] = new_block.add_arg(arg.type)
        clone.add_region(Region(new_block))
        for nested in r.block.ops:
            new_block.append(clone_op(nested, mapping))
    for res in op.results:
        mapping[res] = clone.add_result(res.type)
    return clone


def erase_tree(op: Operation) -> None:
    """Erase an op and everything nested in it.

    The op's own results must have no external uses; internal edges are
    unlinked so captured outer values do not retain stale uses.
    """
    assert all(not r.uses for r in op.results), "erasing op tree with uses"
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
