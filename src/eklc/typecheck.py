"""Dialect-agnostic fix-point type checking.

Values accumulate type bounds (unattainable > equivalent > lower > upper,
most to least restrictive). Typing rules registered on op kinds observe the
current bounds and add constraints; the checker meets bounds, re-enqueues
users of refined values in canonical lexical order, and on success
atomically materializes the deduced types via in-place transmutation.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field

from .diagnostics import Diagnostic, Location, error
from .ir import Operation, REGISTRY, Value, transmute_value, walk_lexical
from .types import (
    EXPR,
    RationalType,
    Type,
    is_numeric_scalar,
    is_subtype,
    scalar_of,
    shape_of,
)


class BoundKind(enum.IntEnum):
    """Ordered from least to most restrictive."""

    UPPER = 0
    LOWER = 1
    EQUIVALENT = 2
    UNATTAINABLE = 3


@dataclass(frozen=True)
class TypeBound:
    """A set of admissible types, named by a sample and a predicate kind."""

    kind: BoundKind
    sample: Type | None = None

    def __str__(self) -> str:
        if self.kind is BoundKind.UNATTAINABLE:
            return "unattainable"
        name = {BoundKind.UPPER: "upper", BoundKind.LOWER: "lower", BoundKind.EQUIVALENT: "equiv"}
        return f"{name[self.kind]}({self.sample})"


def upper(t: Type) -> TypeBound:
    return TypeBound(BoundKind.UPPER, t)


def lower(t: Type) -> TypeBound:
    return TypeBound(BoundKind.LOWER, t)


def equiv(t: Type) -> TypeBound:
    return TypeBound(BoundKind.EQUIVALENT, t)


UNATTAINABLE = TypeBound(BoundKind.UNATTAINABLE)


def _fits(t: Type, u: Type) -> bool:
    """Subtyping extended with the rational-literal conversion carve-out.

    A compile-time rational (or rational-element array) fits any numeric
    machine type of the same shape; exactness is enforced at lowering.
    """
    if is_subtype(t, u):
        return True
    if isinstance(scalar_of(t), RationalType) and shape_of(t) == shape_of(u):
        return is_numeric_scalar(scalar_of(u))
    return False


@dataclass
class Interval:
    """Strictest recorded constraint: at most one lower and one upper sample.

    An equivalent bound is the collapsed case lower == upper.
    """

    lo: Type | None = None
    hi: Type | None = None

    def is_equivalent(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def as_bounds(self) -> list[TypeBound]:
        if self.is_equivalent():
            return [equiv(self.lo)]
        out: list[TypeBound] = []
        if self.lo is not None:
            out.append(lower(self.lo))
        if self.hi is not None:
            out.append(upper(self.hi))
        return out

    def sample(self) -> Type | None:
        """Most specific value-producing type admitted by the interval."""
        return self.lo if self.lo is not None else self.hi

    def __str__(self) -> str:
        if self.lo is None and self.hi is None:
            return "unbounded"
        return " & ".join(str(b) for b in self.as_bounds())


class ContradictionError(Exception):
    """A typing rule could not be satisfied; carries the explanation."""

    def __init__(self, message: str, location: Location | None = None, notes=()):
        super().__init__(message)
        self.message = message
        self.location = location
        self.notes = list(notes)


def meet_into(interval: Interval, bound: TypeBound) -> bool:
    """Meet a new bound into an interval in place.

    Returns True when the interval became more restrictive. Raises
    ContradictionError when the admissible sets are disjoint or the
    intersection cannot be named by a single interval in the universe.
    """
    if bound.kind is BoundKind.UNATTAINABLE:
        raise ContradictionError("bound is unattainable")
    t = bound.sample
    assert t is not None
    changed = False
    if bound.kind in (BoundKind.EQUIVALENT, BoundKind.LOWER):
        # Keep the larger of two lower samples.
        if interval.lo is None or (interval.lo != t and _fits(interval.lo, t)):
            if interval.hi is not None and not _fits(t, interval.hi):
                raise ContradictionError(
                    f"lower bound {t} exceeds upper bound {interval.hi}"
                )
            interval.lo = t
            changed = True
        elif interval.lo != t and not _fits(t, interval.lo):
            raise ContradictionError(
                f"incompatible bounds {lower(t)} and {lower(interval.lo)}"
            )
    if bound.kind in (BoundKind.EQUIVALENT, BoundKind.UPPER):
        # Keep the smaller of two upper samples.
        if interval.hi is None or (interval.hi != t and _fits(t, interval.hi)):
            if interval.lo is not None and not _fits(interval.lo, t):
                raise ContradictionError(
                    f"lower bound {interval.lo} exceeds upper bound {t}"
                )
            interval.hi = t
            changed = True
        elif interval.hi != t and not _fits(interval.hi, t):
            raise ContradictionError(
                f"incomparable upper bounds {t} and {interval.hi}"
            )
    if bound.kind is BoundKind.EQUIVALENT and not interval.is_equivalent():
        raise ContradictionError(f"equivalence {t} conflicts with {interval}")
    return changed


@dataclass
class CheckerState:
    """Per-module fix-point state."""

    bounds: dict[Value, Interval] = field(default_factory=dict)
    iterations: int = 0

    def interval(self, v: Value) -> Interval:
        iv = self.bounds.get(v)
        if iv is None:
            iv = Interval()
            self.bounds[v] = iv
        return iv


class TypingContext:
    """What a typing rule may observe and deduce.

    Rules are pure observations plus constraint additions; they never
    mutate the IR.
    """

    def __init__(self, checker: "FixPointTypeChecker", op: Operation) -> None:
        self.checker = checker
        self.op = op
        self.deductions: list[tuple[Value, TypeBound]] = []

    def interval(self, v: Value) -> Interval:
        return self.checker.state.interval(v)

    def sample(self, v: Value) -> Type | None:
        """Best current guess for a value's type, or None if unconstrained."""
        s = self.interval(v).sample()
        if s is None and v.type != EXPR:
            return v.type
        return s

    def deduce(self, v: Value, bound: TypeBound) -> None:
        self.deductions.append((v, bound))

    def contradict(self, message: str, notes=()) -> ContradictionError:
        return ContradictionError(message, self.op.location, notes)


class FixPointTypeChecker:
    """Applies typing rules until a fix-point or contradictions are reached."""

    def __init__(self, module: Operation, iteration_ceiling: int | None = None):
        self.module = module
        self.state = CheckerState()
        self.order: dict[int, int] = {}
        ops = list(walk_lexical(module))
        for i, op in enumerate(ops):
            self.order[id(op)] = i
        self._ops = ops
        self._queue: list[tuple[int, int]] = []
        self._queued: set[int] = set()
        self._by_pos = {self.order[id(op)]: op for op in ops}
        self._seq = 0
        self._failed: set[int] = set()
        self._poisoned: set[Value] = set()
        self.diagnostics: list[Diagnostic] = []
        # Bounds are monotone over a finite lattice: each value's interval
        # can tighten only a few times, so N ops admit a linear ceiling.
        self.iteration_ceiling = (
            iteration_ceiling
            if iteration_ceiling is not None
            else 32 * max(len(ops), 1) + 64
        )

    def enqueue(self, op: Operation) -> None:
        pos = self.order.get(id(op))
        if pos is None or pos in self._queued or id(op) in self._failed:
            return
        sig = REGISTRY.lookup(op.kind)
        if sig is None or sig.typing_rule is None:
            return
        self._queued.add(pos)
        heapq.heappush(self._queue, (pos, self._seq))
        self._seq += 1

    def seed(self) -> None:
        for op in self._ops:
            # Pre-typed values (e.g. declared kernel arguments) seed the state.
            for region in op.regions:
                for arg in region.block.args:
                    if arg.type != EXPR:
                        self.state.interval(arg).lo = arg.type
                        self.state.interval(arg).hi = arg.type
            for res in op.results:
                if res.type != EXPR:
                    self.state.interval(res).lo = res.type
                    self.state.interval(res).hi = res.type
            self.enqueue(op)

    def _invalidate(self, v: Value) -> None:
        for user, _ in v.uses:
            self.enqueue(user)
            # A yield cannot own its parent's result: propagate upward.
            if user.kind.endswith("yield"):
                parent = user.parent_op
                if parent is not None:
                    self.enqueue(parent)
        if v.is_block_arg:
            block = v.owner
            if block.parent and block.parent.parent:
                self.enqueue(block.parent.parent)
        elif v.defining_op is not None:
            self.enqueue(v.defining_op)

    def run(self) -> bool:
        """Iterate to fix-point. Returns True when no contradictions arose;
        reaching the iteration ceiling first is an error diagnostic."""
        self.seed()
        while self._queue:
            if self.state.iterations >= self.iteration_ceiling:
                self.diagnostics.append(
                    error(
                        self.module.location,
                        f"type checking stopped at its iteration ceiling "
                        f"({self.iteration_ceiling}) before reaching a fix-point",
                    )
                )
                return False
            self.state.iterations += 1
            pos, _ = heapq.heappop(self._queue)
            self._queued.discard(pos)
            op = self._by_pos[pos]
            if any(v in self._poisoned for v in op.operands):
                continue  # suppress contradictions dependent on earlier ones
            sig = REGISTRY.lookup(op.kind)
            ctx = TypingContext(self, op)
            try:
                sig.typing_rule(op, ctx)
                for v, bound in ctx.deductions:
                    if v in self._poisoned:
                        continue
                    if meet_into(self.state.interval(v), bound):
                        self._invalidate(v)
            except ContradictionError as exc:
                self._fail(op, exc)
        return not self.diagnostics

    def _fail(self, op: Operation, exc: ContradictionError) -> None:
        self._failed.add(id(op))
        for res in op.results:
            self._poisoned.add(res)
        diag = error(exc.location or op.location, exc.message)
        for note in exc.notes:
            diag.notes.append(error(op.location, note))
        self.diagnostics.append(diag)

    # --- materialization ---------------------------------------------------

    def materialize(self) -> list[Diagnostic]:
        """Atomically apply all deductions to the IR via transmutation.

        Returns diagnostics; an internal error indicates a rule bug and is
        surfaced loudly rather than silently repaired.
        """
        diags: list[Diagnostic] = []
        for op in self._ops:
            values = list(op.results)
            for region in op.regions:
                values.extend(region.block.args)
            for v in values:
                iv = self.state.bounds.get(v)
                t = iv.sample() if iv else None
                if t is None:
                    if v.type == EXPR and v.uses:
                        diags.append(
                            error(
                                op.location,
                                "unable to deduce a type for a value; "
                                "no bound was recorded",
                            )
                        )
                    continue
                if t == v.type:
                    continue
                rejection = transmute_value(v, t)
                if rejection is not None:
                    diags.append(
                        error(
                            op.location,
                            f"internal error: materialization failed: "
                            f"{rejection.message}",
                        )
                    )
        return diags


def run_fixpoint(module: Operation) -> FixPointTypeChecker:
    """Seed, iterate, and return the checker (inspect .diagnostics)."""
    checker = FixPointTypeChecker(module)
    checker.run()
    return checker


def type_check(module: Operation) -> tuple[FixPointTypeChecker, list[Diagnostic]]:
    """Full check-and-materialize; the module ends in semantic form on success."""
    checker = run_fixpoint(module)
    if checker.diagnostics:
        return checker, checker.diagnostics
    diags = checker.materialize()
    return checker, diags


def verify_semantic(module: Operation) -> list[Diagnostic]:
    """Re-run each op's rule against the concrete IR state.

    For a correctly typed module this produces no new deductions and no
    contradictions; it is the local per-op type verifier.
    """
    checker = FixPointTypeChecker(module)
    # Seed every value's interval from its concrete type.
    for op in walk_lexical(module):
        for region in op.regions:
            for arg in region.block.args:
                iv = checker.state.interval(arg)
                iv.lo = iv.hi = arg.type
        for res in op.results:
            iv = checker.state.interval(res)
            iv.lo = iv.hi = res.type
    diags: list[Diagnostic] = []
    for op in walk_lexical(module):
        sig = REGISTRY.lookup(op.kind)
        if sig is None or sig.typing_rule is None:
            continue
        ctx = TypingContext(checker, op)
        try:
            sig.typing_rule(op, ctx)
            for v, bound in ctx.deductions:
                before = str(checker.state.interval(v))
                if meet_into(checker.state.interval(v), bound):
                    diags.append(
                        error(
                            op.location,
                            f"local re-check refined a value from {before} "
                            f"to {bound}: module is not fully typed",
                        )
                    )
        except ContradictionError as exc:
            diags.append(error(exc.location or op.location, exc.message))
    return diags
