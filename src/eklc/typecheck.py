"""Dialect-agnostic fix-point type checking.

Each value's bound is an interval of types: an optional lower and upper
sample. Typing rules registered on op kinds observe the current samples
and deduce one of two things about a value: its exact type
(`TypingContext.exact`), or a type it must fit (`TypingContext.at_most`).
The checker meets each deduction into the value's interval, re-runs the
rules that read a refined value, and on success materializes the deduced
types by narrowing each value's type in place.

Every op with a rule runs once from the seed. After that an op runs again
only when a value it read at its last run has tightened: its
`TypingContext` records each value the rule reads through `sample` while
that value's interval is not exact, and a tightened value re-enqueues
exactly the readers recorded for it. A read of an exact value (`lo is
hi`) is not recorded, because such a value cannot tighten: no two
distinct types fit each other both ways under `_fits`, so a meet into an
exact interval either leaves it as it is or raises a contradiction, which
fails the deducing op and re-enqueues nothing. The op that only wrote a
value is not re-run for it, so a rule that reads nothing it deduces (an
output, an `if` condition) runs once. This is how MLIR's
`DataFlowSolver` tracks the dependencies of a program point.
It needs one invariant: a rule reads bounds only through its context,
never through the checker's state or a value's interval directly; what
else it looks at (attributes, the ops defining its operands, a value's
declared type) must not change while the checker runs.

The worklist is ordered by post-order position: an op runs after every op
in its regions and after the ops before it in its block. A generator such
as `ekl.assoc` reads values inside its body; in lexical pre-order it would
sort ahead of the rest of that body and run once per refinement, while in
post-order it waits until the body has settled (Cooper, Harvey and
Kennedy, "Iterative Data-Flow Analysis, Revisited", 2004).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .diagnostics import Diagnostic, Location, error
from .ir import Operation, REGISTRY, Value
from .types import (
    EXPR,
    ArrayType,
    RationalType,
    Type,
    is_numeric_scalar,
    is_subtype,
    scalar_of,
    shape_of,
)


# (t, u) -> _fits(t, u), memoized on the pair of unique types.
_FITS: dict[tuple[Type, Type], bool] = {}


def _fits(t: Type, u: Type) -> bool:
    """Subtyping extended with the rational-literal conversion carve-out.

    A compile-time rational (or rational-element array) fits any numeric
    machine type of the same shape; exactness is enforced at lowering. As
    in subtyping, an array fits only an array, so a rank-0 array and a
    scalar do not fit each other.
    """
    key = (t, u)
    r = _FITS.get(key)
    if r is None:
        r = _FITS[key] = _fits_uncached(t, u)
    return r


def _fits_uncached(t: Type, u: Type) -> bool:
    if is_subtype(t, u):
        return True
    if (
        isinstance(scalar_of(t), RationalType)
        and isinstance(t, ArrayType) is isinstance(u, ArrayType)
        and shape_of(t) == shape_of(u)
    ):
        return is_numeric_scalar(scalar_of(u))
    return False


@dataclass(slots=True)
class Interval:
    """Strictest recorded constraint: at most one lower and one upper sample.

    An exact type is the collapsed case lower == upper.
    """

    lo: Type | None = None
    hi: Type | None = None

    def is_equivalent(self) -> bool:
        return self.lo is not None and self.lo is self.hi

    def sample(self) -> Type | None:
        """Most specific value-producing type admitted by the interval."""
        return self.lo if self.lo is not None else self.hi

    def __str__(self) -> str:
        if self.is_equivalent():
            return f"equiv({self.lo})"
        parts = []
        if self.lo is not None:
            parts.append(f"lower({self.lo})")
        if self.hi is not None:
            parts.append(f"upper({self.hi})")
        return " & ".join(parts) or "unbounded"


class ContradictionError(Exception):
    """A typing rule could not be satisfied; carries the explanation."""

    def __init__(self, message: str, location: Location | None = None):
        super().__init__(message)
        self.message = message
        self.location = location


def meet_into(interval: Interval, t: Type, exact: bool) -> bool:
    """Meet `t` into an interval in place: as its type when `exact`,
    otherwise as an upper bound (the value's type must fit `t`).

    Returns True when the interval became more restrictive. Raises
    ContradictionError when the admissible sets are disjoint or the
    intersection cannot be named by a single interval in the universe.
    """
    changed = False
    if exact:
        # Keep the larger of two lower samples.
        if interval.lo is None or (interval.lo is not t and _fits(interval.lo, t)):
            if interval.hi is not None and not _fits(t, interval.hi):
                raise ContradictionError(
                    f"lower bound {t} exceeds upper bound {interval.hi}"
                )
            interval.lo = t
            changed = True
        elif interval.lo is not t and not _fits(t, interval.lo):
            raise ContradictionError(
                f"incompatible bounds lower({t}) and lower({interval.lo})"
            )
    # Keep the smaller of two upper samples.
    if interval.hi is None or (interval.hi is not t and _fits(t, interval.hi)):
        if interval.lo is not None and not _fits(interval.lo, t):
            raise ContradictionError(
                f"lower bound {interval.lo} exceeds upper bound {t}"
            )
        interval.hi = t
        changed = True
    elif interval.hi is not t and not _fits(interval.hi, t):
        raise ContradictionError(
            f"incomparable upper bounds {t} and {interval.hi}"
        )
    return changed


@dataclass
class CheckerState:
    """Per-module fix-point state."""

    bounds: dict[Value, Interval] = field(default_factory=dict)
    iterations: int = 0


class TypingContext:
    """What a typing rule may observe and deduce.

    Rules are pure observations plus constraint additions; they never
    mutate the IR. A rule reads bounds only through `sample`, which
    records each value it reads that can still tighten, so that the
    checker re-runs the rule when that value does (see the module
    docstring).
    """

    __slots__ = ("bounds", "op", "deductions", "reads")

    def __init__(self, checker: "FixPointTypeChecker", op: Operation) -> None:
        self.bounds = checker.state.bounds
        self.op = op
        self.deductions: list[tuple[Value, Type, bool]] = []
        self.reads: list[Value] = []

    def sample(self, v: Value) -> Type | None:
        """Best current guess for a value's type, or None if unconstrained.

        Records `v` as read unless its interval is exact, which no later
        deduction can tighten (see the module docstring)."""
        iv = self.bounds.get(v)
        if iv is None:
            self.reads.append(v)
            return None if v.type is EXPR else v.type
        lo = iv.lo
        if lo is None:
            self.reads.append(v)
            hi = iv.hi
            return v.type if hi is None and v.type is not EXPR else hi
        if lo is not iv.hi:
            self.reads.append(v)
        return lo

    def exact(self, v: Value, t: Type) -> None:
        """Deduce that `v` has type `t`."""
        self.deductions.append((v, t, True))

    def at_most(self, v: Value, t: Type) -> None:
        """Deduce that `v`'s type fits `t`."""
        self.deductions.append((v, t, False))

    def contradict(self, message: str) -> ContradictionError:
        return ContradictionError(message, self.op.location)


def _walk_post_order(op: Operation, out: list[Operation]) -> None:
    """Append `op` after the contents of its regions."""
    for block in op.regions:
        for nested in block.ops:
            _walk_post_order(nested, out)
    out.append(op)


def _defined_values(op: Operation) -> list[Value]:
    """The values `op` defines: its result, then its regions' arguments."""
    values = [] if op.result is None else [op.result]
    for block in op.regions:
        values.extend(block.args)
    return values


class FixPointTypeChecker:
    """Applies typing rules until a fix-point or contradictions are reached,
    popping ops in post-order and re-running only the readers of a refined
    value (see the module docstring).

    `_by_pos` lists the module's ops in post-order; an op's position in it
    keys its rule, its queue entry and its last run. Seeding and
    materializing visit the ops in the same order."""

    def __init__(self, module: Operation):
        self.module = module
        self.state = CheckerState()
        self._by_pos: list[Operation] = []
        _walk_post_order(module, self._by_pos)
        self._rules = []
        for op in self._by_pos:
            sig = REGISTRY.get(op.kind)
            self._rules.append(None if sig is None else sig.typing_rule)
        self._queue: list[int] = []
        self._queued: set[int] = set()
        self._failed: set[int] = set()
        self._poisoned: set[Value] = set()
        # The iteration of each op's last run, and for each value the
        # (position, iteration) of the runs that read it since it last
        # tightened; a pair whose iteration is not its op's last run is stale.
        self._last_run = [0] * len(self._by_pos)
        self._readers: dict[Value, list[tuple[int, int]]] = {}
        self.diagnostics: list[Diagnostic] = []
        # Bounds are monotone over a finite lattice: each value's interval
        # can tighten only a few times, so N ops admit a linear ceiling.
        self.iteration_ceiling = 32 * max(len(self._by_pos), 1) + 64

    def _push(self, pos: int) -> None:
        if pos in self._queued or pos in self._failed or self._rules[pos] is None:
            return
        self._queued.add(pos)
        heapq.heappush(self._queue, pos)

    def seed(self) -> None:
        """Pre-typed values (declared kernel arguments, literals) seed the
        state with their exact types."""
        bounds = self.state.bounds
        for op in self._by_pos:
            for v in _defined_values(op):
                if v.type is not EXPR:
                    bounds[v] = Interval(v.type, v.type)

    def _invalidate(self, v: Value) -> None:
        """Re-enqueue every op that read `v` at its last run."""
        readers = self._readers.pop(v, None)
        if readers:
            last_run = self._last_run
            for pos, run in readers:
                if last_run[pos] == run:
                    self._push(pos)

    def step(self, pos: int) -> list[Value]:
        """Run the rule of the op at `pos` and meet its deductions. Returns
        the values that tightened; a contradiction fails the op."""
        op = self._by_pos[pos]
        ctx = TypingContext(self, op)
        tightened = []
        try:
            self._rules[pos](op, ctx)
            run = (pos, self._last_run[pos])
            for v in ctx.reads:
                self._readers.setdefault(v, []).append(run)
            bounds, poisoned = self.state.bounds, self._poisoned
            for v, t, exact in ctx.deductions:
                if v in poisoned:
                    continue
                iv = bounds.get(v)
                if iv is None:
                    iv = bounds[v] = Interval()
                if meet_into(iv, t, exact):
                    tightened.append(v)
        except ContradictionError as exc:
            self._fail(pos, exc)
        return tightened

    def run(self) -> bool:
        """Iterate to fix-point. Returns True when no contradictions arose;
        reaching the iteration ceiling first is an error diagnostic."""
        self.seed()
        # Every op with a rule, in post-order: a sorted list is a heap.
        self._queue = [pos for pos, rule in enumerate(self._rules) if rule is not None]
        self._queued = set(self._queue)
        queue, queued, failed = self._queue, self._queued, self._failed
        poisoned, state = self._poisoned, self.state
        while queue:
            if state.iterations >= self.iteration_ceiling:
                self.diagnostics.append(
                    error(
                        self.module.location,
                        f"type checking stopped at its iteration ceiling "
                        f"({self.iteration_ceiling}) before reaching a fix-point",
                    )
                )
                return False
            pos = heapq.heappop(queue)
            queued.discard(pos)
            if pos in failed:
                # Re-enqueued by one of its own deductions before it failed.
                continue
            state.iterations += 1
            if poisoned and any(v in poisoned for v in self._by_pos[pos].operands):
                continue  # suppress contradictions dependent on earlier ones
            self._last_run[pos] = state.iterations
            for v in self.step(pos):
                self._invalidate(v)
        return not self.diagnostics

    def _fail(self, pos: int, exc: ContradictionError) -> None:
        self._failed.add(pos)
        op = self._by_pos[pos]
        if op.result is not None:
            self._poisoned.add(op.result)
        self.diagnostics.append(error(exc.location or op.location, exc.message))

    # --- materialization ---------------------------------------------------

    def materialize(self) -> list[Diagnostic]:
        """Atomically apply all deductions to the IR by narrowing each
        value's type in place.

        Returns diagnostics; an internal error indicates a rule bug and is
        surfaced loudly rather than silently repaired.
        """
        diags: list[Diagnostic] = []
        for op in self._by_pos:
            for v in _defined_values(op):
                iv = self.state.bounds.get(v)
                t = iv.sample() if iv else None
                if t is None:
                    if v.type is EXPR and v.uses:
                        diags.append(
                            error(
                                op.location,
                                "unable to deduce a type for a value; "
                                "no bound was recorded",
                            )
                        )
                    continue
                if t is v.type:
                    continue
                if not is_subtype(t, v.type):
                    diags.append(
                        error(
                            op.location,
                            f"internal error: materialization failed: "
                            f"cannot transmute {v.type} to non-subtype {t}",
                        )
                    )
                    continue
                v.type = t
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
    """Run each op's rule once against the concrete IR state.

    For a correctly typed module this tightens no value and raises no
    contradiction; it is the local per-op type verifier.
    """
    checker = FixPointTypeChecker(module)
    checker.seed()
    for pos, op in enumerate(checker._by_pos):
        if checker._rules[pos] is None:
            continue
        for v in checker.step(pos):
            checker.diagnostics.append(
                error(
                    op.location,
                    f"local re-check refined a value to "
                    f"{checker.state.bounds[v]}: module is not fully typed",
                )
            )
    return checker.diagnostics
