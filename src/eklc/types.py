"""The EKL type universe and the relations defined on it.

Scalar machine types (bool, signed ints, floats), statically bounded index
types, compile-time exact rationals, shaped arrays, and the universal
expression type. Subtyping between numeric types follows value-set
inclusion: t <: u iff every value of t is exactly representable in u.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction


class Type:
    """Base class for all EKL type descriptors."""

    __slots__ = ()


@dataclass(frozen=True)
class BoolType(Type):
    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class IntType(Type):
    """Signed two's-complement integer of the given bit width."""

    width: int

    def __post_init__(self) -> None:
        if self.width not in (8, 16, 32, 64):
            raise ValueError(f"unsupported integer width {self.width}")

    def __str__(self) -> str:
        return f"si{self.width}"


@dataclass(frozen=True)
class FloatType(Type):
    width: int

    def __post_init__(self) -> None:
        if self.width not in (32, 64):
            raise ValueError(f"unsupported float width {self.width}")

    def __str__(self) -> str:
        return f"f{self.width}"


@dataclass(frozen=True)
class IndexType(Type):
    """Non-negative integer statically less than `bound` (exclusive)."""

    bound: int

    def __post_init__(self) -> None:
        if self.bound < 1:
            raise ValueError("index bound must be positive")

    def __str__(self) -> str:
        return f"index<{self.bound}>"


@dataclass(frozen=True)
class RationalType(Type):
    """Arbitrary-precision rational; the type of number literals."""

    def __str__(self) -> str:
        return "rational"


@dataclass(frozen=True)
class ExpressionType(Type):
    """Universal top type carried by every value in syntactical form."""

    def __str__(self) -> str:
        return "expr"


@dataclass(frozen=True)
class PseudoType(Type):
    """Literal pseudo-type of a subscript slot: identity ':', extent '*',
    ellipsis '...'."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in (":", "*", "..."):
            raise ValueError(f"unknown pseudo type {self.kind!r}")

    def __str__(self) -> str:
        names = {":": "identity", "*": "extent", "...": "ellipsis"}
        return f"pseudo_{names[self.kind]}"


@dataclass(frozen=True)
class ArrayType(Type):
    scalar: Type
    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        if isinstance(self.scalar, (ArrayType, ExpressionType, PseudoType)):
            raise ValueError("array scalar must be a scalar type")
        if any(e < 0 for e in self.shape):
            raise ValueError("array extents must be non-negative")

    def __str__(self) -> str:
        dims = ",".join(str(e) for e in self.shape)
        return f"array<{self.scalar}[{dims}]>"


BOOL = BoolType()
SI8 = IntType(8)
SI16 = IntType(16)
SI32 = IntType(32)
SI64 = IntType(64)
F32 = FloatType(32)
F64 = FloatType(64)
RATIONAL = RationalType()
EXPR = ExpressionType()
IDENTITY = PseudoType(":")
EXTENT = PseudoType("*")
ELLIPSIS = PseudoType("...")

# Largest integer n such that all integers in [0, n] are exact in the float.
_FLOAT_EXACT_MAX = {32: 2**24, 64: 2**53}


def int_max(t: IntType) -> int:
    return 2 ** (t.width - 1) - 1


def int_min(t: IntType) -> int:
    return -(2 ** (t.width - 1))


def scalar_of(t: Type) -> Type:
    """Scalar part of a (possibly array) type."""
    return t.scalar if isinstance(t, ArrayType) else t


def shape_of(t: Type) -> tuple[int, ...]:
    return t.shape if isinstance(t, ArrayType) else ()


def with_shape(scalar: Type, shape: tuple[int, ...]) -> Type:
    return ArrayType(scalar, shape) if shape else scalar


def is_numeric_scalar(t: Type) -> bool:
    return isinstance(t, (IntType, FloatType, IndexType, RationalType))


def is_integer_family(t: Type) -> bool:
    """Bool, index, and signed integer types (value sets of integers)."""
    return isinstance(t, (BoolType, IndexType, IntType))


def is_broadcast_type(t: Type) -> bool:
    """Numeric scalar, bool, index, or an array of such."""
    s = scalar_of(t)
    return is_numeric_scalar(s) or isinstance(s, BoolType)


def is_arithmetic_type(t: Type) -> bool:
    """Numeric scalar or array of numeric scalar."""
    return is_numeric_scalar(scalar_of(t))


def _scalar_subtype(t: Type, u: Type) -> bool:
    if t == u:
        return True
    if isinstance(t, BoolType):
        # Bool values {0, 1} embed exactly in every int and float.
        return isinstance(u, (IntType, FloatType))
    if isinstance(t, IndexType):
        if isinstance(u, IndexType):
            return t.bound <= u.bound
        if isinstance(u, IntType):
            return t.bound - 1 <= int_max(u)
        if isinstance(u, FloatType):
            return t.bound - 1 <= _FLOAT_EXACT_MAX[u.width]
        return False
    if isinstance(t, IntType):
        if isinstance(u, IntType):
            return t.width <= u.width
        if isinstance(u, FloatType):
            return int_max(t) <= _FLOAT_EXACT_MAX[u.width]
        return False
    if isinstance(t, FloatType):
        return isinstance(u, FloatType) and t.width <= u.width
    return False


def is_subtype(t: Type, u: Type) -> bool:
    """Value-set inclusion ordering; every type is a subtype of `expr`."""
    if t == u or isinstance(u, ExpressionType):
        return True
    if isinstance(t, ExpressionType):
        return False
    if isinstance(t, ArrayType) or isinstance(u, ArrayType):
        return (
            isinstance(t, ArrayType)
            and isinstance(u, ArrayType)
            and t.shape == u.shape
            and is_subtype(t.scalar, u.scalar)
        )
    if isinstance(t, (PseudoType, RationalType)):
        return False  # these relate only to themselves and expr
    if isinstance(u, (PseudoType, RationalType)):
        return False
    return _scalar_subtype(t, u)


def _smallest_int_for(lo: int, hi: int) -> IntType | None:
    for c in (SI8, SI16, SI32, SI64):
        if int_min(c) <= lo and hi <= int_max(c):
            return c
    return None


def promote(t: Type, u: Type) -> Type | None:
    """Least common numeric supertype of two scalar types, or None.

    Rational is the adaptive literal type: it promotes into the other
    operand's type, with exactness enforced when literals are lowered.
    """
    if t == u:
        return t if is_numeric_scalar(t) or isinstance(t, BoolType) else None
    for a, b in ((t, u), (u, t)):
        if isinstance(a, RationalType):
            if is_numeric_scalar(b) or isinstance(b, BoolType):
                return b
            return None
    if not (is_broadcast_type(t) and not isinstance(t, ArrayType)):
        return None
    if not (is_broadcast_type(u) and not isinstance(u, ArrayType)):
        return None
    if is_subtype(t, u):
        return u
    if is_subtype(u, t):
        return t
    if is_integer_family(t) and is_integer_family(u):
        # Incomparable integer-family pair: smallest signed int holding both.
        def vrange(x: Type) -> tuple[int, int]:
            if isinstance(x, BoolType):
                return (0, 1)
            if isinstance(x, IndexType):
                return (0, x.bound - 1)
            assert isinstance(x, IntType)
            return (int_min(x), int_max(x))

        lo = min(vrange(t)[0], vrange(u)[0])
        hi = max(vrange(t)[1], vrange(u)[1])
        return _smallest_int_for(lo, hi)
    # One float and one integer-family type: smallest float holding both.
    for f in (F32, F64):
        if is_subtype(t, f) and is_subtype(u, f):
            return f
    return None


def broadcast_shapes(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...] | None:
    """Right-aligned broadcasting; None when some axis pair is incompatible."""
    rank = max(len(a), len(b))
    pa = (1,) * (rank - len(a)) + tuple(a)
    pb = (1,) * (rank - len(b)) + tuple(b)
    out = []
    for x, y in zip(pa, pb):
        if x == y or y == 1:
            out.append(x)
        elif x == 1:
            out.append(y)
        else:
            return None
    return tuple(out)


class CombineError(Exception):
    """Raised when broadcast-and-promote fails on a pair of types."""

    def __init__(self, reason: str, left: Type, right: Type) -> None:
        super().__init__(f"{reason}: {left} vs {right}")
        self.reason = reason  # "promote" or "shape"
        self.left = left
        self.right = right


def broadcast_and_promote(types: list[Type]) -> Type:
    """Fold promotion over scalars and broadcasting over shapes.

    Raises CombineError naming the first offending pair.
    """
    if not types:
        raise ValueError("broadcast_and_promote requires at least one type")
    acc = types[0]
    if not is_arithmetic_type(acc) and not is_broadcast_type(acc):
        raise CombineError("promote", acc, acc)
    for t in types[1:]:
        scalar = promote(scalar_of(acc), scalar_of(t))
        if scalar is None:
            raise CombineError("promote", acc, t)
        shape = broadcast_shapes(shape_of(acc), shape_of(t))
        if shape is None:
            raise CombineError("shape", acc, t)
        acc = with_shape(scalar, shape)
    return acc


def index_add_bound(t: Type, u: Type) -> IndexType | None:
    """Result type of adding two index values: bounds add (max sums)."""
    if isinstance(t, IndexType) and isinstance(u, IndexType):
        return IndexType(t.bound + u.bound - 1)
    return None


def rational_fits_exactly(value: Fraction, t: Type) -> bool:
    """Whether a rational constant is exactly representable in `t`."""
    if isinstance(t, RationalType):
        return True
    if isinstance(t, BoolType):
        return value in (0, 1)
    if isinstance(t, IndexType):
        return value.denominator == 1 and 0 <= value < t.bound
    if isinstance(t, IntType):
        return value.denominator == 1 and int_min(t) <= value <= int_max(t)
    if isinstance(t, FloatType):
        if value == 0:
            return True
        f = float(value)
        if value != Fraction(f):
            return False
        if t.width == 64:
            return True
        return struct.unpack("f", struct.pack("f", f))[0] == f
    return False


# --- textual syntax ---------------------------------------------------------

_SCALAR_NAMES = {
    "bool": BOOL,
    "si8": SI8,
    "si16": SI16,
    "si32": SI32,
    "si64": SI64,
    "f32": F32,
    "f64": F64,
    "rational": RATIONAL,
    "expr": EXPR,
    "pseudo_identity": IDENTITY,
    "pseudo_extent": EXTENT,
    "pseudo_ellipsis": ELLIPSIS,
}


def type_to_text(t: Type) -> str:
    return str(t)


def type_from_text(text: str) -> Type:
    """Parse the textual type syntax, e.g. `f32`, `index<60>`, `array<f32[2,3]>`."""
    text = text.strip()
    if text in _SCALAR_NAMES:
        return _SCALAR_NAMES[text]
    if text.startswith("index<") and text.endswith(">"):
        return IndexType(int(text[6:-1]))
    if text.startswith("array<") and text.endswith("]>"):
        inner = text[6:-1]
        lb = inner.index("[")
        scalar = type_from_text(inner[:lb])
        dims = inner[lb + 1 : -1].strip()
        shape = tuple(int(d) for d in dims.split(",")) if dims else ()
        return ArrayType(scalar, shape)
    raise ValueError(f"unknown type syntax: {text!r}")
