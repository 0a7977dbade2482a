"""The EKL type universe and the relations defined on it.

Scalar machine types (bool, signed ints, floats), statically bounded index
types, compile-time exact rationals, shaped arrays, and the universal
expression type. Subtyping between numeric types follows value-set
inclusion: t <: u iff every value of t is exactly representable in u.

Types are uniqued, as in an MLIR context: constructing a type with the
same class and fields returns the one existing instance, so two equal
types are the same object, and `==` and `hash` are by identity. A type is
validated once, when it is first built, and its text is built once with
it. Copying or pickling a type gives back the same instance. Because
types are unique, `is_subtype` and `promote` are memoized on the pair of
operands. The table of instances lives as long as the process; a program
names few distinct types.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction

# (class, *fields) -> the one instance with those fields.
_UNIQUE: dict[tuple, "Type"] = {}


class Type:
    """Base class for all EKL type descriptors: immutable and uniqued."""

    __slots__ = ("_text",)
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a uniqued type")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __deepcopy__(self, memo) -> "Type":
        return self

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


def _intern(cls: type, values: tuple, text: str) -> Type:
    """Record the first, already validated, instance of `cls` with the
    field `values`."""
    t = object.__new__(cls)
    for name, value in zip(cls._fields, values):
        object.__setattr__(t, name, value)
    object.__setattr__(t, "_text", text)
    _UNIQUE[(cls, *values)] = t
    return t


class BoolType(Type):
    __slots__ = ()

    def __new__(cls) -> "BoolType":
        return _UNIQUE.get((cls,)) or _intern(cls, (), "bool")


class IntType(Type):
    """Signed two's-complement integer of the given bit width."""

    __slots__ = ("width",)
    _fields = ("width",)

    def __new__(cls, width: int) -> "IntType":
        t = _UNIQUE.get((cls, width))
        if t is None:
            if width not in (8, 16, 32, 64):
                raise ValueError(f"unsupported integer width {width}")
            t = _intern(cls, (width,), f"si{width}")
        return t


class FloatType(Type):
    __slots__ = ("width",)
    _fields = ("width",)

    def __new__(cls, width: int) -> "FloatType":
        t = _UNIQUE.get((cls, width))
        if t is None:
            if width not in (32, 64):
                raise ValueError(f"unsupported float width {width}")
            t = _intern(cls, (width,), f"f{width}")
        return t


class IndexType(Type):
    """Non-negative integer statically less than `bound` (exclusive)."""

    __slots__ = ("bound",)
    _fields = ("bound",)

    def __new__(cls, bound: int) -> "IndexType":
        t = _UNIQUE.get((cls, bound))
        if t is None:
            if bound < 1:
                raise ValueError("index bound must be positive")
            t = _intern(cls, (bound,), f"index<{bound}>")
        return t


class RationalType(Type):
    """Arbitrary-precision rational; the type of number literals."""

    __slots__ = ()

    def __new__(cls) -> "RationalType":
        return _UNIQUE.get((cls,)) or _intern(cls, (), "rational")


class ExpressionType(Type):
    """Universal top type carried by every value in syntactical form."""

    __slots__ = ()

    def __new__(cls) -> "ExpressionType":
        return _UNIQUE.get((cls,)) or _intern(cls, (), "expr")


class ArrayType(Type):
    __slots__ = ("scalar", "shape")
    _fields = ("scalar", "shape")

    def __new__(cls, scalar: Type, shape: tuple[int, ...]) -> "ArrayType":
        if type(shape) is not tuple:
            shape = tuple(shape)
        t = _UNIQUE.get((cls, scalar, shape))
        if t is None:
            if isinstance(scalar, (ArrayType, ExpressionType)):
                raise ValueError("array scalar must be a scalar type")
            if any(e < 0 for e in shape):
                raise ValueError("array extents must be non-negative")
            dims = ",".join(str(e) for e in shape)
            t = _intern(cls, (scalar, shape), f"array<{scalar}[{dims}]>")
        return t


BOOL = BoolType()
SI8 = IntType(8)
SI16 = IntType(16)
SI32 = IntType(32)
SI64 = IntType(64)
F32 = FloatType(32)
F64 = FloatType(64)
RATIONAL = RationalType()
EXPR = ExpressionType()

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
    if t is u:
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


# (t, u) -> is_subtype(t, u) and promote(t, u); types are unique, so a
# pair is its own key.
_SUBTYPE: dict[tuple[Type, Type], bool] = {}
_PROMOTE: dict[tuple[Type, Type], "Type | None"] = {}


def is_subtype(t: Type, u: Type) -> bool:
    """Value-set inclusion ordering; every type is a subtype of `expr`."""
    key = (t, u)
    r = _SUBTYPE.get(key)
    if r is None:
        r = _SUBTYPE[key] = _subtype(t, u)
    return r


def _subtype(t: Type, u: Type) -> bool:
    if t is u or isinstance(u, ExpressionType):
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
    if isinstance(t, RationalType) or isinstance(u, RationalType):
        return False  # rational relates only to itself and expr
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
    key = (t, u)
    try:
        return _PROMOTE[key]
    except KeyError:
        r = _PROMOTE[key] = _promote(t, u)
        return r


def _promote(t: Type, u: Type) -> Type | None:
    if t is u:
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


def rational_to_float(value: Fraction, t: FloatType) -> float:
    """`value` rounded to the nearest double, as `float` rounds it. Raises
    OverflowError when it lies past the finite range of `t`, where the
    evaluator's cast of a rational traps."""
    f = float(value)
    if t.width == 32 and math.isinf(struct.unpack("f", struct.pack("f", f))[0]):
        raise OverflowError(f"value out of range for {t}")
    return f


def rational_in_range(value: Fraction, t: Type) -> bool:
    """Whether a cast of a rational constant to `t` evaluates without
    trapping: a float type holds it once rounded, an integer or index
    type once truncated toward zero."""
    if isinstance(t, FloatType):
        try:
            rational_to_float(value, t)
        except OverflowError:
            return False
        return True
    if isinstance(t, IndexType):
        return 0 <= math.trunc(value) < t.bound
    if isinstance(t, IntType):
        return int_min(t) <= math.trunc(value) <= int_max(t)
    return True


def rational_cast(value: Fraction | bool, t: Type | None) -> Fraction | bool | None:
    """The exact value of a cast of a constant to `t`: `!= 0` in a bool,
    truncated toward zero in an integer or index type. None where the cast
    traps or rounds, and for no type."""
    if isinstance(t, BoolType):
        return value != 0
    if isinstance(t, (IndexType, IntType)):
        value = Fraction(math.trunc(value))
    return value if t is not None and rational_fits_exactly(value, t) else None


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
        try:
            f = float(value)
        except OverflowError:  # past the largest finite double
            return False
        if value != Fraction(f):
            return False
        if t.width == 64:
            return True
        return struct.unpack("f", struct.pack("f", f))[0] == f
    return False

