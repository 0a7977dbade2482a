from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from eklc import types
from eklc.ir import Operation, TypeAttr
from eklc.ir_text import parse_ir, print_ir
from eklc.types import (
    BOOL,
    EXPR,
    F32,
    F64,
    RATIONAL,
    SI8,
    SI16,
    SI32,
    SI64,
    ArrayType,
    CombineError,
    IndexType,
    broadcast_and_promote,
    broadcast_shapes,
    index_add_bound,
    is_subtype,
    promote,
    rational_fits_exactly,
)


def test_subtype_reflexive_and_top():
    for t in (BOOL, SI8, SI64, F32, F64, RATIONAL, IndexType(5), ArrayType(F32, (2, 3))):
        assert is_subtype(t, t)
        assert is_subtype(t, EXPR)
        assert not is_subtype(EXPR, t)


def test_subtype_value_set_inclusion():
    assert is_subtype(SI8, SI16) and is_subtype(SI16, SI64)
    assert not is_subtype(SI16, SI8)
    assert is_subtype(F32, F64)
    assert not is_subtype(F64, F32)
    assert is_subtype(IndexType(3), IndexType(5))
    assert not is_subtype(IndexType(5), IndexType(3))
    # Small index ranges are value sets of small nonnegative integers.
    assert is_subtype(IndexType(8), SI8)
    # Narrow integers embed exactly into floats; wide ones do not.
    assert is_subtype(SI16, F32)
    assert not is_subtype(SI64, F64)
    assert not is_subtype(SI32, F32)
    # The compile-time rational kind stays incomparable to machine kinds;
    # literals adapt through promotion instead.
    assert not is_subtype(SI64, RATIONAL)
    assert not is_subtype(F64, RATIONAL)


def test_subtype_arrays_elementwise_same_shape():
    assert is_subtype(ArrayType(F32, (2, 3)), ArrayType(F64, (2, 3)))
    assert not is_subtype(ArrayType(F32, (2, 3)), ArrayType(F64, (3, 2)))
    assert not is_subtype(ArrayType(F32, (2,)), F32)


def test_promote_commutative_on_machine_scalars():
    scalars = [BOOL, SI8, SI16, SI32, SI64, F32, F64] + [IndexType(n) for n in (1, 4, 8)]
    for a in scalars:
        for b in scalars:
            assert promote(a, b) == promote(b, a)


def test_promote_rational_adapts_to_the_other_operand():
    for t in (SI8, SI32, SI64, F32, F64, IndexType(7)):
        assert promote(RATIONAL, t) == t
        assert promote(t, RATIONAL) == t
    assert promote(RATIONAL, RATIONAL) == RATIONAL


def test_promote_int_float_mixes():
    assert promote(SI32, F32) == F64
    assert promote(SI16, F32) == F32
    # No machine type holds every si64 and every f64 value exactly.
    assert promote(SI64, F64) is None
    assert promote(F32, F64) == F64


def test_index_add_tracks_bounds():
    assert index_add_bound(IndexType(4), IndexType(3)) == IndexType(6)
    assert index_add_bound(IndexType(1), IndexType(1)) == IndexType(1)
    assert index_add_bound(SI32, IndexType(3)) is None


def test_broadcast_shapes_right_aligned():
    assert broadcast_shapes((2, 3), (3,)) == (2, 3)
    assert broadcast_shapes((2, 1), (2, 3)) == (2, 3)
    assert broadcast_shapes((), (4,)) == (4,)
    assert broadcast_shapes((2,), (3,)) is None


def test_broadcast_and_promote_combines_both_axes_and_scalars():
    t = broadcast_and_promote([ArrayType(F32, (2, 1)), ArrayType(SI16, (3,))])
    assert t == ArrayType(F32, (2, 3))
    t = broadcast_and_promote([RATIONAL, ArrayType(F64, (4,))])
    assert t == ArrayType(F64, (4,))
    with pytest.raises(CombineError):
        broadcast_and_promote([ArrayType(F32, (2,)), ArrayType(F32, (3,))])


def test_rational_exactness():
    assert rational_fits_exactly(Fraction(1, 2), F32)
    assert not rational_fits_exactly(Fraction(1, 3), F64)
    assert rational_fits_exactly(Fraction(127), SI8)
    assert not rational_fits_exactly(Fraction(128), SI8)
    assert rational_fits_exactly(Fraction(2) ** 24, F32)
    assert not rational_fits_exactly(Fraction(2) ** 24 + 1, F32)
    assert rational_fits_exactly(Fraction(2) ** 53, F64)
    assert not rational_fits_exactly(Fraction(2) ** 53 + 1, F64)
    assert rational_fits_exactly(Fraction(3), IndexType(4))
    assert not rational_fits_exactly(Fraction(4), IndexType(4))
    assert not rational_fits_exactly(Fraction(-1), IndexType(4))


def test_type_text_round_trip():
    for t in (
        BOOL,
        SI8,
        SI64,
        F32,
        RATIONAL,
        IndexType(60),
        ArrayType(F32, (2, 3)),
        ArrayType(IndexType(5), (4,)),
    ):
        op = Operation("ekl.output", attrs={"type": TypeAttr(t)}, result_type=t)
        parsed = parse_ir(print_ir(op))
        assert parsed.attrs["type"].value == t and parsed.result.type == t


def test_equal_types_are_one_instance():
    assert IndexType(3) is IndexType(3)
    assert ArrayType(F64, [2, 3]) is ArrayType(F64, (2, 3))
    assert ArrayType(IndexType(4), (5,)).scalar is IndexType(4)
    assert IndexType(3) is not IndexType(4)
    assert str(ArrayType(F64, (2, 3))) == "array<f64[2,3]>"


def test_copies_and_pickles_keep_the_instance():
    t = ArrayType(IndexType(7), (2, 3))
    assert copy.copy(t) is t
    assert copy.deepcopy(t) is t
    assert copy.deepcopy([t, t])[0] is t
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(t, proto)) is t
        assert pickle.loads(pickle.dumps(BOOL, proto)) is BOOL


def test_a_rejected_type_records_no_instance():
    with pytest.raises(ValueError, match="index bound must be positive"):
        IndexType(0)
    assert (IndexType, 0) not in types._UNIQUE
    with pytest.raises(ValueError, match="array extents must be non-negative"):
        ArrayType(F64, (2, -1))
    assert (ArrayType, F64, (2, -1)) not in types._UNIQUE


def test_types_are_immutable():
    with pytest.raises(AttributeError):
        IndexType(3).bound = 4
    assert IndexType(3).bound == 3
