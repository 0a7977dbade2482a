from __future__ import annotations

import struct
from fractions import Fraction

import numpy as np
import pytest

from eklc.pipeline import compile_source
from eklc.tensor_io import (
    DtypeMismatchError,
    MalformedHeaderError,
    TensorValue,
    TruncatedPayloadError,
    check_against,
    read_tensor,
    write_tensor,
)
from eklc.types import BOOL, F32, F64, SI32, SI64, ArrayType, IndexType, RATIONAL


@pytest.mark.parametrize(
    "kind,dtype",
    [(SI32, np.int32), (SI64, np.int64), (F32, np.float32), (F64, np.float64)],
)
def test_numeric_round_trip(tmp_path, kind, dtype):
    path = tmp_path / "t.eklt"
    data = np.arange(24, dtype=dtype).reshape(2, 3, 4)
    write_tensor(path, TensorValue(kind, (2, 3, 4), data))
    back = read_tensor(path)
    assert back.kind == kind and back.shape == (2, 3, 4)
    np.testing.assert_array_equal(back.data, data)
    assert back.data.dtype == dtype


def test_bool_and_scalar_round_trip(tmp_path):
    path = tmp_path / "b.eklt"
    write_tensor(path, TensorValue(BOOL, (), np.array(True)))
    back = read_tensor(path)
    assert back.kind == BOOL and back.shape == ()
    assert bool(back.data) is True


def test_rational_sidecar_round_trip(tmp_path):
    path = tmp_path / "q.eklt"
    data = np.array(
        [[Fraction(1, 3), Fraction(-2, 7)], [Fraction(5), Fraction(0)]],
        dtype=object,
    )
    write_tensor(path, TensorValue(RATIONAL, (2, 2), data))
    back = read_tensor(path)
    assert back.kind == RATIONAL and back.shape == (2, 2)
    assert (back.data == data).all()


def test_rank0_rational_round_trip(tmp_path):
    # A rank-0 file has an empty extents line that the reader must keep.
    path = tmp_path / "s.eklr"
    value = np.array(Fraction(-3, 4), dtype=object)
    write_tensor(path, TensorValue(RATIONAL, (), value))
    back = read_tensor(path)
    assert back.kind == RATIONAL and back.shape == ()
    assert back.to_runtime() == Fraction(-3, 4)


def test_bad_magic_is_a_malformed_header(tmp_path):
    path = tmp_path / "bad.eklt"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(MalformedHeaderError) as exc:
        read_tensor(path)
    assert exc.value.code == "malformed-header"


def test_unknown_dtype_code_is_a_malformed_header(tmp_path):
    path = tmp_path / "bad.eklt"
    path.write_bytes(b"EKLT" + struct.pack("<BBBx", 1, 77, 0))
    with pytest.raises(MalformedHeaderError) as exc:
        read_tensor(path)
    assert exc.value.code == "malformed-header"


def test_short_payload_is_truncated(tmp_path):
    path = tmp_path / "cut.eklt"
    data = np.arange(6, dtype=np.float64).reshape(2, 3)
    write_tensor(path, TensorValue(F64, (2, 3), data))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(TruncatedPayloadError) as exc:
        read_tensor(path)
    assert exc.value.code == "truncated-payload"


@pytest.mark.parametrize(
    "blob,error,message",
    [
        (b"EKLT" + struct.pack("<BBBx", 2, 4, 0), MalformedHeaderError, "unsupported version 2"),
        (
            b"EKLT" + struct.pack("<BBBxQ", 1, 4, 2, 3),
            MalformedHeaderError,
            "header promises 2 extents",
        ),
        (
            b"EKLT" + struct.pack("<BBBxQd", 1, 4, 1, 2, 1.0),
            TruncatedPayloadError,
            "expected 16 payload bytes, found 8",
        ),
        (
            b"EKLT" + struct.pack("<BBBxQddd", 1, 4, 1, 2, 1.0, 2.0, 3.0),
            TruncatedPayloadError,
            "expected 16 payload bytes, found 24",
        ),
    ],
)
def test_header_and_payload_checks(tmp_path, blob, error, message):
    path = tmp_path / "t.eklt"
    path.write_bytes(blob)
    with pytest.raises(error, match=message):
        read_tensor(path)


def test_empty_tensor_round_trip(tmp_path):
    path = tmp_path / "empty.eklt"
    write_tensor(path, TensorValue(F64, (0, 3), np.zeros((0, 3))))
    back = read_tensor(path)
    assert back.shape == (0, 3) and back.data.flags.writeable


def _kernel(src):
    result = compile_source(src, "t.ekl", stage="optimized")
    assert result.ok
    return result.module.body().ops[0]


def test_check_against_enforces_kind_and_shape():
    kernel = _kernel(
        "kernel k(in a: f64[2,3], in j: index<4>[2], out y: f64[2]) "
        "{ let y[i] = a[i, _0] + j[i]; }"
    )
    a_type = kernel.body().args[0].type
    check_against(TensorValue(F64, (2, 3), np.zeros((2, 3))), a_type)
    with pytest.raises(DtypeMismatchError):
        check_against(
            TensorValue(F32, (2, 3), np.zeros((2, 3), np.float32)), a_type
        )
    with pytest.raises(DtypeMismatchError):
        check_against(TensorValue(F64, (3, 2), np.zeros((3, 2))), a_type)
    # Integer files may bind to index inputs; the range check happens at
    # evaluation time.
    j_type = kernel.body().args[1].type
    check_against(TensorValue(SI64, (2,), np.array([0, 3])), j_type)
    assert isinstance(j_type, ArrayType) and isinstance(
        j_type.scalar, IndexType
    )


def test_runtime_round_trip_preserves_values():
    v = TensorValue.from_runtime(
        np.linspace(-1, 1, 6, dtype=np.float32).reshape(2, 3),
        ArrayType(F32, (2, 3)),
    )
    assert v.kind == F32 and v.shape == (2, 3)
    back = v.to_runtime()
    assert back.dtype == np.float32
