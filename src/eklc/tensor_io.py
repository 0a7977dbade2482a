"""Tensor value container and on-disk formats.

Machine-kind tensors use the EKLT binary format: magic `EKLT`, u8
version (1), u8 dtype code (1=si32, 2=si64, 3=f32, 4=f64, 5=bool), u8
rank, one padding byte to 8 bytes, rank u64 little-endian extents, then
the row-major payload in little-endian IEEE / two's complement. Rational
tensors use a textual sidecar format (magic `EKLR`) with one exact
`numerator/denominator` entry per element.
"""

from __future__ import annotations

import math
import operator
import struct
from fractions import Fraction

import numpy as np

from .types import (
    BOOL,
    F32,
    F64,
    RATIONAL,
    SI32,
    SI64,
    BoolType,
    FloatType,
    IndexType,
    IntType,
    RationalType,
    Type,
    scalar_of,
    shape_of,
)


class TensorIOError(Exception):
    """Base class; subclasses give each failure mode a distinct code."""

    code = "io-error"


class MalformedHeaderError(TensorIOError):
    code = "malformed-header"


class DtypeMismatchError(TensorIOError):
    code = "dtype-mismatch"


class TruncatedPayloadError(TensorIOError):
    code = "truncated-payload"


_DTYPE_CODES: list[tuple[int, Type, np.dtype]] = [
    (1, SI32, np.dtype("<i4")),
    (2, SI64, np.dtype("<i8")),
    (3, F32, np.dtype("<f4")),
    (4, F64, np.dtype("<f8")),
    (5, BOOL, np.dtype("u1")),
]
_CODE_BY_KIND = {kind: (code, dt) for code, kind, dt in _DTYPE_CODES}
_KIND_BY_CODE = {code: (kind, dt) for code, kind, dt in _DTYPE_CODES}
_FRACTION = np.frompyfunc(Fraction, 2, 1)
# Exact (numerator, denominator) of each element, lowest terms and a
# positive denominator: Fractions, ints and floats all provide it.
_RATIO = np.frompyfunc(operator.methodcaller("as_integer_ratio"), 1, 2)


def _ratio_of(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return tuple(np.asarray(a, dtype=object) for a in _RATIO(data))


class TensorValue:
    """A shaped runtime value: scalar kind, extents, row-major payload.

    `data` is an array of the machine dtype, or for a rational an object
    array of `Fraction`. A rational may instead be given by its `ratio`:
    object arrays of Python-int numerators and positive denominators. A
    rational read from an EKLR file, or built by `from_runtime`, holds
    only its ratio and builds its Fractions when `data` is first read."""

    __slots__ = ("kind", "shape", "_data", "_ratio")

    def __init__(self, kind: Type, shape: tuple[int, ...], data=None, ratio=None):
        if (data if ratio is None else ratio[0]).shape != shape:
            raise ValueError("payload shape does not match extents")
        self.kind = kind
        self.shape = shape
        self._data = data
        self._ratio = ratio

    @property
    def data(self) -> np.ndarray:
        if self._data is None:
            self._data = np.asarray(_FRACTION(*self._ratio), dtype=object)
        return self._data

    def ratio(self) -> tuple[np.ndarray, np.ndarray]:
        """Numerators and positive denominators of a rational payload."""
        if self._ratio is None:
            self._ratio = _ratio_of(self._data)
        return self._ratio

    @staticmethod
    def from_runtime(value, declared: Type) -> "TensorValue":
        kind = scalar_of(declared)
        shape = shape_of(declared)
        if isinstance(kind, RationalType):
            ratio = _ratio_of(np.asarray(value, dtype=object).reshape(shape))
            return TensorValue(kind, shape, ratio=ratio)
        if isinstance(kind, BoolType):
            return TensorValue(kind, shape, np.asarray(value, dtype=bool).reshape(shape))
        if isinstance(kind, FloatType):
            dt = np.float32 if kind.width == 32 else np.float64
            return TensorValue(kind, shape, np.asarray(value, dtype=dt).reshape(shape))
        return TensorValue(kind, shape, np.asarray(value, dtype=np.int64).reshape(shape))

    def to_runtime(self):
        return self.data if self.shape else self.data[()]


def check_against(t: TensorValue, declared: Type) -> None:
    """Signature check used before binding a loaded tensor to a kernel input.

    There are no implicit runtime casts between file and declared float or
    integer widths; integer payloads may feed index-typed inputs (values
    are range-checked at evaluation time).
    """
    kind = scalar_of(declared)
    shape = shape_of(declared)
    if t.shape != shape:
        raise DtypeMismatchError(
            f"tensor shape {list(t.shape)} does not match declared {list(shape)}"
        )
    if isinstance(kind, IndexType):
        if not isinstance(t.kind, (IntType, IndexType)):
            raise DtypeMismatchError(f"{t.kind} payload cannot bind to {kind}")
        return
    if t.kind != kind:
        raise DtypeMismatchError(
            f"tensor of kind {t.kind} does not match declared {kind}"
        )


def check_writable(declared: Type) -> None:
    """Raise unless a tensor of the declared type has a file format: EKLR
    for rational, EKLT for si32, si64, f32, f64 and bool."""
    kind = scalar_of(declared)
    if not isinstance(kind, RationalType) and kind not in _CODE_BY_KIND:
        raise TensorIOError(f"kind {kind} has no serialized form")


def write_tensor(path: str, t: TensorValue) -> None:
    check_writable(t.kind)
    if isinstance(t.kind, RationalType):
        _write_rational(path, t)
        return
    code, dt = _CODE_BY_KIND[t.kind]
    header = b"EKLT" + struct.pack("<BBBx", 1, code, len(t.shape))
    extents = struct.pack(f"<{len(t.shape)}Q", *t.shape)
    payload = np.ascontiguousarray(t.data, dtype=dt).tobytes()
    with open(path, "wb") as f:
        f.write(header + extents + payload)


def read_tensor(path: str) -> TensorValue:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] == b"EKLR":
        return _read_rational(blob, path)
    if len(blob) < 8 or blob[:4] != b"EKLT":
        raise MalformedHeaderError(f"{path}: not an EKLT tensor file")
    version, code, rank = struct.unpack_from("<BBB", blob, 4)
    if version != 1:
        raise MalformedHeaderError(f"{path}: unsupported version {version}")
    if code not in _KIND_BY_CODE:
        raise MalformedHeaderError(f"{path}: unknown dtype code {code}")
    kind, dt = _KIND_BY_CODE[code]
    offset = 8 + 8 * rank
    if len(blob) < offset:
        raise MalformedHeaderError(f"{path}: header promises {rank} extents")
    shape = struct.unpack_from(f"<{rank}Q", blob, 8)
    count = math.prod(shape)
    if len(blob) - offset != count * dt.itemsize:
        raise TruncatedPayloadError(
            f"{path}: expected {count * dt.itemsize} payload bytes, "
            f"found {len(blob) - offset}"
        )
    # A view of the file's bytes; the cast or the copy is the payload's one copy.
    data = np.frombuffer(blob, dtype=dt, count=count, offset=offset).reshape(shape)
    data = data.astype(bool) if isinstance(kind, BoolType) else data.copy()
    return TensorValue(kind, tuple(int(e) for e in shape), data)


def _write_rational(path: str, t: TensorValue) -> None:
    num, den = t.ratio()
    lines = ["EKLR 1", "rational", " ".join(str(e) for e in t.shape)]
    lines += [f"{n}/{d}" for n, d in zip(num.flat, den.flat)]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _read_rational(blob: bytes, path: str) -> TensorValue:
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedHeaderError(f"{path}: not a textual rational tensor") from exc
    # The extents line is empty for a rank-0 tensor, so the header is read
    # by position and blank lines are dropped only among the entries.
    lines = text.splitlines()
    if len(lines) < 3 or lines[0].split() != ["EKLR", "1"] or lines[1] != "rational":
        raise MalformedHeaderError(f"{path}: malformed rational tensor header")
    try:
        shape = tuple(int(e) for e in lines[2].split())
    except ValueError as exc:
        raise MalformedHeaderError(f"{path}: bad extents line") from exc
    if any(e < 0 for e in shape):
        raise MalformedHeaderError(f"{path}: bad extents line")
    count = math.prod(shape)
    entries = [ln for ln in lines[3:] if ln.strip()]
    if len(entries) != count:
        raise TruncatedPayloadError(
            f"{path}: expected {count} rational entries, found {len(entries)}"
        )
    nums, dens = [], []
    for entry in entries:
        num, _, den = entry.partition("/")
        try:
            n, d = int(num), int(den or "1")
        except ValueError as exc:
            raise TruncatedPayloadError(f"{path}: bad entry {entry!r}") from exc
        if d <= 0:
            if not d:
                raise TruncatedPayloadError(f"{path}: bad entry {entry!r}")
            n, d = -n, -d
        nums.append(n)
        dens.append(d)
    ratio = tuple(np.array(a, dtype=object).reshape(shape) for a in (nums, dens))
    return TensorValue(RATIONAL, shape, ratio=ratio)
