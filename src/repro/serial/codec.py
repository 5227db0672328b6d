"""A protobuf-like tag-length-value codec.

CRIU serializes checkpoint images with Protocol Buffers; we implement a
compact TLV encoding with the same cost characteristics: varint integers,
length-prefixed strings/bytes/messages, and a byte-accurate size so the
mechanisms can charge serialization time proportionally to real encoded
volume.

The encoding round-trips Python values built from ``int``, ``float``,
``str``, ``bytes``, ``bool``, ``None``, ``list`` and ``dict`` (string keys).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any

_T_NONE = 0
_T_INT = 1
_T_FLOAT = 2
_T_STR = 3
_T_BYTES = 4
_T_LIST = 5
_T_DICT = 6
_T_BOOL = 7
_T_NEGINT = 8


def _encode_varint(value: int, out: bytearray) -> None:
    if value < 0:
        raise ValueError(f"varint cannot encode negatives: {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _decode_varint(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise ValueError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise ValueError("varint too long")


def _encode_value(value: Any, out: bytearray) -> None:
    if value is None:
        out.append(_T_NONE)
    elif value is True or value is False:
        out.append(_T_BOOL)
        out.append(1 if value else 0)
    elif isinstance(value, int):
        if value >= 0:
            out.append(_T_INT)
            _encode_varint(value, out)
        else:
            out.append(_T_NEGINT)
            _encode_varint(-value, out)
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out.extend(struct.pack("<d", value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_T_STR)
        _encode_varint(len(raw), out)
        out.extend(raw)
    elif isinstance(value, bytes):
        out.append(_T_BYTES)
        _encode_varint(len(value), out)
        out.extend(value)
    elif isinstance(value, (list, tuple)):
        out.append(_T_LIST)
        _encode_varint(len(value), out)
        # Inline the int case: wire images are dominated by long lists of
        # small non-negative ints (PTE positions/flags), and a call into
        # _encode_value per element doubles the encode cost.  type() is
        # deliberate — bool is an int subclass but has its own tag.
        append = out.append
        for item in value:
            if type(item) is int and 0 <= item < 0x80:
                append(_T_INT)
                append(item)
            else:
                _encode_value(item, out)
    elif isinstance(value, dict):
        out.append(_T_DICT)
        _encode_varint(len(value), out)
        append = out.append
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"dict keys must be str, got {type(key).__name__}")
            raw = key.encode("utf-8")
            _encode_varint(len(raw), out)
            out.extend(raw)
            item = value[key]
            if type(item) is int and 0 <= item < 0x80:
                append(_T_INT)
                append(item)
            else:
                _encode_value(item, out)
    else:
        raise TypeError(f"cannot encode {type(value).__name__}")


def _decode_value(data: bytes, pos: int) -> tuple[Any, int]:
    if pos >= len(data):
        raise ValueError("truncated value")
    tag = data[pos]
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_BOOL:
        return bool(data[pos]), pos + 1
    if tag == _T_INT:
        return _decode_varint(data, pos)
    if tag == _T_NEGINT:
        value, pos = _decode_varint(data, pos)
        return -value, pos
    if tag == _T_FLOAT:
        return struct.unpack_from("<d", data, pos)[0], pos + 8
    if tag == _T_STR:
        length, pos = _decode_varint(data, pos)
        return data[pos : pos + length].decode("utf-8"), pos + length
    if tag == _T_BYTES:
        length, pos = _decode_varint(data, pos)
        return bytes(data[pos : pos + length]), pos + length
    if tag == _T_LIST:
        length, pos = _decode_varint(data, pos)
        items = []
        append = items.append
        end = len(data)
        # Mirror of the encode fast path: single-byte varint ints decoded
        # inline; everything else (including truncation at the buffer end)
        # falls through to the generic decoder.
        for _ in range(length):
            if pos + 1 < end and data[pos] == _T_INT and data[pos + 1] < 0x80:
                append(data[pos + 1])
                pos += 2
            else:
                item, pos = _decode_value(data, pos)
                append(item)
        return items, pos
    if tag == _T_DICT:
        length, pos = _decode_varint(data, pos)
        result = {}
        for _ in range(length):
            klen, pos = _decode_varint(data, pos)
            key = data[pos : pos + klen].decode("utf-8")
            pos += klen
            value, pos = _decode_value(data, pos)
            result[key] = value
        return result, pos
    raise ValueError(f"unknown tag {tag} at {pos - 1}")


def encode(value: Any) -> bytes:
    """Encode a value to bytes."""
    out = bytearray()
    _encode_value(value, out)
    return bytes(out)


def decode(data: bytes) -> Any:
    """Decode bytes produced by :func:`encode`."""
    value, pos = _decode_value(data, 0)
    if pos != len(data):
        raise ValueError(f"{len(data) - pos} trailing bytes")
    return value


@dataclass(frozen=True)
class CodecCostModel:
    """Virtual-time cost of (de)serialization.

    Encoding (field walking, varint packing) is slower per byte than
    decoding in protobuf-like formats for large payloads dominated by raw
    page data; both also pay a small per-record overhead.
    """

    encode_ns_per_byte: float = 0.80
    decode_ns_per_byte: float = 0.28
    per_record_ns: float = 250.0

    def encode_ns(self, nbytes: int, nrecords: int = 1) -> float:
        return nbytes * self.encode_ns_per_byte + nrecords * self.per_record_ns

    def decode_ns(self, nbytes: int, nrecords: int = 1) -> float:
        return nbytes * self.decode_ns_per_byte + nrecords * self.per_record_ns


class Codec:
    """Bundles the encoding functions with a cost model."""

    def __init__(self, costs: CodecCostModel | None = None) -> None:
        self.costs = costs or CodecCostModel()

    def encode(self, value: Any) -> bytes:
        return encode(value)

    def decode(self, data: bytes) -> Any:
        return decode(data)

    def encode_with_cost(self, value: Any, nrecords: int = 1) -> tuple[bytes, float]:
        data = encode(value)
        return data, self.costs.encode_ns(len(data), nrecords)

    def decode_with_cost(self, data: bytes, nrecords: int = 1) -> tuple[Any, float]:
        return decode(data), self.costs.decode_ns(len(data), nrecords)


__all__ = ["Codec", "CodecCostModel", "encode", "decode"]
