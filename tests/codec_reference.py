"""The scalar codec, kept as the byte-for-byte reference for
:mod:`repro.serial.codec`.

One recursive call per value and one Python step per varint byte: this is
the encoding's definition.  The library encodes integer arrays and
record-shaped dicts in bulk; the tests hold it to these bytes and values.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.serial.codec import (
    _T_BOOL,
    _T_BYTES,
    _T_DICT,
    _T_FLOAT,
    _T_INT,
    _T_LIST,
    _T_NEGINT,
    _T_NONE,
    _T_STR,
    _decode_varint,
    _encode_varint,
)


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
        for item in value:
            _encode_value(item, out)
    elif isinstance(value, dict):
        out.append(_T_DICT)
        _encode_varint(len(value), out)
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"dict keys must be str, got {type(key).__name__}")
            raw = key.encode("utf-8")
            _encode_varint(len(raw), out)
            out.extend(raw)
            _encode_value(value[key], out)
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
        for _ in range(length):
            item, pos = _decode_value(data, pos)
            items.append(item)
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
    out = bytearray()
    _encode_value(value, out)
    return bytes(out)


def decode(data: bytes) -> Any:
    value, pos = _decode_value(data, 0)
    if pos != len(data):
        raise ValueError(f"{len(data) - pos} trailing bytes")
    return value
