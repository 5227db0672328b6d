"""A protobuf-like tag-length-value codec.

CRIU serializes checkpoint images with Protocol Buffers; we implement a
compact TLV encoding with the same cost characteristics: varint integers,
length-prefixed strings/bytes/messages, and a byte-accurate size so the
mechanisms can charge serialization time proportionally to real encoded
volume.

The encoding round-trips Python values built from ``int``, ``float``,
``str``, ``bytes``, ``bool``, ``None``, ``list`` and ``dict`` (string keys).
A one-dimensional integer ``numpy.ndarray`` is accepted too: it encodes to
exactly the bytes of the list of its elements, and so decodes as a
``list``.  Bool, float and object arrays are refused.

Wire images are mostly long int arrays (PTE positions and flags) and
record-shaped dicts (VMAs, pagemaps).  The encoder writes an int array's
tags and varints in one vectorized pass, and the decoder parses an all-int
list the same way; a dict writes its keys from a cache of their encoded
form and its small int, str and ``None`` fields inline.  The bytes are the
scalar encoding's, value by value (``tests/codec_reference.py`` holds that
definition).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any

import numpy as np

_T_NONE = 0
_T_INT = 1
_T_FLOAT = 2
_T_STR = 3
_T_BYTES = 4
_T_LIST = 5
_T_DICT = 6
_T_BOOL = 7
_T_NEGINT = 8

#: A magnitude below ``1 << 7k`` takes k varint bytes.
_VARINT_LIMITS = np.array([1 << (7 * k) for k in range(1, 10)], dtype=np.uint64)
#: Shorter lists decode element by element: below this numpy's fixed cost
#: per call outweighs the Python loop.
_MIN_VECTOR_LIST = 64
#: The tags of a tagged int.
_INT_TAGS = np.zeros(256, dtype=bool)
_INT_TAGS[[_T_INT, _T_NEGINT]] = True
#: A dict field's tag and value, for the single-byte ints.
_SMALL_INTS = [bytes((_T_INT, i)) for i in range(0x80)]
#: Each dict key's length-prefixed utf-8, as first encoded.  Keys are
#: record field names in practice; the bound keeps arbitrary keys from
#: growing it without limit.
_KEY_HEADS: dict[str, bytes] = {}
_KEY_HEADS_MAX = 4096


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


def _key_head(key: Any) -> bytes:
    if not isinstance(key, str):
        raise TypeError(f"dict keys must be str, got {type(key).__name__}")
    raw = key.encode("utf-8")
    head = bytearray()
    _encode_varint(len(raw), head)
    head += raw
    head = bytes(head)
    if len(_KEY_HEADS) < _KEY_HEADS_MAX:
        _KEY_HEADS[key] = head
    return head


def _encode_int_array(arr: np.ndarray, out: bytearray) -> None:
    """Encode a 1-D integer array as the list of its elements: every
    element's tag and varint written in one vectorized pass."""
    if arr.ndim != 1 or arr.dtype.kind not in "iu":
        raise TypeError(f"cannot encode a {arr.ndim}-D {arr.dtype} array")
    out.append(_T_LIST)
    _encode_varint(arr.size, out)
    if not arr.size:
        return
    mag = arr.astype(np.uint64)
    tags = _T_INT
    if arr.dtype.kind == "i":
        neg = arr < 0
        if neg.any():
            # Negating the two's-complement word gives the magnitude, also
            # for the int64 minimum.
            mag[neg] = -mag[neg]
            tags = np.where(neg, _T_NEGINT, _T_INT)
    width = np.searchsorted(_VARINT_LIMITS, mag, side="right") + 1
    ends = np.cumsum(width + 1)
    starts = ends - (width + 1)
    buf = np.empty(int(ends[-1]), dtype=np.uint8)
    buf[starts] = tags
    for j in range(int(width.max())):
        group = (mag >> np.uint64(7 * j)).astype(np.uint8) & 0x7F
        group[width > j + 1] |= 0x80
        at = starts + (1 + j)
        if j:
            live = width > j
            at, group = at[live], group[live]
        buf[at] = group
    out += buf.data


def _decode_ints(data: bytes, pos: int, n: int) -> tuple[list, int]:
    """Decode the leading tagged ints of an ``n``-element list at ``pos``.

    Tags and varint terminators are the only bytes below 0x80 in a run of
    ints, so the first ``2n`` such bytes bound every element.  Returns the
    ints up to the first element that is not a tagged int of at most 9
    varint bytes (the caller decodes the rest one by one), and the
    position after them.
    """
    # Scan room for 3-byte varints first, and for 9-byte ones if short.
    for room in (4 * n, 10 * n):
        window = np.frombuffer(data, np.uint8, min(len(data) - pos, room), pos)
        low = np.flatnonzero(window < 0x80)[: 2 * n]
        if low.size == 2 * n or window.size < room:
            break
    tags, stops = low[0 : low.size - 1 : 2], low[1::2]
    width = stops - tags
    kinds = window[tags]
    ok = _INT_TAGS[kinds] & (width <= 9)
    ok[1:] &= tags[1:] == stops[:-1] + 1
    if not ok.all():
        m = int(ok.argmin())
        tags, width, kinds = tags[:m], width[:m], kinds[:m]
    if not tags.size:
        return [], pos
    values = (window[tags + 1] & 0x7F).astype(np.int64)
    for j in range(1, int(width.max())):
        live = np.flatnonzero(width > j)
        values[live] |= (window[tags[live] + (1 + j)] & 0x7F).astype(np.int64) << (7 * j)
    neg = kinds == _T_NEGINT
    if neg.any():
        values[neg] = -values[neg]
    return values.tolist(), pos + int(tags[-1] + width[-1]) + 1


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
        heads = _KEY_HEADS
        for key, item in value.items():
            head = heads.get(key)
            out += head if head is not None else _key_head(key)
            # Record fields inline.  type() is deliberate: bool and enum
            # members subclass int/str, and bool has its own tag.
            kind = type(item)
            if kind is int and item >= 0:
                if item < 0x80:
                    out += _SMALL_INTS[item]
                else:
                    out.append(_T_INT)
                    _encode_varint(item, out)
            elif kind is str:
                raw = item.encode("utf-8")
                out.append(_T_STR)
                _encode_varint(len(raw), out)
                out += raw
            elif item is None:
                out.append(_T_NONE)
            else:
                _encode_value(item, out)
    elif isinstance(value, np.ndarray):
        _encode_int_array(value, out)
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
    if tag == _T_STR or tag == _T_BYTES:
        length, pos = _decode_varint(data, pos)
        end = pos + length
        if end > len(data):
            raise ValueError(f"truncated {'str' if tag == _T_STR else 'bytes'}")
        raw = data[pos:end]
        return (raw.decode("utf-8") if tag == _T_STR else bytes(raw)), end
    if tag == _T_LIST:
        length, pos = _decode_varint(data, pos)
        items: list = []
        if length >= _MIN_VECTOR_LIST and data[pos] in (_T_INT, _T_NEGINT):
            items, pos = _decode_ints(data, pos, length)
        append = items.append
        for _ in range(length - len(items)):
            item, pos = _decode_value(data, pos)
            append(item)
        return items, pos
    if tag == _T_DICT:
        length, pos = _decode_varint(data, pos)
        result = {}
        end = len(data)
        for _ in range(length):
            klen = data[pos]
            if klen < 0x80:
                pos += 1
            else:
                klen, pos = _decode_varint(data, pos)
            at = pos + klen
            if at > end:
                raise ValueError("truncated dict key")
            key = data[pos:at].decode("utf-8")
            # Mirror of the encoder's inline fields; the rest recurse.
            kind = data[at]
            if kind == _T_INT and data[at + 1] < 0x80:
                result[key] = data[at + 1]
                pos = at + 2
            elif kind == _T_STR and data[at + 1] < 0x80:
                pos = at + 2 + data[at + 1]
                if pos > end:
                    raise ValueError("truncated str")
                result[key] = data[at + 2 : pos].decode("utf-8")
            elif kind == _T_NONE:
                result[key] = None
                pos = at + 1
            else:
                result[key], pos = _decode_value(data, at)
        return result, pos
    raise ValueError(f"unknown tag {tag} at {pos - 1}")


def encode(value: Any) -> bytes:
    """Encode a value to bytes."""
    out = bytearray()
    _encode_value(value, out)
    return bytes(out)


def decode(data: bytes) -> Any:
    """Decode bytes produced by :func:`encode`.

    Malformed input, truncated anywhere included, raises ``ValueError``.
    """
    try:
        value, pos = _decode_value(data, 0)
    except (IndexError, struct.error):
        # An inline read (bool byte, float, dict field) ran off the end.
        raise ValueError("truncated input") from None
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
