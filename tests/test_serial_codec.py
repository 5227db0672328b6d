"""Codec: round trips, sizes, cost model, integer arrays, truncation."""

import numpy as np
import pytest

from repro.serial.codec import _MIN_VECTOR_LIST, Codec, CodecCostModel, decode, encode

#: Long enough for the vectorized list decode.
LONG = _MIN_VECTOR_LIST + 16


class TestRoundTrips:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            1,
            -1,
            2**62,
            -(2**62),
            3.14159,
            "",
            "hello",
            "ünïcode ✓",
            b"",
            b"\x00\xff" * 100,
            [],
            [1, "two", 3.0, None],
            {},
            {"a": 1, "b": [2, {"c": b"x"}]},
        ],
    )
    def test_roundtrip(self, value):
        assert decode(encode(value)) == value

    def test_nested_structure(self):
        wire = {
            "fds": [{"fd": 3, "path": "/x", "flags": 0}],
            "regs": {"rip": 2**40, "fpu": b"\x00" * 512},
        }
        assert decode(encode(wire)) == wire

    def test_non_string_dict_key_rejected(self):
        with pytest.raises(TypeError):
            encode({1: "x"})

    def test_unencodable_type_rejected(self):
        with pytest.raises(TypeError):
            encode(object())

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ValueError):
            decode(encode(1) + b"\x00")

    def test_truncated_rejected(self):
        data = encode("hello world")
        with pytest.raises(ValueError):
            decode(data[:3])


# One sample per tag, plus each fast path: a long int list (vectorized
# decode), int arrays (vectorized encode) and record-shaped dicts.
TRUNCATION_SAMPLES = [
    None,
    True,
    False,
    300,
    -300,
    2**70,
    3.5,
    "hello",
    "ünï",
    b"\x00\xff\x10",
    [1, "two", 3.0, None],
    list(range(-20, LONG)),
    [2**63 + 1] * LONG,
    np.arange(0, 5000, 7),
    np.array([-(2**63), 2**63 - 1, 0, -1], dtype=np.int64),
    {"start_vpn": 5, "npages": 300, "label": "heap", "path": None, "perms": 3},
    {"k" * 200: "v" * 200, "neg": -4, "flag": True},
    {
        "leaves": [{"index": 1, "pos": np.arange(40), "flags": np.full(40, 0x63)}],
        "regs": {"rip": 2**40, "fpu": b"\x00" * 16},
        "ratio": 0.5,
    },
]


class TestTruncation:
    @pytest.mark.parametrize("value", TRUNCATION_SAMPLES, ids=repr)
    def test_every_cut_raises_value_error(self, value):
        data = encode(value)
        for cut in range(len(data)):
            with pytest.raises(ValueError):
                decode(data[:cut])

    @pytest.mark.parametrize("value", [True, 3.5, "hello world", b"payload!!"])
    def test_cut_scalar_reports_truncation(self, value):
        with pytest.raises(ValueError, match="truncated"):
            decode(encode(value)[:-1])


class TestIntArrays:
    def test_encodes_as_its_list(self):
        arr = np.array([0, 1, 127, 128, 300, -1, -(2**63), 2**63 - 1], dtype=np.int64)
        assert encode(arr) == encode(arr.tolist())
        assert decode(encode(arr)) == arr.tolist()

    def test_decodes_as_list_of_int(self):
        value = decode(encode(np.arange(50, dtype=np.int32)))
        assert type(value) is list
        assert all(type(v) is int for v in value)

    def test_uint64_past_int64_exact(self):
        ints = [2**64 - 1, 2**63, 0, 5]
        assert encode(np.array(ints, dtype=np.uint64)) == encode(ints)

    def test_empty(self):
        assert encode(np.empty(0, dtype=np.int64)) == encode([])

    @pytest.mark.parametrize(
        "arr",
        [
            np.array([True, False]),
            np.array([1.0, 2.0]),
            np.array([1, "x"], dtype=object),
            np.zeros((2, 2), dtype=np.int64),
        ],
        ids=["bool", "float", "object", "2-D"],
    )
    def test_other_arrays_rejected(self, arr):
        with pytest.raises(TypeError):
            encode(arr)

    def test_bad_tag_inside_int_run_rejected(self):
        # A continuation byte where element 10's tag belongs: the element
        # bounds past it must not be guessed from the bytes below 0x80.
        data = bytearray(encode([1] * LONG))
        data[2 + 2 * 10] = 0x81
        with pytest.raises(ValueError, match="unknown tag 129 at 22"):
            decode(bytes(data))

    def test_long_varints_fall_back_exactly(self):
        # 10-byte varints in a list long enough to try the vectorized decode.
        value = [2**63 + i for i in range(LONG)] + [-(2**64)] + list(range(LONG))
        assert decode(encode(value)) == value


class TestSizes:
    def test_varint_compactness(self):
        assert len(encode(1)) == 2  # tag + one byte
        assert len(encode(2**40)) < 10

    def test_bytes_dominated_by_payload(self):
        payload = b"\x00" * 4096
        assert len(encode(payload)) <= 4096 + 8


class TestCosts:
    def test_encode_slower_than_decode(self):
        costs = CodecCostModel()
        assert costs.encode_ns(1 << 20) > costs.decode_ns(1 << 20)

    def test_record_overhead(self):
        costs = CodecCostModel()
        assert costs.decode_ns(0, nrecords=10) == 10 * costs.per_record_ns

    def test_codec_wrappers(self):
        codec = Codec()
        data, encode_ns = codec.encode_with_cost({"x": 1})
        assert encode_ns > 0
        value, decode_ns = codec.decode_with_cost(data)
        assert value == {"x": 1}
        assert decode_ns > 0
