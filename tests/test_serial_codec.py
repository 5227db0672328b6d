"""Codec: round trips, sizes, cost model."""

import pytest

from repro.serial.codec import Codec, CodecCostModel, decode, encode


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
