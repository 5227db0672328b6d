"""Property-based tests: the codec round-trips arbitrary values, and its
array and record fast paths write and read exactly the scalar reference's
bytes and values."""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serial.codec import _MIN_VECTOR_LIST, decode, encode
from tests import codec_reference as reference

pytestmark = pytest.mark.prop

# Values the codec supports: scalars composed into lists and string-keyed
# dicts, nested a few levels deep.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(st.text(max_size=10), children, max_size=6),
    ),
    max_leaves=25,
)

int64s = st.integers(min_value=-(2**63), max_value=2**63 - 1)
# Past int64 on both sides: varints of 10 bytes and more.
wide_ints = st.one_of(int64s, st.integers(min_value=-(2**70), max_value=2**70))
# Long enough to take the vectorized list decode.
int_runs = st.lists(wide_ints, min_size=_MIN_VECTOR_LIST, max_size=2 * _MIN_VECTOR_LIST)
# Field names repeat across dicts, so the key cache is hit; one is longer
# than 127 bytes, so its length prefix takes two bytes.
record_keys = st.sampled_from(
    ["start_vpn", "npages", "label", "path", "ünïcode", "k" * 200]
)
record_values = st.one_of(
    st.none(), st.booleans(), wide_ints, st.text(max_size=200), st.binary(max_size=8)
)
records = st.dictionaries(record_keys, record_values, max_size=6)
int_arrays = st.lists(int64s, max_size=40).map(lambda xs: np.array(xs, dtype=np.int64))
wide_values = st.recursive(
    st.one_of(scalars, wide_ints, int_arrays, records),
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        int_runs,
        st.lists(records, max_size=5),
        st.dictionaries(st.text(max_size=10), children, max_size=6),
    ),
    max_leaves=25,
)


def _as_lists(value):
    """The value the reference encodes in place of an int array."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_as_lists(v) for v in value]
    if isinstance(value, dict):
        return {k: _as_lists(v) for k, v in value.items()}
    return value


def _same(a, b) -> bool:
    """Equal values of identical types, dict key order included."""
    if type(a) is not type(b):
        return False
    if isinstance(a, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    return a == b


class TestCodecProperties:
    @given(values)
    @settings(max_examples=200)
    def test_roundtrip(self, value):
        decoded = decode(encode(value))
        assert decoded == value or _tuple_eq(decoded, value)

    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_varint_roundtrip(self, n):
        assert decode(encode(n)) == n

    @given(st.binary(max_size=1000))
    def test_bytes_payload_overhead_small(self, payload):
        assert len(encode(payload)) <= len(payload) + 6

    @given(values, values)
    def test_encoding_is_deterministic(self, a, b):
        assert encode(a) == encode(a)
        if encode(a) == encode(b):
            assert decode(encode(a)) == decode(encode(b))


class TestAgainstScalarReference:
    @given(st.lists(int64s, max_size=80))
    def test_int64_array_encodes_as_its_list(self, ints):
        data = encode(np.array(ints, dtype=np.int64))
        assert data == encode(ints) == reference.encode(ints)
        assert _same(decode(data), ints)

    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=40))
    def test_uint64_array_encodes_as_its_list(self, ints):
        assert encode(np.array(ints, dtype=np.uint64)) == reference.encode(ints)

    @given(wide_values)
    @settings(max_examples=300)
    def test_encoder_matches_reference(self, value):
        assert encode(value) == reference.encode(_as_lists(value))

    @given(wide_values)
    @settings(max_examples=300)
    def test_decoder_matches_reference(self, value):
        data = reference.encode(_as_lists(value))
        assert _same(decode(data), reference.decode(data))

    @given(int_runs, st.integers(min_value=0, max_value=2 * _MIN_VECTOR_LIST), values)
    def test_mixed_list_non_int_at_any_index(self, ints, at, other):
        mixed = ints[:at] + [other] + ints[at:]
        data = encode(mixed)
        assert data == reference.encode(mixed)
        assert _same(decode(data), reference.decode(data))

    @given(st.lists(records, max_size=8))
    def test_records_with_repeated_keys(self, rows):
        data = encode(rows)
        assert data == reference.encode(rows)
        assert _same(decode(data), rows)


def _tuple_eq(decoded, original):
    """Tuples encode as lists; treat them as equal on the way back."""
    if isinstance(original, tuple):
        return decoded == list(original)
    return False
