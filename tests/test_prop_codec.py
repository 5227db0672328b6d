"""Property-based tests: the codec round-trips arbitrary values."""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serial.codec import decode, encode

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


def _tuple_eq(decoded, original):
    """Tuples encode as lists; treat them as equal on the way back."""
    if isinstance(original, tuple):
        return decoded == list(original)
    return False
