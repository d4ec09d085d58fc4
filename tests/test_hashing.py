"""Hashing utility tests: SipHash-2-4 vectors and digest helpers."""

from hypothesis import given, strategies as st

from repro.util.hashing import (
    DEFAULT_KEY,
    combine_digests,
    row_digest,
    siphash24,
    stable_digest,
    stable_hex_digest,
)

#: Official SipHash-2-4 test vectors (key 000102...0f, inputs 00..0e).
_REFERENCE_VECTORS = {
    0: 0x726FDB47DD0E0E31,
    1: 0x74F839C593DC67FD,
    2: 0x0D6C8009D9A94F5A,
    7: 0xAB0200F58B01D137,
    8: 0x93F5F5799A932462,
    15: 0xA129CA6149BE45E5,
}


def test_siphash_reference_vectors():
    key = (0x0706050403020100, 0x0F0E0D0C0B0A0908)
    for length, expected in _REFERENCE_VECTORS.items():
        assert siphash24(bytes(range(length)), key) == expected


def test_siphash_empty_input():
    assert siphash24(b"") == siphash24(b"")
    assert siphash24(b"") != siphash24(b"\x00")


def test_siphash_key_sensitivity():
    assert siphash24(b"data", (1, 2)) != siphash24(b"data", (2, 1))


def test_row_digest_deterministic_for_ints():
    row = (1, 2, 3, 0xFFFFFFFFFFFFFFFF)
    assert row_digest(row) == row_digest((1, 2, 3, 0xFFFFFFFFFFFFFFFF))


def test_row_digest_distinguishes_order():
    assert row_digest((1, 2)) != row_digest((2, 1))


def test_combine_digests_empty_vs_nonempty():
    assert combine_digests([]) != combine_digests([0])


def test_combine_digests_order_sensitive():
    assert combine_digests([1, 2]) != combine_digests([2, 1])


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=20))
def test_combine_digests_in_range(digests):
    value = combine_digests(digests)
    assert 0 <= value < 2**64


@given(st.binary(max_size=64))
def test_siphash_in_range_and_stable(data):
    value = siphash24(data)
    assert 0 <= value < 2**64
    assert siphash24(data) == value


def test_stable_hex_digest_known_answer():
    # Pins canonicalization + keyed BLAKE2b-64.  Every cache key is built
    # from this digest, and a pool worker must key exactly as its parent
    # does: the digest must not vary by process or platform.
    value = {"none": None, "flags": (True, False), "ints": (0, -1, 255, 2**64),
             "str": "µsampler", "bytes": b"\x00\xff",
             "set": frozenset({3, 1, 2}), "nested": [1, (2, {"k": b"v"})]}
    assert stable_hex_digest(value) == "35052e15b49e41f0"


def test_stable_digest_canonicalization():
    assert stable_digest({"a": 1, "b": 2}) == stable_digest({"b": 2, "a": 1})
    assert stable_digest({1, 2, 3}) == stable_digest(frozenset({3, 2, 1}))
    assert stable_digest(1) != stable_digest(b"\x01")
    assert stable_digest(True) != stable_digest(1)
    assert stable_digest("x", (1, 2)) != stable_digest("x", DEFAULT_KEY)
    assert len(stable_hex_digest(())) == 16


@given(st.binary(min_size=1, max_size=32))
def test_siphash_bit_flip_changes_hash(data):
    flipped = bytes([data[0] ^ 1]) + data[1:]
    assert siphash24(data) != siphash24(flipped)
