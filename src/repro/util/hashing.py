"""Deterministic hashing utilities.

The paper hashes each microarchitectural iteration snapshot to a 64-bit
scalar using Python's default SipHash.  Python's own ``hash()`` over bytes is
salted per process, so this module provides an explicit, keyed SipHash-2-4
implementation whose output is stable across runs and machines.

For speed, per-cycle state rows are first reduced with :func:`row_digest`
(CPython's deterministic tuple-of-ints hash, computed in C) and the final
per-iteration hash is SipHash-2-4 over the packed row digests.

Content addressing (trace-cache and checkpoint keys) is a separate concern:
:func:`stable_digest` canonicalizes plain values into a type-tagged byte
stream and hashes it with keyed BLAKE2b-64 from :mod:`hashlib` — C speed,
where the pure-Python SipHash would cost tens of milliseconds per key on a
large program image.  Snapshots stay on SipHash-2-4, as in the paper.
"""

from __future__ import annotations

import hashlib
import struct

_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Fixed 128-bit SipHash key: the analysis must be reproducible run to run.
DEFAULT_KEY = (0x0706050403020100, 0x0F0E0D0C0B0A0908)


def _siprounds(n: int, v0: int, v1: int, v2: int, v3: int,
               _M: int = _MASK64) -> tuple[int, int, int, int]:
    """``n`` SipRounds with the rotations inlined (cold path helper)."""
    for _ in range(n):
        v0 = (v0 + v1) & _M
        v1 = (((v1 << 13) | (v1 >> 51)) & _M) ^ v0
        v0 = ((v0 << 32) | (v0 >> 32)) & _M
        v2 = (v2 + v3) & _M
        v3 = (((v3 << 16) | (v3 >> 48)) & _M) ^ v2
        v0 = (v0 + v3) & _M
        v3 = (((v3 << 21) | (v3 >> 43)) & _M) ^ v0
        v2 = (v2 + v1) & _M
        v1 = (((v1 << 17) | (v1 >> 47)) & _M) ^ v2
        v2 = ((v2 << 32) | (v2 >> 32)) & _M
    return v0, v1, v2, v3


def siphash24(data: bytes, key: tuple[int, int] = DEFAULT_KEY) -> int:
    """SipHash-2-4 of ``data`` with a 128-bit ``key``; returns a 64-bit int.

    This is the innermost hash of every finalized snapshot, so the word loop
    decodes all message words with one ``struct.unpack_from`` and runs its
    two SipRounds inline — no per-rotation function calls.
    """
    k0, k1 = key
    _M = _MASK64
    v0 = k0 ^ 0x736F6D6570736575
    v1 = k1 ^ 0x646F72616E646F6D
    v2 = k0 ^ 0x6C7967656E657261
    v3 = k1 ^ 0x7465646279746573

    length = len(data)
    nwords = length >> 3
    if nwords:
        for m in struct.unpack_from(f"<{nwords}Q", data):
            v3 ^= m
            # SipRound x2, inlined.
            v0 = (v0 + v1) & _M
            v1 = (((v1 << 13) | (v1 >> 51)) & _M) ^ v0
            v0 = ((v0 << 32) | (v0 >> 32)) & _M
            v2 = (v2 + v3) & _M
            v3 = (((v3 << 16) | (v3 >> 48)) & _M) ^ v2
            v0 = (v0 + v3) & _M
            v3 = (((v3 << 21) | (v3 >> 43)) & _M) ^ v0
            v2 = (v2 + v1) & _M
            v1 = (((v1 << 17) | (v1 >> 47)) & _M) ^ v2
            v2 = ((v2 << 32) | (v2 >> 32)) & _M
            v0 = (v0 + v1) & _M
            v1 = (((v1 << 13) | (v1 >> 51)) & _M) ^ v0
            v0 = ((v0 << 32) | (v0 >> 32)) & _M
            v2 = (v2 + v3) & _M
            v3 = (((v3 << 16) | (v3 >> 48)) & _M) ^ v2
            v0 = (v0 + v3) & _M
            v3 = (((v3 << 21) | (v3 >> 43)) & _M) ^ v0
            v2 = (v2 + v1) & _M
            v1 = (((v1 << 17) | (v1 >> 47)) & _M) ^ v2
            v2 = ((v2 << 32) | (v2 >> 32)) & _M
            v0 ^= m
    tail = data[nwords << 3:]
    m = (length & 0xFF) << 56
    m |= int.from_bytes(tail, "little")
    v3 ^= m
    v0, v1, v2, v3 = _siprounds(2, v0, v1, v2, v3)
    v0 ^= m
    v2 ^= 0xFF
    v0, v1, v2, v3 = _siprounds(4, v0, v1, v2, v3)
    return (v0 ^ v1 ^ v2 ^ v3) & _M


def row_digest(row: tuple) -> int:
    """Deterministic 64-bit digest of one state row (a tuple of ints).

    CPython's tuple hash over ints does not depend on ``PYTHONHASHSEED``
    (only str/bytes hashing is salted), so this is stable across runs while
    running at C speed.
    """
    return hash(row) & _MASK64


def pack_digests(digests) -> bytes:
    """Pack a sequence of 64-bit digests into their SipHash input bytes.

    One ``struct.pack`` call per iteration snapshot.  The packed form
    doubles as an exact memo key for :func:`combine_digests` results (the
    tracer's snapshot-level hash cache).
    """
    return struct.pack(f"<{len(digests)}Q", *digests)


def combine_digests(digests, key: tuple[int, int] = DEFAULT_KEY) -> int:
    """SipHash-2-4 over a sequence of 64-bit row digests."""
    return siphash24(struct.pack(f"<{len(digests)}Q", *digests), key)


# -- content addressing -------------------------------------------------------
#
# The trace cache (repro.sampler.trace_cache) keys simulation outputs by
# *content*: the assembled program, the per-run input patches and the core
# configuration.  These helpers canonicalize arbitrary nestings of the plain
# values those objects are made of into a type-tagged byte stream, so that
# e.g. the int 1 and the bytes b"\x01" can never collide, and dict ordering
# never matters.


def _canonical_bytes(value, out: list) -> None:
    if value is None:
        out.append(b"N")
    elif value is True:
        out.append(b"T")
    elif value is False:
        out.append(b"F")
    elif isinstance(value, int):
        raw = value.to_bytes((value.bit_length() + 8) // 8 + 1,
                             "little", signed=True)
        out.append(b"i" + len(raw).to_bytes(4, "little") + raw)
    elif isinstance(value, float):
        out.append(b"f" + struct.pack("<d", value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(b"s" + len(raw).to_bytes(8, "little") + raw)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        out.append(b"b" + len(raw).to_bytes(8, "little") + raw)
    elif isinstance(value, (tuple, list)):
        out.append(b"(" + len(value).to_bytes(8, "little"))
        for item in value:
            _canonical_bytes(item, out)
        out.append(b")")
    elif isinstance(value, (frozenset, set)):
        encoded = []
        for item in value:
            chunk: list = []
            _canonical_bytes(item, chunk)
            encoded.append(b"".join(chunk))
        out.append(b"{" + len(encoded).to_bytes(8, "little"))
        out.extend(sorted(encoded))
        out.append(b"}")
    elif isinstance(value, dict):
        encoded = []
        for key, item in value.items():
            chunk = []
            _canonical_bytes(key, chunk)
            _canonical_bytes(item, chunk)
            encoded.append(b"".join(chunk))
        out.append(b"d" + len(encoded).to_bytes(8, "little"))
        out.extend(sorted(encoded))
        out.append(b"e")
    else:
        raise TypeError(
            f"cannot canonicalize {type(value).__name__!r} for hashing"
        )


def stable_digest(value, key: tuple[int, int] = DEFAULT_KEY) -> int:
    """Deterministic 64-bit digest of a nesting of plain Python values.

    Supports None/bool/int/float/str/bytes and tuples/lists/sets/dicts
    thereof.  Unlike :func:`row_digest` this is independent of CPython's
    hash implementation and safe to persist across interpreter versions.
    The canonical stream is hashed with BLAKE2b-64 keyed by the packed
    ``key``.
    """
    out: list = []
    _canonical_bytes(value, out)
    digest = hashlib.blake2b(b"".join(out), digest_size=8,
                             key=struct.pack("<2Q", *key)).digest()
    return int.from_bytes(digest, "little")


def stable_hex_digest(value, key: tuple[int, int] = DEFAULT_KEY) -> str:
    """:func:`stable_digest` rendered as a fixed-width hex string."""
    return f"{stable_digest(value, key):016x}"
