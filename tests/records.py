"""Read and rewrite cache record files, to damage them in tests.

A record file is one JSON header line, ``{"source", "key",
"body_blake2b"}``, then the body's JSON (see
:mod:`repro.sampler.trace_cache`).
"""

from __future__ import annotations

import hashlib
import json


def split(raw: bytes) -> tuple[dict, bytes]:
    """A record file's parsed header and its body bytes."""
    head, _, body = raw.partition(b"\n")
    return json.loads(head), body


def join(header: dict, body: bytes) -> bytes:
    return json.dumps(header).encode() + b"\n" + body


def with_header(raw: bytes, **fields) -> bytes:
    """``raw`` with ``fields`` changed in its header; the body stays."""
    header, body = split(raw)
    header.update(fields)
    return join(header, body)


def with_body(raw: bytes, edit, *, reseal: bool = False) -> bytes:
    """``raw`` with ``edit`` applied to its parsed body; ``reseal`` stores
    the edited body's checksum in the header, so only decoding can reject
    the record."""
    header, body = split(raw)
    value = json.loads(body)
    edit(value)
    body = json.dumps(value, separators=(",", ":")).encode()
    if reseal:
        header["body_blake2b"] = hashlib.blake2b(
            body, digest_size=16).hexdigest()
    return join(header, body)


def flip_a_body_byte(raw: bytes) -> bytes:
    """``raw`` with one bit of its body's last byte flipped."""
    return raw[:-1] + bytes([raw[-1] ^ 1])
