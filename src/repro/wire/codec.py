"""Canonical binary encoding.

The formal model treats message contents as fields built by concatenation
and encryption.  For the concrete protocol those concatenations must be
*injective*: two different tuples of byte strings must never encode to
the same bytes, or an attacker could shift boundaries to confuse an
endpoint (a classic concrete-protocol bug that symbolic models assume
away).  ``encode_fields``/``decode_fields`` give that guarantee with
4-byte length prefixes.

They are the reference and the error path: a hot-path body has a fixed
layout, packed after a kept :func:`field_head` and, where that pays,
read by a :func:`fixed_layout` parse; ``test_codec_props.py`` holds
each layout to them.
"""

from __future__ import annotations

import struct
from collections.abc import Callable, Iterable, Sequence
from functools import lru_cache

from repro.exceptions import CodecError

MAX_FIELD_LEN = 1 << 24  # 16 MiB per field: generous but bounded

U32 = struct.Struct(">I")
COUNT_LEN = struct.Struct(">II")  # a list's count, its first length


def encode_fields(fields: Iterable[bytes]) -> bytes:
    """Encode a sequence of byte strings injectively.

    Layout: ``count:u32 (len:u32 body)*`` — unambiguous and
    self-delimiting, so decoding is a total inverse on valid inputs.
    """
    pack = U32.pack
    parts = [b""]  # the count, known once the fields have been walked
    for f in fields:
        if not isinstance(f, (bytes, bytearray)):
            raise CodecError(f"field must be bytes, got {type(f).__name__}")
        if len(f) > MAX_FIELD_LEN:
            raise CodecError("field too long")
        parts.append(pack(len(f)))
        parts.append(f)
    parts[0] = pack(len(parts) // 2)
    return b"".join(parts)


def decode_fields(data: bytes, expect: int | None = None) -> list[bytes]:
    """Decode :func:`encode_fields` output.

    ``expect`` asserts the field count, turning malformed or truncated
    input into a :class:`CodecError` instead of an index error later.
    Trailing garbage is rejected: the encoding must consume all input.
    """
    size = len(data)
    if size < 4:
        raise CodecError("truncated field list (missing count)")
    unpack_from = U32.unpack_from
    (count,) = unpack_from(data, 0)
    offset = 4
    fields: list[bytes] = []
    for _ in range(count):
        if offset + 4 > size:
            raise CodecError("truncated field list (missing length)")
        (length,) = unpack_from(data, offset)
        offset += 4
        if length > MAX_FIELD_LEN:
            raise CodecError("field too long")
        end = offset + length
        if end > size:
            raise CodecError("truncated field body")
        fields.append(data[offset:end])
        offset = end
    if offset != size:
        raise CodecError("trailing bytes after field list")
    if expect is not None and count != expect:
        raise CodecError(f"expected {expect} fields, got {count}")
    return fields


@lru_cache(maxsize=4096)
def field_head(count: int, *fields: bytes | str) -> bytes:
    """How ``encode_fields`` starts a ``count``-field list with ``fields``
    (a ``str`` as UTF-8): a layout's constant part, kept per key."""
    return U32.pack(count) + encode_fields(
        encode_str(f) if isinstance(f, str) else f for f in fields)[4:]


def encode_after(head: bytes, *fields: bytes) -> bytes:
    """``encode_fields`` of a list: its :func:`field_head`, then the rest."""
    parts = [head]
    for f in fields:
        if len(f) > MAX_FIELD_LEN:
            raise CodecError("field too long")
        parts += (U32.pack(len(f)), f)
    return b"".join(parts)


def fixed_layout(reference: Callable) -> Callable:
    """Decorate a layout's direct parse: input it does not fit (it returns
    None or raises ``struct.error`` / ``UnicodeDecodeError``) goes to
    ``reference``, the generic-codec parse, which names the fault."""
    def bind(fast: Callable) -> Callable:
        def parse(data, *args):
            try:
                parsed = fast(data, *args)
            except (struct.error, UnicodeDecodeError):
                parsed = None
            return reference(data, *args) if parsed is None else parsed
        parse.__doc__, parse.fast, parse.reference = fast.__doc__, fast, reference
        return parse
    return bind


def encode_str(s: str) -> bytes:
    """UTF-8 encode a string field."""
    return s.encode("utf-8")


def decode_str(data: bytes) -> str:
    """UTF-8 decode a string field."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError("field is not valid UTF-8") from exc


def encode_str_list(items: Sequence[str]) -> bytes:
    """Encode a list of strings as a nested field list."""
    return encode_fields(encode_str(s) for s in items)


def decode_str_list(data: bytes) -> list[str]:
    """Decode :func:`encode_str_list` output."""
    return [decode_str(f) for f in decode_fields(data)]
