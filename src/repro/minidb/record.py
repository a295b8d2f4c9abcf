"""Binary row encoding for the paged heap (``struct``-packed records).

A stored heap record is the byte string::

    <H n_values> (<B tag> payload)*

with one tagged payload per column value:

========  =======================  ==========================
tag       python value             payload
========  =======================  ==========================
``NULL``  ``None``                 (empty)
``INT``   ``int`` in i64 range     ``<q``
``REAL``  ``float``                ``<d``
``TEXT``  ``str``                  ``<I len`` + UTF-8 bytes
``BIG``   ``int`` beyond i64       ``<I len`` + decimal ASCII
========  =======================  ==========================

The codec is symmetric (``decode_values(encode_values(v)) == v``) for
every value minidb storage produces: affinity coercion reduces cells to
``None`` / ``int`` / ``float`` / ``str`` and refuses anything else.
Unbounded Python ints round-trip via the ``BIG`` decimal-text tag, so
overflow never silently truncates.  Any other tag (tag 5 once held JSON
lists and objects) fails to decode with :class:`DatabaseError`.

Records are storage-layer bytes only — the WAL stays JSON (logical,
human-auditable); pages hold these packed rows (compact, offset-seekable).
"""

from __future__ import annotations

import struct

from repro.errors import DatabaseError

TAG_NULL = 0
TAG_INT = 1
TAG_REAL = 2
TAG_TEXT = 3
TAG_BIG = 4

_COUNT = struct.Struct("<H")
_TAG = struct.Struct("<B")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_LEN = struct.Struct("<I")

_I64_MIN = -(2 ** 63)
_I64_MAX = 2 ** 63 - 1


def encode_values(values: list) -> bytes:
    """Pack one row's values into a heap record payload."""
    parts = [_COUNT.pack(len(values))]
    for value in values:
        if value is None:
            parts.append(_TAG.pack(TAG_NULL))
        elif isinstance(value, int):
            if _I64_MIN <= value <= _I64_MAX:
                parts.append(_TAG.pack(TAG_INT) + _I64.pack(value))
            else:
                blob = str(value).encode("ascii")
                parts.append(_TAG.pack(TAG_BIG) + _LEN.pack(len(blob)) + blob)
        elif isinstance(value, float):
            parts.append(_TAG.pack(TAG_REAL) + _F64.pack(value))
        elif isinstance(value, str):
            blob = value.encode("utf-8")
            parts.append(_TAG.pack(TAG_TEXT) + _LEN.pack(len(blob)) + blob)
        else:
            raise DatabaseError(
                f"cannot store value of type {type(value).__name__!r}")
    return b"".join(parts)


def decode_values(buf: bytes, offset: int = 0) -> list:
    """Unpack a heap record payload back into a list of values."""
    (count,) = _COUNT.unpack_from(buf, offset)
    offset += _COUNT.size
    values: list = []
    for _ in range(count):
        (tag,) = _TAG.unpack_from(buf, offset)
        offset += _TAG.size
        if tag == TAG_NULL:
            values.append(None)
        elif tag == TAG_INT:
            (value,) = _I64.unpack_from(buf, offset)
            offset += _I64.size
            values.append(value)
        elif tag == TAG_REAL:
            (value,) = _F64.unpack_from(buf, offset)
            offset += _F64.size
            values.append(value)
        elif tag in (TAG_TEXT, TAG_BIG):
            (length,) = _LEN.unpack_from(buf, offset)
            offset += _LEN.size
            blob = bytes(buf[offset:offset + length])
            offset += length
            values.append(blob.decode("utf-8") if tag == TAG_TEXT else int(blob))
        else:
            raise DatabaseError(f"corrupt heap record: unknown value tag {tag}")
    return values
