"""Byte coercion, input helpers, and the one way bytes are printed.

The whole library operates on raw bytes: positions are byte offsets and
every comparison is a byte-equality test. Strings are accepted at the API
boundary and encoded as UTF-8. Wherever the package prints bytes (labels,
anchors, table keys, report captions) it prints ``show``; error messages
are text and take only its escape table.
"""
import os
import sys

from .errors import IoFailure


def as_bytes(value) -> bytes:
    """Coerce ``str``/``bytes``/``bytearray`` to ``bytes`` (str via UTF-8)."""
    if isinstance(value, bytes):
        return value
    if isinstance(value, bytearray):
        return bytes(value)
    if isinstance(value, str):
        return value.encode("utf-8")
    raise TypeError(f"expected str or bytes, got {type(value).__name__}")


def byte_value(c) -> int:
    """Coerce a single character (str/bytes of length 1, or int 0..255) to its byte value."""
    if isinstance(c, int):
        if not 0 <= c <= 255:
            raise ValueError(f"byte value out of range: {c}")
        return c
    b = as_bytes(c)
    if len(b) != 1:
        raise ValueError(f"expected a single byte, got {len(b)} bytes")
    return b[0]


ESCAPES = {c: "".join(map("\\x{:02x}".format, chr(c).encode()))
           for c in (*range(0x20), 0x7F, 0x85, 0x2028, 0x2029)}


def show(data: bytes) -> str:
    """The bytes as UTF-8 text, with a backslash written as ``\\\\``, a
    byte that is not UTF-8 as ``\\xNN``, and each character of
    ``ESCAPES`` (0x00-0x1f, 0x7f, U+0085, U+2028, U+2029: what
    ``str.splitlines`` breaks on) as one ``\\xNN`` per UTF-8 byte. The
    result fits on one line and names exactly one byte string."""
    return data.replace(b"\\", b"\\\\").decode("utf-8", "backslashreplace").translate(ESCAPES)


def read_source(source, what: str) -> tuple[bytes, str]:
    """Read all bytes from a path, '-' (stdin), or a readable stream.

    Returns the bytes and the source's name: the path, ``<stdin>``, or
    the stream's ``name`` (else ``<stream>``). Text streams are encoded
    as UTF-8. Raises IoFailure, naming ``what``, when reading fails.
    """
    try:
        if hasattr(source, "read"):
            data = source.read()
            name = str(getattr(source, "name", "<stream>"))
        elif str(source) == "-":
            if sys.stdin is None:
                raise IoFailure(f"cannot read {what} from -: stdin is closed")
            data = sys.stdin.buffer.read()
            name = "<stdin>"
        else:
            # fspath rejects an int, which open would take as a file descriptor.
            with open(os.fspath(source), "rb") as fh:
                data = fh.read()
            name = str(source)
    except OSError as exc:
        raise IoFailure(f"cannot read {what} from {source}: {exc}") from exc
    return as_bytes(data), name
