"""Byte coercion and input helpers.

The whole library operates on raw bytes: positions are byte offsets and
every comparison is a byte-equality test. Strings are accepted at the API
boundary and encoded as UTF-8.
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


def display_byte(b: int) -> str:
    """Printable form of a byte for reports: the character itself, or an escape."""
    if 0x20 <= b < 0x7F:
        return chr(b)
    return f"\\x{b:02x}"


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
