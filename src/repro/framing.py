"""One on-disk frame and one atomic writer for every file the program persists.

Sweep chunks (:mod:`repro.engine.cache`) and monitor checkpoints
(:mod:`repro.live.checkpoint`) are both one checksummed frame::

    magic   8 bytes   chosen by the caller, e.g. b"RSWPCOL1"
    crc     uint32 LE CRC-32 of every byte after this field
    hlen    uint32 LE length of the header that follows
    header  hlen bytes of JSON text, space-padded so the body starts at a
            multiple of 64 bytes
    body    raw bytes whose layout the header describes

Each caller owns what its header says and how its body is cut up; this
module owns the byte layout and the checks every reader needs.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zlib
from pathlib import Path
from typing import Iterable

__all__ = ["PREFIX", "atomic_write", "frame", "unframe"]

#: Fixed prefix of a framed file: magic, CRC-32, header length.
PREFIX = struct.Struct("<8sII")
#: The checksum covers every byte after the magic and the CRC field itself.
_CRC_START = 12
_BODY_ALIGN = 64


def atomic_write(path: Path, buffers: Iterable) -> None:
    """Publish the concatenated ``buffers`` as ``path`` via a temp file.

    The temp file is created beside ``path`` with a unique name (mode 0600)
    and moved over it with ``os.replace``, so readers see the old file or
    the whole new one, never a partial write, and concurrent writers of one
    path never share a temp file. If writing fails, the temp file is
    removed and the error propagates unchanged.
    """
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            for buf in buffers:
                fh.write(buf)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def frame(magic: bytes, header: str, body: Iterable) -> list:
    """The buffers of one framed file: prefix, padded ``header``, ``body``.

    ``header`` is JSON text; the CRC is accumulated buffer by buffer, so
    the body is never joined into one copy.
    """
    text = header.encode()
    text += b" " * (-(PREFIX.size + len(text)) % _BODY_ALIGN)
    checked = [struct.pack("<I", len(text)), text, *body]
    crc = 0
    for buf in checked:
        crc = zlib.crc32(buf, crc)
    return [magic, struct.pack("<I", crc), *checked]


def unframe(data: bytes, magic: bytes) -> tuple[bytes, memoryview]:
    """The header text and a view of the body of a framed file.

    Raises ``ValueError`` naming the first failed check: ``wrong magic``,
    ``truncated prefix``, ``header length past end of file`` or
    ``checksum mismatch``.
    """
    if not data.startswith(magic):
        raise ValueError("wrong magic")
    if len(data) < PREFIX.size:
        raise ValueError("truncated prefix")
    _, crc, hlen = PREFIX.unpack_from(data)
    start = PREFIX.size + hlen
    if start > len(data):
        raise ValueError("header length past end of file")
    view = memoryview(data)
    if zlib.crc32(view[_CRC_START:]) != crc:
        raise ValueError("checksum mismatch")
    return data[PREFIX.size : start], view[start:]
