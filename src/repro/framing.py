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
module owns the byte layout and the checks every reader needs. A reader
names the buffers the body fills once it has seen the header, so the body
lands where the caller wants it with no intermediate copy.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zlib
from pathlib import Path
from typing import Callable, Iterable, Sequence

__all__ = ["PREFIX", "atomic_write", "frame", "read_frame"]

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


def read_frame(
    path: str | Path, magic: bytes, place: Callable[[bytes, int], Sequence]
) -> tuple[bytes, Sequence]:
    """Read the framed file at ``path`` into the buffers ``place`` names.

    After the prefix and header are read, ``place(header, body_length)``
    returns the writable, contiguous buffers the body fills, in order; they
    are filled with one ``os.readv``. Returns the header text and those
    buffers. Raises ``ValueError`` naming the first failed check: ``wrong
    magic``, ``truncated prefix``, ``header length past end of file``,
    ``body length mismatch`` (the buffers do not hold exactly the body) or
    ``checksum mismatch``. A buffer that is read-only or not contiguous
    raises ``TypeError``; anything ``place`` raises propagates, and so does
    an ``OSError`` from opening or reading the file.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        size = os.fstat(fd).st_size
        prefix = os.read(fd, PREFIX.size)
        if not prefix.startswith(magic):
            raise ValueError("wrong magic")
        if len(prefix) < PREFIX.size:
            raise ValueError("truncated prefix")
        _, crc, hlen = PREFIX.unpack(prefix)
        body_length = size - PREFIX.size - hlen
        if body_length < 0:
            raise ValueError("header length past end of file")
        header = os.read(fd, hlen)
        buffers = place(header, body_length)
        views = [memoryview(buf) for buf in buffers]
        if any(view.readonly or not view.c_contiguous for view in views):
            raise TypeError("a frame body fills only writable, contiguous buffers")
        if sum(view.nbytes for view in views) != body_length:
            raise ValueError("body length mismatch")
        if os.readv(fd, views) != body_length:
            raise ValueError("body length mismatch")
    finally:
        os.close(fd)
    check = zlib.crc32(header, zlib.crc32(prefix[_CRC_START:]))
    for view in views:
        check = zlib.crc32(view, check)
    if check != crc:
        raise ValueError("checksum mismatch")
    return header, buffers
