"""One on-disk frame, and its two writers, for every file the program persists.

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

The two writers differ in what a reader may see during a write:

* :func:`atomic_write` publishes a file once under its name (a sweep chunk,
  a store's ``spec.json``): a temp file beside it, then a rename, so a
  reader sees the whole file or none.
* :func:`write_in_place` rewrites one file over and over (a checkpoint
  slot): no temp file and no rename. On ext4 a rename over an existing
  file makes the kernel allocate and start writing back the new data at
  once, about half the cost of a small write. A reader can see a torn
  frame mid-write, so the caller keeps a second file with the previous
  frame and reads the newer one that passes every check.
"""

from __future__ import annotations

import fcntl
import os
import struct
import tempfile
import zlib
from pathlib import Path
from typing import Callable, Iterable, Sequence

__all__ = ["PREFIX", "atomic_write", "frame", "read_frame", "write_in_place"]

#: Fixed prefix of a framed file: magic, CRC-32, header length.
PREFIX = struct.Struct("<8sII")
#: The checksum covers every byte after the magic and the CRC field itself.
_CRC_START = 12
_BODY_ALIGN = 64
#: The most buffers one ``os.writev`` call may take.
_IOV_MAX = os.sysconf("SC_IOV_MAX")


def _write_all(fd: int, buffers: Iterable) -> int:
    """Write ``buffers`` to ``fd`` in order: one ``os.writev`` call, and
    more for whatever a short write left or one call cannot take. Returns
    the number of bytes written."""
    views = [memoryview(buf).cast("B") for buf in buffers]
    total = sum(len(view) for view in views)
    while views:
        written = os.writev(fd, views[:_IOV_MAX])
        done = 0
        while done < len(views) and written >= len(views[done]):
            written -= len(views[done])
            done += 1
        views = views[done:]
        if views:
            views[0] = views[0][written:]
    return total


def atomic_write(path: Path, buffers: Iterable) -> None:
    """Publish the concatenated ``buffers`` as ``path`` via a temp file.

    The temp file is created beside ``path`` with a unique name (mode 0600),
    filled by :func:`os.writev` and moved over it with ``os.replace``, so
    readers see the old file or the whole new one, never a partial write,
    and concurrent writers of one path never share a temp file. If writing
    fails, the temp file is removed and the error propagates unchanged.
    """
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        try:
            _write_all(fd, buffers)
        finally:
            os.close(fd)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def write_in_place(path: Path, buffers: Iterable) -> None:
    """Overwrite ``path`` with the concatenated ``buffers``, in place.

    The file is opened (created with mode 0600 if missing) without
    truncation, which on ext4 would force the same flush a rename does,
    locked with ``flock`` so writers of one path take turns, written from
    offset 0 and then cut to the new length, so racing writers leave one
    whole file. A reader racing a writer, or a writer
    killed or failing mid-write, can see a torn file; nothing else is
    touched. An ``OSError`` propagates unchanged.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o600)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        os.ftruncate(fd, _write_all(fd, buffers))
    finally:
        os.close(fd)


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
