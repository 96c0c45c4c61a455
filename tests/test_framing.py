"""Both writers put every byte of their buffers in the file, whatever the
kernel takes per ``os.writev`` call; the in-place writer keeps the file."""

import os

import numpy as np

from repro.framing import atomic_write, write_in_place


def _buffers():
    return [b"magic", bytes(range(256)) * 10, np.arange(300.0), b"", bytearray(b"tail")]


def test_short_writes_publish_every_byte(tmp_path, monkeypatch):
    real_writev = os.writev
    calls = []

    def at_most_1000_bytes(fd, buffers):
        """Take the buffers' first 1,000 bytes at most, as a short write does."""
        calls.append(len(buffers))
        room, taken = 1000, []
        for buf in buffers:
            view = memoryview(buf).cast("B")[:room]
            taken.append(view)
            room -= len(view)
        return real_writev(fd, taken)

    monkeypatch.setattr(os, "writev", at_most_1000_bytes)
    path = tmp_path / "out.bin"
    atomic_write(path, _buffers())
    expected = b"".join(bytes(memoryview(buf).cast("B")) for buf in _buffers())
    assert path.read_bytes() == expected
    assert len(calls) == -(-len(expected) // 1000)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]


def test_more_buffers_than_one_call_takes(tmp_path):
    buffers = [bytes([i % 251]) for i in range(3 * os.sysconf("SC_IOV_MAX") + 5)]
    path = tmp_path / "out.bin"
    atomic_write(path, buffers)
    assert path.read_bytes() == b"".join(buffers)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]


def test_in_place_write_cuts_a_longer_file_and_keeps_it(tmp_path, monkeypatch):
    """Short writes fill the file from offset 0, the old tail is cut off,
    and the file is the same file: no temp file, no rename."""
    real_writev = os.writev

    def at_most_777_bytes(fd, buffers):
        room, taken = 777, []
        for buf in buffers:
            view = memoryview(buf).cast("B")[:room]
            taken.append(view)
            room -= len(view)
        return real_writev(fd, taken)

    path = tmp_path / "slot.bin"
    path.write_bytes(b"\xff" * 10_000)
    inode = path.stat().st_ino
    monkeypatch.setattr(os, "writev", at_most_777_bytes)
    write_in_place(path, _buffers())
    expected = b"".join(bytes(memoryview(buf).cast("B")) for buf in _buffers())
    assert path.read_bytes() == expected
    assert path.stat().st_ino == inode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["slot.bin"]
