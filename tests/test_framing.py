"""The atomic writer publishes every byte of its buffers, whatever the
kernel takes per ``os.writev`` call."""

import os

import numpy as np

from repro.framing import atomic_write


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
