"""Sweep-result caching: in-memory LRU plus an on-disk content-addressed store.

Two layers, both keyed by the spec's content hash and the engine version:

* :class:`LRUCache` — a bounded in-memory map for whole assembled sweeps, so
  repeated ``sweep()`` calls inside one session are near-free.
* :class:`SweepStore` — a directory of per-chunk ``.cols`` files under
  ``<root>/<spec_hash>-v<ENGINE_VERSION>/``. Chunks are written atomically
  (temp file + ``os.replace``), so concurrent writers cannot corrupt an
  entry — the last complete write wins, and since evaluation is
  deterministic every writer produces identical bytes anyway. A chunk file
  that fails any check on read is treated as a miss and deleted.

A chunk file is one checksummed frame::

    magic   8 bytes   b"RSWPCOL1"
    crc     uint32 LE CRC-32 of every byte after this field
    hlen    uint32 LE length of the header that follows
    header  hlen bytes of JSON {"rows": n, "columns": [[name, dtype.str], ...]},
            space-padded so the body starts at a multiple of 64 bytes
    body    each column's n raw values, in header order, nothing between

Only numeric dtypes (kinds ``b``/``i``/``u``/``f``) are written or read, so
loading a chunk can never unpickle anything; the arrays come back as
read-only views of the bytes read.

Because the key covers every spec field *and* the engine version, a cache
hit is guaranteed to return exactly the arrays a fresh evaluation would
produce; bumping :data:`~repro.engine.plan.ENGINE_VERSION` orphans every
existing entry.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from ..errors import ConfigurationError
from .plan import ENGINE_VERSION, SweepSpec

__all__ = ["LRUCache", "SweepStore"]

_CHUNK_SUFFIX = ".cols"
_MAGIC = b"RSWPCOL1"
#: Fixed prefix of a chunk file: magic, CRC-32, header length.
_PREFIX = struct.Struct("<8sII")
#: The checksum covers every byte after the magic and the CRC field itself.
_CRC_START = len(_MAGIC) + 4
_BODY_ALIGN = 64
#: dtype kinds a chunk column may have: bool, signed, unsigned, float.
_NUMERIC_KINDS = "biuf"


class LRUCache:
    """A bounded least-recently-used map from string keys to cached values."""

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries <= 0:
            raise ConfigurationError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: OrderedDict[str, object] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str):
        """The cached value for ``key`` (None on miss); refreshes recency."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return self._entries[key]
        self.misses += 1
        return None

    def put(self, key: str, value) -> None:
        """Insert/refresh an entry, evicting the least recently used."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def invalidate(self, key: str) -> bool:
        """Drop one entry; returns whether it existed."""
        return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        """Drop every entry (hit/miss counters are kept)."""
        self._entries.clear()


def _atomic_write(path: Path, buffers: Iterable) -> None:
    """Publish the concatenated ``buffers`` as ``path`` via a temp file.

    The temp file sits beside ``path`` and is moved over it with
    ``os.replace``, so readers see the old file or the whole new one, never
    a partial write. If writing fails, the temp file is removed and the
    error propagates unchanged.
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


def _frame(header: dict, body: Iterable) -> list:
    """The buffers of one chunk file: prefix, padded JSON header, ``body``."""
    text = json.dumps(header, separators=(",", ":")).encode()
    text += b" " * (-(_PREFIX.size + len(text)) % _BODY_ALIGN)
    checked = [struct.pack("<I", len(text)), text, *body]
    crc = 0
    for buf in checked:
        crc = zlib.crc32(buf, crc)
    return [_MAGIC, struct.pack("<I", crc), *checked]


def _encode_chunk(rows: int, columns: Mapping[str, np.ndarray]) -> list:
    """The buffers of the chunk file holding ``columns``."""
    arrays = {name: np.ascontiguousarray(col) for name, col in columns.items()}
    for name, arr in arrays.items():
        if arr.shape != (rows,) or arr.dtype.kind not in _NUMERIC_KINDS:
            raise ConfigurationError(
                f"chunk column {name!r} must be {rows} numeric rows, "
                f"got dtype {arr.dtype.str} and shape {arr.shape}"
            )
    header = {
        "rows": rows,
        "columns": [[name, arr.dtype.str] for name, arr in arrays.items()],
    }
    return _frame(header, arrays.values())


def _decode_chunk(
    data: bytes, rows: int, expected_columns: tuple[str, ...]
) -> dict[str, np.ndarray]:
    """Read-only column views of a chunk file's bytes; ValueError if any check fails."""
    if len(data) < _PREFIX.size or not data.startswith(_MAGIC):
        raise ValueError("not a chunk file")
    _, crc, hlen = _PREFIX.unpack_from(data)
    start = _PREFIX.size + hlen
    if start > len(data):
        raise ValueError("header runs past the end of the file")
    if zlib.crc32(memoryview(data)[_CRC_START:]) != crc:
        raise ValueError("checksum mismatch")
    try:
        header = json.loads(data[_PREFIX.size : start])
        header_rows = header["rows"]
        layout = [(name, np.dtype(code)) for name, code in header["columns"]]
        names = {name for name, _ in layout}
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed chunk header: {exc!r}") from None
    if header_rows != rows:
        raise ValueError("row count mismatch")
    if len(layout) != len(expected_columns) or names != set(expected_columns):
        raise ValueError("column set mismatch")
    if any(dtype.kind not in _NUMERIC_KINDS for _, dtype in layout):
        raise ValueError("non-numeric column")
    if start + rows * sum(dtype.itemsize for _, dtype in layout) != len(data):
        raise ValueError("body length mismatch")
    columns = {}
    for name, dtype in layout:
        columns[name] = np.frombuffer(data, dtype, rows, start)
        start += rows * dtype.itemsize
    return {name: columns[name] for name in expected_columns}


class SweepStore:
    """On-disk content-addressed store of per-chunk sweep results."""

    def __init__(self, root: str | Path, engine_version: str = ENGINE_VERSION) -> None:
        self.root = Path(root)
        self.engine_version = engine_version
        self.hits = 0
        self.misses = 0
        #: Writes skipped because an identical chunk was already published
        #: (concurrent writers deduplicating against each other).
        self.skipped_writes = 0
        self.root.mkdir(parents=True, exist_ok=True)

    # -- paths ---------------------------------------------------------------

    def entry_dir(self, spec_hash: str) -> Path:
        """Directory holding one spec's chunks (version-qualified)."""
        return self.root / f"{spec_hash}-v{self.engine_version}"

    def chunk_path(self, spec_hash: str, lo: int, hi: int) -> Path:
        """File path of the chunk covering scenario rows ``[lo, hi)``."""
        return self.entry_dir(spec_hash) / f"rows-{lo:09d}-{hi:09d}{_CHUNK_SUFFIX}"

    # -- chunk I/O -----------------------------------------------------------

    def has_chunk(self, spec_hash: str, lo: int, hi: int) -> bool:
        """Whether the chunk is present on disk."""
        return self.chunk_path(spec_hash, lo, hi).is_file()

    def put_chunk(
        self,
        spec: SweepSpec,
        lo: int,
        hi: int,
        columns: Mapping[str, np.ndarray],
        *,
        overwrite: bool = False,
    ) -> Path:
        """Atomically persist one chunk's column arrays (ignore-if-exists).

        The write goes to a unique temp file in the entry directory and is
        published with ``os.replace``, so readers never observe a partial
        file. The store is content-addressed and evaluation deterministic,
        so an already-published chunk is already *this* chunk: by default a
        racing second writer skips the publish (and, if it loses the
        existence race inside the syscall window, the replace is still
        byte-equivalent). Pass ``overwrite=True`` to republish anyway —
        that is how corruption repair paths force a clean copy.
        """
        entry = self.entry_dir(spec.spec_hash)
        entry.mkdir(parents=True, exist_ok=True)
        meta = entry / "spec.json"
        if not meta.exists():
            _atomic_write(meta, [spec.canonical_json().encode()])
        target = self.chunk_path(spec.spec_hash, lo, hi)
        if not overwrite and target.is_file():
            self.skipped_writes += 1
            return target
        _atomic_write(target, _encode_chunk(hi - lo, columns))
        return target

    def get_chunk(
        self, spec_hash: str, lo: int, hi: int, expected_columns: tuple[str, ...]
    ) -> dict[str, np.ndarray] | None:
        """Load one chunk, or None on miss/corruption (corrupt files are removed).

        The arrays are read-only views of the bytes read from the file.
        """
        path = self.chunk_path(spec_hash, lo, hi)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
            columns = _decode_chunk(data, hi - lo, expected_columns)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError):
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return columns

    # -- management ----------------------------------------------------------

    def cached_chunks(self, spec_hash: str) -> list[tuple[int, int]]:
        """Row ranges already on disk for a spec, sorted."""
        entry = self.entry_dir(spec_hash)
        ranges: list[tuple[int, int]] = []
        if entry.is_dir():
            for path in entry.glob(f"rows-*-*{_CHUNK_SUFFIX}"):
                parts = path.stem.split("-")
                try:
                    ranges.append((int(parts[1]), int(parts[2])))
                except (IndexError, ValueError):
                    continue
        return sorted(ranges)

    def invalidate(self, spec_hash: str) -> int:
        """Remove one spec's entry; returns the number of files deleted."""
        return self._remove_entry(self.entry_dir(spec_hash))

    def clear(self) -> int:
        """Remove every entry under the store root, whatever its engine
        version; returns files deleted."""
        return sum(
            self._remove_entry(entry)
            for entry in sorted(self.root.iterdir())
            if entry.is_dir()
        )

    def stats(self) -> dict[str, int]:
        """Hit/miss/skip counters plus the number of entries on disk."""
        n_entries = sum(1 for p in self.root.iterdir() if p.is_dir())
        return {
            "hits": self.hits,
            "misses": self.misses,
            "skipped_writes": self.skipped_writes,
            "entries": n_entries,
        }

    @staticmethod
    def _remove_entry(entry: Path) -> int:
        """Delete an entry directory and every file in it; returns files deleted."""
        removed = 0
        if entry.is_dir():
            for path in sorted(entry.iterdir()):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            try:
                entry.rmdir()
            except OSError:
                pass
        return removed
