"""Sweep-result caching: in-memory LRU plus an on-disk content-addressed store.

Two layers, both keyed by the spec's content hash and the engine version:

* :class:`LRUCache` — a bounded in-memory map for whole assembled sweeps, so
  repeated ``sweep()`` calls inside one session are near-free.
* :class:`SweepStore` — a directory of per-chunk ``.cols`` files under
  ``<root>/<spec_hash>-v<ENGINE_VERSION>/``. Chunks are written with
  :func:`repro.framing.atomic_write`, so concurrent writers cannot corrupt
  an entry — the last complete write wins, and since evaluation is
  deterministic every writer produces identical bytes anyway. A chunk file
  that fails any check on read is treated as a miss and deleted.

A chunk file is one :mod:`repro.framing` frame with magic ``b"RSWPCOL1"``.
Its header is the JSON ``{"rows": n, "columns": [[name, dtype.str], ...]}``
and its body holds each column's n raw values, in header order, nothing
between.

Only numeric dtypes (kinds ``b``/``i``/``u``/``f``) are written or read, so
loading a chunk can never unpickle anything. A reader either names the
arrays each column is read into (a sweep passes the slices of its result)
or gets new read-only arrays; the file's bytes are never held in between.

Because the key covers every spec field *and* the engine version, a cache
hit is guaranteed to return exactly the arrays a fresh evaluation would
produce; bumping :data:`~repro.engine.plan.ENGINE_VERSION` orphans every
existing entry.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from pathlib import Path
from typing import Hashable, Mapping

import numpy as np

from ..errors import ConfigurationError
from ..framing import atomic_write, frame, read_frame
from .plan import ENGINE_VERSION, SweepSpec

__all__ = ["LRUCache", "SweepStore"]

_CHUNK_SUFFIX = ".cols"
_MAGIC = b"RSWPCOL1"
#: dtype kinds a chunk column may have: bool, signed, unsigned, float.
_NUMERIC_KINDS = "biuf"


class LRUCache:
    """A bounded least-recently-used map from hashable keys to cached values."""

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries <= 0:
            raise ConfigurationError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable):
        """The cached value for ``key`` (None on miss); refreshes recency."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return self._entries[key]
        self.misses += 1
        return None

    def put(self, key: Hashable, value) -> None:
        """Insert/refresh an entry, evicting the least recently used."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)


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
    return frame(_MAGIC, json.dumps(header, separators=(",", ":")), arrays.values())


def _chunk_layout(
    text: bytes, rows: int, expected_columns: tuple[str, ...]
) -> list[tuple[str, np.dtype]]:
    """The (name, dtype) columns a chunk header lists; ValueError if any check fails."""
    try:
        header = json.loads(text)
        header_rows = header["rows"]
        layout = [(name, np.dtype(code)) for name, code in header["columns"]]
        names = {name for name, _ in layout}
    except (KeyError, TypeError, RecursionError) as exc:
        raise ValueError(f"malformed chunk header: {exc!r}") from None
    if header_rows != rows:
        raise ValueError("row count mismatch")
    if len(layout) != len(expected_columns) or names != set(expected_columns):
        raise ValueError("column set mismatch")
    if any(dtype.kind not in _NUMERIC_KINDS for _, dtype in layout):
        raise ValueError("non-numeric column")
    return layout


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
        #: Spec hashes whose entry directory and ``spec.json`` a put has made.
        self._prepared: set[str] = set()
        self.root.mkdir(parents=True, exist_ok=True)

    # -- paths ---------------------------------------------------------------

    def entry_dir(self, spec_hash: str) -> Path:
        """Directory holding one spec's chunks (version-qualified)."""
        return self.root / f"{spec_hash}-v{self.engine_version}"

    def chunk_path(self, spec_hash: str, lo: int, hi: int) -> Path:
        """File path of the chunk covering scenario rows ``[lo, hi)``."""
        return self.entry_dir(spec_hash) / f"rows-{lo:09d}-{hi:09d}{_CHUNK_SUFFIX}"

    # -- chunk I/O -----------------------------------------------------------

    def put_chunk(
        self, spec: SweepSpec, lo: int, hi: int, columns: Mapping[str, np.ndarray]
    ) -> Path:
        """Atomically persist one chunk's column arrays (ignore-if-exists).

        The write goes to a unique temp file in the entry directory and is
        published with ``os.replace``, so readers never observe a partial
        file. The store is content-addressed and evaluation deterministic,
        so an already-published chunk is already *this* chunk: a racing
        second writer skips the publish (and, if it loses the existence
        race inside the syscall window, the replace is still
        byte-equivalent). The entry directory and its ``spec.json`` are
        made by the first put of an entry, and made again by the next put
        after the entry was removed (``invalidate``, from any process).
        """
        target = self.chunk_path(spec.spec_hash, lo, hi)
        if target.is_file():
            self.skipped_writes += 1
            return target
        buffers = _encode_chunk(hi - lo, columns)
        if spec.spec_hash not in self._prepared:
            self._prepare(spec)
        try:
            atomic_write(target, buffers)
        except FileNotFoundError:
            self._prepare(spec)
            atomic_write(target, buffers)
        return target

    def _prepare(self, spec: SweepSpec) -> None:
        """Make the entry directory of ``spec`` and its ``spec.json``."""
        entry = self.entry_dir(spec.spec_hash)
        entry.mkdir(parents=True, exist_ok=True)
        meta = entry / "spec.json"
        if not meta.exists():
            atomic_write(meta, [spec.canonical_json().encode()])
        self._prepared.add(spec.spec_hash)

    def get_chunk(
        self,
        spec_hash: str,
        lo: int,
        hi: int,
        expected_columns: tuple[str, ...],
        out: Mapping[str, np.ndarray] | None = None,
    ) -> dict[str, np.ndarray] | None:
        """Load one chunk, or None on miss/corruption (corrupt files are removed).

        ``out`` maps each expected column to a writable, contiguous array of
        ``hi - lo`` rows that the column is read straight into; a column
        whose stored dtype differs from its destination's is a miss, and
        after any miss the destinations hold unspecified values. A
        destination of another length raises ``ConfigurationError`` and one
        that is read-only or strided ``TypeError``; either leaves the file
        in place. Without ``out`` each column is a new read-only array of
        its stored dtype.
        """
        rows = hi - lo
        columns: dict[str, np.ndarray] = {}

        def place(text: bytes, length: int) -> list:
            for name, dtype in _chunk_layout(text, rows, expected_columns):
                if out is None:
                    columns[name] = np.empty(rows, dtype)
                    continue
                dest = columns[name] = out[name]
                if dest.shape != (rows,):
                    raise ConfigurationError(
                        f"destination {name!r} has shape {dest.shape}, not ({rows},)"
                    )
                if dest.dtype != dtype:
                    raise ValueError("column dtype mismatch")
            return list(columns.values())

        path = self.chunk_path(spec_hash, lo, hi)
        try:
            read_frame(path, _MAGIC, place)
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
        if out is None:
            for arr in columns.values():
                arr.setflags(write=False)
        return {name: columns[name] for name in expected_columns}

    # -- management ----------------------------------------------------------

    def cached_chunks(self, spec_hash: str) -> list[tuple[int, int]]:
        """Row ranges already on disk for a spec, sorted, from one directory read."""
        try:
            names = os.listdir(self.entry_dir(spec_hash))
        except OSError:
            return []
        ranges: list[tuple[int, int]] = []
        for name in names:
            if not (name.startswith("rows-") and name.endswith(_CHUNK_SUFFIX)):
                continue
            parts = name[: -len(_CHUNK_SUFFIX)].split("-")
            try:
                ranges.append((int(parts[1]), int(parts[2])))
            except (IndexError, ValueError):
                continue
        return sorted(ranges)

    def invalidate(self, spec_hash: str) -> int:
        """Remove one spec's entry; returns the number of files deleted."""
        return self._remove_entry(self.entry_dir(spec_hash))

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
