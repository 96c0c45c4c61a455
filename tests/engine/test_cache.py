"""Cache correctness: LRU behaviour, disk store integrity, invalidation."""

import concurrent.futures
import errno
import gc
import json
import os
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.engine import cache as cache_module
from repro.engine.cache import LRUCache, SweepStore
from repro.engine.plan import CIScenario, SweepSpec
from repro.engine.runner import COLUMN_DTYPES, COLUMNS, run_sweep
from repro.errors import ConfigurationError
from repro.framing import PREFIX, frame
from repro.node.determinism import DeterminismMode
from repro.node.pstates import FrequencySetting


def small_spec(**overrides):
    fields = dict(
        frequencies=(FrequencySetting.GHZ_2_0,),
        bios_modes=(DeterminismMode.POWER, DeterminismMode.PERFORMANCE),
        ci_scenarios=(CIScenario.flat(25.0), CIScenario.flat(190.0)),
        utilisations=(0.5, 0.9),
        node_counts=(1000,),
        lifetimes_years=(6.0,),
    )
    fields.update(overrides)
    return SweepSpec(**fields)


#: Rows of the first chunk of ``small_spec()`` (8 rows) at ``chunk_size=ROWS``.
ROWS = 4


def _header_end(data: bytes) -> int:
    return PREFIX.size + PREFIX.unpack_from(data)[2]


def _flip_bit(data: bytes, index: int) -> bytes:
    return data[:index] + bytes([data[index] ^ 0x10]) + data[index + 1 :]


def _framed(header, body) -> bytes:
    """A chunk file with a valid checksum holding ``header`` and ``body``."""
    return b"".join(frame(cache_module._MAGIC, json.dumps(header, separators=(",", ":")), body))


def _forge(columns, codes=None) -> bytes:
    """A chunk file with a valid checksum whose header lists ``columns``
    (dtype codes overridden by ``codes``) and whose body is their bytes."""
    codes = codes or {}
    header = {
        "rows": ROWS,
        "columns": [
            [name, codes.get(name, arr.dtype.str)] for name, arr in columns.items()
        ],
    }
    return _framed(header, columns.values())


def _past_eof(data: bytes) -> bytes:
    magic, crc, _ = PREFIX.unpack_from(data)
    return PREFIX.pack(magic, crc, len(data)) + data[PREFIX.size :]


#: Ways a chunk file can be torn or damaged, each a function of the file's
#: bytes and the chunk's true columns.
DAMAGE = {
    "truncated-in-magic": lambda data, cols: data[:5],
    "truncated-in-header": lambda data, cols: data[: PREFIX.size + 10],
    "truncated-mid-column": lambda data, cols: data[: _header_end(data) + ROWS * 8 + 5],
    "one-byte-short": lambda data, cols: data[:-1],
    "one-byte-appended": lambda data, cols: data + b"\0",
    "bit-flipped-in-header": lambda data, cols: _flip_bit(data, PREFIX.size + 3),
    "bit-flipped-in-column": lambda data, cols: _flip_bit(data, len(data) - 3),
    "wrong-magic": lambda data, cols: b"PK\x03\x04" + data[4:],
    "header-length-past-eof": lambda data, cols: _past_eof(data),
    "object-dtype": lambda data, cols: _forge(cols, codes={"utilisation": "|O"}),
    "missing-column": lambda data, cols: _forge(
        {name: arr for name, arr in cols.items() if name != "crossing_year"}
    ),
    "extra-column": lambda data, cols: _forge({**cols, "bogus": cols["utilisation"]}),
    "column-one-row-short": lambda data, cols: _forge(
        {**cols, "utilisation": cols["utilisation"][:-1]}
    ),
    "header-not-a-mapping": lambda data, cols: _framed(["rows", ROWS], cols.values()),
}


def _first_chunk(result):
    return {name: result.columns[name][:ROWS] for name in COLUMNS}


def _destinations(rows=ROWS):
    """Writable arrays for ``get_chunk(..., out=...)``, one per sweep column."""
    return {name: np.empty(rows, dtype) for name, dtype in COLUMN_DTYPES.items()}


def _read_only(arr):
    arr.setflags(write=False)
    return arr


def _chunk_files(store, spec):
    return {p.name: p.read_bytes() for p in sorted(store.entry_dir(spec.spec_hash).glob("rows-*"))}


def _assert_same_columns(result, reference):
    for name in COLUMNS:
        assert result.columns[name].dtype == reference.columns[name].dtype
        assert result.columns[name].tobytes() == reference.columns[name].tobytes()


class TestLRUCache:
    def test_get_put_and_counters(self):
        lru = LRUCache(max_entries=2)
        assert lru.get("a") is None
        lru.put("a", 1)
        assert lru.get("a") == 1
        assert (lru.hits, lru.misses) == (1, 1)

    def test_evicts_least_recently_used(self):
        lru = LRUCache(max_entries=2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.get("a")  # refresh a; b becomes LRU
        lru.put("c", 3)
        assert lru.get("b") is None
        assert (lru.get("a"), lru.get("c")) == (1, 3)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ConfigurationError):
            LRUCache(max_entries=0)

    def test_put_existing_at_capacity_evicts_nothing(self):
        """Overwriting a resident key at max_entries must not evict: the
        size does not grow, so no spurious eviction may fire."""
        lru = LRUCache(max_entries=2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("a", 10)  # overwrite while full
        assert (lru.get("a"), lru.get("b")) == (10, 2)

    def test_put_existing_refreshes_recency(self):
        """An overwritten key becomes most-recently-used, so the *other*
        key is the one evicted by the next insertion."""
        lru = LRUCache(max_entries=2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("a", 10)  # a is now MRU; b is LRU
        lru.put("c", 3)
        assert lru.get("b") is None
        assert (lru.get("a"), lru.get("c")) == (10, 3)


class TestSweepStoreChunks:
    def test_round_trip_is_byte_identical(self, tmp_path):
        spec = small_spec()
        store = SweepStore(tmp_path)
        fresh = run_sweep(spec, chunk_size=3, store=store)
        replay = run_sweep(spec, chunk_size=3, store=SweepStore(tmp_path))
        assert replay.meta.computed_chunks == 0
        for name in COLUMNS:
            assert fresh.columns[name].tobytes() == replay.columns[name].tobytes()
            assert fresh.columns[name].dtype == replay.columns[name].dtype

    def test_corrupt_chunk_is_treated_as_miss_and_removed(self, tmp_path):
        spec = small_spec()
        store = SweepStore(tmp_path)
        run_sweep(spec, chunk_size=4, store=store)
        chunk = store.chunk_path(spec.spec_hash, 0, 4)
        chunk.write_bytes(b"not a zip file")
        assert store.get_chunk(spec.spec_hash, 0, 4, COLUMNS) is None
        assert not chunk.exists()
        # A re-run recomputes the damaged chunk and still matches.
        again = run_sweep(spec, chunk_size=4, store=store)
        clean = run_sweep(spec, chunk_size=4)
        for name in COLUMNS:
            assert again.columns[name].tobytes() == clean.columns[name].tobytes()

    def test_wrong_row_count_is_rejected(self, tmp_path):
        spec = small_spec()
        store = SweepStore(tmp_path)
        run_sweep(spec, chunk_size=4, store=store)
        # Claim rows [0, 5) with a 4-row payload.
        good = store.chunk_path(spec.spec_hash, 0, 4)
        bad = store.chunk_path(spec.spec_hash, 0, 5)
        bad.write_bytes(good.read_bytes())
        assert store.get_chunk(spec.spec_hash, 0, 5, COLUMNS) is None

    def test_cached_chunks_lists_ranges(self, tmp_path):
        spec = small_spec()
        store = SweepStore(tmp_path)
        run_sweep(spec, chunk_size=3, store=store)
        assert store.cached_chunks(spec.spec_hash) == [(0, 3), (3, 6), (6, 8)]

    def test_get_chunk_reads_into_destinations(self, tmp_path):
        spec = small_spec()
        store = SweepStore(tmp_path)
        result = run_sweep(spec, chunk_size=ROWS, store=store)
        out = _destinations()
        loaded = store.get_chunk(spec.spec_hash, 0, ROWS, COLUMNS, out=out)
        assert list(loaded) == list(COLUMNS)
        for name, arr in _first_chunk(result).items():
            assert loaded[name] is out[name]
            assert out[name].tobytes() == arr.tobytes()

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: np.empty(ROWS + 1),
            lambda: np.empty(2 * ROWS)[::2],
            lambda: _read_only(np.zeros(ROWS)),
        ],
        ids=["wrong-length", "strided", "read-only"],
    )
    def test_get_chunk_refuses_destinations_it_cannot_fill(self, tmp_path, bad):
        """A caller's bad destination raises and leaves the chunk in place."""
        spec = small_spec()
        store = SweepStore(tmp_path)
        run_sweep(spec, chunk_size=ROWS, store=store)
        out = {**_destinations(), "utilisation": bad()}
        with pytest.raises((ConfigurationError, TypeError)):
            store.get_chunk(spec.spec_hash, 0, ROWS, COLUMNS, out=out)
        assert store.chunk_path(spec.spec_hash, 0, ROWS).exists()

    def test_get_chunk_returns_read_only_arrays(self, tmp_path):
        spec = small_spec()
        store = SweepStore(tmp_path)
        run_sweep(spec, chunk_size=ROWS, store=store)
        loaded = store.get_chunk(spec.spec_hash, 0, ROWS, COLUMNS)
        assert list(loaded) == list(COLUMNS)
        for arr in loaded.values():
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_put_chunk_writes_the_encoded_chunk(self, tmp_path):
        spec = small_spec()
        store = SweepStore(tmp_path)
        columns = _first_chunk(run_sweep(spec, chunk_size=ROWS))
        path = store.put_chunk(spec, 0, ROWS, columns)
        assert path.read_bytes() == b"".join(cache_module._encode_chunk(ROWS, columns))

    def test_entry_is_made_once_and_again_after_removal(self, tmp_path, monkeypatch):
        """The first put of an entry makes its directory and ``spec.json``;
        later puts do not, until another store removes the entry."""
        spec = small_spec()
        entry = SweepStore(tmp_path).entry_dir(spec.spec_hash)
        other, store = SweepStore(tmp_path), SweepStore(tmp_path)
        made = []
        real_mkdir = Path.mkdir

        def mkdir(path, *args, **kwargs):
            made.append(path)
            return real_mkdir(path, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", mkdir)
        first = run_sweep(spec, chunk_size=2, store=store)
        assert (first.meta.computed_chunks, made) == (4, [entry])
        assert other.invalidate(spec.spec_hash) == 5
        store.put_chunk(spec, 0, 2, {name: first.columns[name][:2] for name in COLUMNS})
        assert made == [entry, entry]
        assert sorted(p.name for p in entry.iterdir()) == [
            store.chunk_path(spec.spec_hash, 0, 2).name,
            "spec.json",
        ]
        assert (entry / "spec.json").read_text() == spec.canonical_json()

    @pytest.mark.parametrize(
        "bad",
        [np.array([None] * ROWS, dtype=object), np.zeros(ROWS + 1), np.zeros((ROWS, 1))],
        ids=["object-dtype", "wrong-length", "two-dimensional"],
    )
    def test_put_chunk_refuses_columns_it_cannot_read_back(self, tmp_path, bad):
        spec = small_spec()
        store = SweepStore(tmp_path)
        columns = _first_chunk(run_sweep(spec, chunk_size=ROWS))
        columns["utilisation"] = bad
        with pytest.raises(ConfigurationError):
            store.put_chunk(spec, 0, ROWS, columns)
        assert not store.chunk_path(spec.spec_hash, 0, ROWS).exists()


class TestTornChunks:
    """Every damaged or forged chunk file is a miss that deletes the file."""

    def test_forged_file_equals_a_real_chunk_when_undamaged(self, tmp_path):
        spec = small_spec()
        store = SweepStore(tmp_path)
        result = run_sweep(spec, chunk_size=ROWS, store=store)
        chunk = store.chunk_path(spec.spec_hash, 0, ROWS)
        assert _forge(_first_chunk(result)) == chunk.read_bytes()
        assert _header_end(chunk.read_bytes()) % 64 == 0

    @pytest.mark.parametrize("damage", DAMAGE.values(), ids=DAMAGE.keys())
    def test_damaged_chunk_is_a_miss_and_recomputed(self, tmp_path, damage):
        spec = small_spec()
        clean = run_sweep(spec, chunk_size=ROWS)
        store = SweepStore(tmp_path)
        run_sweep(spec, chunk_size=ROWS, store=store)
        chunk = store.chunk_path(spec.spec_hash, 0, ROWS)
        chunk.write_bytes(damage(chunk.read_bytes(), _first_chunk(clean)))
        misses = store.misses
        assert store.get_chunk(spec.spec_hash, 0, ROWS, COLUMNS) is None
        assert not chunk.exists()
        assert store.misses == misses + 1
        again = run_sweep(spec, chunk_size=ROWS, store=store)
        assert (again.meta.disk_hits, again.meta.computed_chunks) == (1, 1)
        _assert_same_columns(again, clean)


    @pytest.mark.parametrize("damage", DAMAGE.values(), ids=DAMAGE.keys())
    def test_damaged_chunk_read_into_destinations_is_a_miss(self, tmp_path, damage):
        spec = small_spec()
        clean = run_sweep(spec, chunk_size=ROWS)
        store = SweepStore(tmp_path)
        run_sweep(spec, chunk_size=ROWS, store=store)
        chunk = store.chunk_path(spec.spec_hash, 0, ROWS)
        chunk.write_bytes(damage(chunk.read_bytes(), _first_chunk(clean)))
        misses = store.misses
        out = _destinations()
        assert store.get_chunk(spec.spec_hash, 0, ROWS, COLUMNS, out=out) is None
        assert not chunk.exists()
        assert store.misses == misses + 1

    @pytest.mark.parametrize("read_into", [False, True], ids=["own-arrays", "destinations"])
    def test_header_nested_past_the_parser_limit_is_a_miss(self, tmp_path, read_into):
        """A forged header nested past the JSON decoder's recursion limit is
        a miss that deletes the file, not a RecursionError."""
        spec = small_spec()
        clean = run_sweep(spec, chunk_size=ROWS)
        store = SweepStore(tmp_path)
        run_sweep(spec, chunk_size=ROWS, store=store)
        chunk = store.chunk_path(spec.spec_hash, 0, ROWS)
        deep = "[" * 100_000 + "]" * 100_000
        chunk.write_bytes(b"".join(frame(cache_module._MAGIC, deep, _first_chunk(clean).values())))
        out = _destinations() if read_into else None
        assert store.get_chunk(spec.spec_hash, 0, ROWS, COLUMNS, out=out) is None
        assert not chunk.exists()

    @pytest.mark.parametrize("code", ["<f4", ">f8"])
    def test_stored_dtype_unlike_the_destination_is_a_miss(self, tmp_path, code):
        """A well-formed chunk whose float64 column is stored as ``code``
        reads back as stored on its own, but cannot fill a result column."""
        spec = small_spec()
        clean = run_sweep(spec, chunk_size=ROWS)
        store = SweepStore(tmp_path)
        run_sweep(spec, chunk_size=ROWS, store=store)
        chunk = store.chunk_path(spec.spec_hash, 0, ROWS)
        true_bytes = chunk.read_bytes()
        cols = _first_chunk(clean)
        forged = _forge({**cols, "utilisation": cols["utilisation"].astype(code)})
        chunk.write_bytes(forged)
        loaded = store.get_chunk(spec.spec_hash, 0, ROWS, COLUMNS)
        assert loaded["utilisation"].dtype == np.dtype(code)
        out = _destinations()
        assert store.get_chunk(spec.spec_hash, 0, ROWS, COLUMNS, out=out) is None
        assert not chunk.exists()
        chunk.write_bytes(forged)
        again = run_sweep(spec, chunk_size=ROWS, store=store)
        assert (again.meta.disk_hits, again.meta.computed_chunks) == (1, 1)
        _assert_same_columns(again, clean)
        assert chunk.read_bytes() == true_bytes

    @pytest.mark.parametrize("code", [None, ">f8"], ids=["intact", "big-endian-column"])
    def test_chunks_published_since_the_listing_are_read(self, tmp_path, monkeypatch, code):
        """A sweep looks up every chunk whatever the entry listing says, so
        chunks a concurrent writer published after a listing are read into
        their slices of the result, under the same checks."""
        spec = small_spec()
        clean = run_sweep(spec, chunk_size=ROWS)
        store = SweepStore(tmp_path)
        run_sweep(spec, chunk_size=ROWS, store=store)
        if code:
            cols = _first_chunk(clean)
            forged = _forge({**cols, "utilisation": cols["utilisation"].astype(code)})
            store.chunk_path(spec.spec_hash, 0, ROWS).write_bytes(forged)
        monkeypatch.setattr(store, "cached_chunks", lambda spec_hash: [])
        again = run_sweep(spec, chunk_size=ROWS, store=store)
        damaged = int(code is not None)
        assert (again.meta.disk_hits, again.meta.computed_chunks) == (2 - damaged, damaged)
        _assert_same_columns(again, clean)

    def test_partly_filled_store_with_a_damaged_chunk(self, tmp_path):
        """Missing and damaged chunks are recomputed into their slices, the
        rest are read from disk, and the result is a clean run's bytes."""
        spec = small_spec(utilisations=(0.3, 0.5, 0.7, 0.9))
        clean = run_sweep(spec, chunk_size=3)
        store = SweepStore(tmp_path)
        run_sweep(spec, chunk_size=3, store=store)
        reference = _chunk_files(store, spec)
        assert len(reference) == 6
        store.chunk_path(spec.spec_hash, 0, 3).unlink()
        store.chunk_path(spec.spec_hash, 9, 12).unlink()
        damaged = store.chunk_path(spec.spec_hash, 3, 6)
        damaged.write_bytes(_flip_bit(damaged.read_bytes(), len(reference[damaged.name]) - 3))
        again = run_sweep(spec, chunk_size=3, store=store)
        assert (again.meta.disk_hits, again.meta.computed_chunks) == (3, 3)
        _assert_same_columns(again, clean)
        assert _chunk_files(store, spec) == reference


def _peak_ratio(run) -> tuple[float, object]:
    """Peak traced allocation while ``run()`` executes, over its result's bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / sum(col.nbytes for col in result.columns.values()), result


def _replay_spec():
    spec = small_spec(
        frequencies=(
            FrequencySetting.GHZ_1_5,
            FrequencySetting.GHZ_2_0,
            FrequencySetting.GHZ_2_25_TURBO,
        ),
        ci_scenarios=tuple(CIScenario.flat(c) for c in (25.0, 60.0, 120.0, 190.0)),
        utilisations=tuple(0.3 + 0.08 * i for i in range(8)),
        node_counts=(1000, 2000, 4000, 5860),
        lifetimes_years=tuple(3.0 + 0.5 * i for i in range(20)),
    )
    assert spec.n_scenarios == 15_360
    run_sweep(spec, chunk_size=1024)  # first-call imports and memos
    return spec


class TestReplayMemory:
    """Every chunk lands in its result slice: a sweep holds no second copy."""

    def test_warm_replay_peaks_near_its_result(self, tmp_path):
        spec = _replay_spec()
        store = SweepStore(tmp_path)
        cold_ratio, cold = _peak_ratio(lambda: run_sweep(spec, store=store))
        warm_ratio, warm = _peak_ratio(lambda: run_sweep(spec, store=store))
        assert warm.meta.disk_hits == warm.meta.n_chunks == 4
        _assert_same_columns(warm, cold)
        assert warm_ratio <= 1.1
        assert cold_ratio <= 2.1

    def test_cold_sweep_peaks_near_its_result(self, tmp_path):
        """A computed chunk is copied into its slice as soon as it is
        evaluated, so a cold sweep of many chunks holds one chunk beside
        its result, not every chunk until the end."""
        spec = _replay_spec()
        cold_ratio, cold = _peak_ratio(
            lambda: run_sweep(spec, chunk_size=1024, store=SweepStore(tmp_path))
        )
        assert cold.meta.computed_chunks == cold.meta.n_chunks == 15
        _assert_same_columns(cold, run_sweep(spec, chunk_size=1024))
        assert cold_ratio <= 1.3


class TestCrashPoints:
    def test_temp_file_of_a_killed_writer_is_ignored(self, tmp_path):
        """A writer killed between its temp write and ``os.replace`` leaves
        a stray temp file and no chunk; only ``invalidate`` removes it."""
        spec = small_spec()
        clean = run_sweep(spec, chunk_size=ROWS)
        store = SweepStore(tmp_path)
        run_sweep(spec, chunk_size=ROWS, store=store)
        chunk = store.chunk_path(spec.spec_hash, 0, ROWS)
        stray = chunk.with_name(chunk.name + ".x1_k2q9z.tmp")
        data = chunk.read_bytes()
        stray.write_bytes(data[: len(data) // 2])
        chunk.unlink()
        assert store.cached_chunks(spec.spec_hash) == [(ROWS, 8)]
        assert store.get_chunk(spec.spec_hash, 0, ROWS, COLUMNS) is None
        again = run_sweep(spec, chunk_size=ROWS, store=store)
        assert (again.meta.disk_hits, again.meta.computed_chunks) == (1, 1)
        _assert_same_columns(again, clean)
        assert stray.read_bytes() == data[: len(data) // 2]
        # spec.json, two chunks and the stray temp file.
        assert store.invalidate(spec.spec_hash) == 4
        assert not store.entry_dir(spec.spec_hash).exists()

    def test_disk_full_propagates_and_leaves_no_file(self, tmp_path, monkeypatch):
        spec = small_spec()
        clean = run_sweep(spec, chunk_size=ROWS)
        store = SweepStore(tmp_path)
        run_sweep(spec, chunk_size=ROWS, store=store)
        entry = store.entry_dir(spec.spec_hash)
        for chunk in entry.glob("rows-*"):
            chunk.unlink()
        full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def full_disk(fd, buffers):
            raise full

        monkeypatch.setattr(os, "writev", full_disk)
        with pytest.raises(OSError) as excinfo:
            run_sweep(spec, chunk_size=ROWS, store=store)
        monkeypatch.undo()
        assert excinfo.value is full
        assert sorted(path.name for path in entry.iterdir()) == ["spec.json"]
        again = run_sweep(spec, chunk_size=ROWS, store=store)
        assert (again.meta.disk_hits, again.meta.computed_chunks) == (0, 2)
        _assert_same_columns(again, clean)

    def test_older_npz_chunk_is_never_read(self, tmp_path):
        """Stores written before the ``.cols`` format hold ``.npz`` chunks:
        they are misses, left alone, and removed by ``invalidate``."""
        spec = small_spec()
        clean = run_sweep(spec, chunk_size=ROWS)
        store = SweepStore(tmp_path)
        run_sweep(spec, chunk_size=ROWS, store=store)
        chunk = store.chunk_path(spec.spec_hash, 0, ROWS)
        old = chunk.with_suffix(".npz")
        np.savez(old, **_first_chunk(clean))
        chunk.unlink()
        before = old.read_bytes()
        assert store.cached_chunks(spec.spec_hash) == [(ROWS, 8)]
        assert store.get_chunk(spec.spec_hash, 0, ROWS, COLUMNS) is None
        again = run_sweep(spec, chunk_size=ROWS, store=store)
        assert (again.meta.disk_hits, again.meta.computed_chunks) == (1, 1)
        _assert_same_columns(again, clean)
        assert old.read_bytes() == before
        # spec.json, two chunks and the old .npz.
        assert store.invalidate(spec.spec_hash) == 4
        assert not store.entry_dir(spec.spec_hash).exists()


class TestInvalidation:
    def test_any_spec_field_change_misses(self, tmp_path):
        store = SweepStore(tmp_path)
        run_sweep(small_spec(), chunk_size=8, store=store)
        changed = small_spec(utilisations=(0.5, 0.91))
        result = run_sweep(changed, chunk_size=8, store=store)
        assert result.meta.disk_hits == 0
        assert result.meta.computed_chunks > 0

    def test_engine_version_bump_orphans_entries(self, tmp_path):
        spec = small_spec()
        run_sweep(spec, chunk_size=8, store=SweepStore(tmp_path))
        future = SweepStore(tmp_path, engine_version="999")
        assert future.get_chunk(spec.spec_hash, 0, 8, COLUMNS) is None

    def test_explicit_invalidate_forces_recompute(self, tmp_path):
        spec = small_spec()
        store = SweepStore(tmp_path)
        run_sweep(spec, chunk_size=8, store=store)
        assert store.invalidate(spec.spec_hash) > 0
        result = run_sweep(spec, chunk_size=8, store=store)
        assert result.meta.disk_hits == 0

    def test_memory_cache_is_version_keyed_and_clearable(self):
        spec = small_spec()
        lru = LRUCache()
        run_sweep(spec, memory_cache=lru)
        assert run_sweep(spec, memory_cache=lru).meta.memory_hit
        changed = small_spec(utilisations=(0.5, 0.91))
        assert not run_sweep(changed, memory_cache=lru).meta.memory_hit


class TestConcurrentWriters:
    def test_put_chunk_ignores_existing_chunk(self, tmp_path):
        """Regression: a second writer must not republish an existing chunk."""
        spec = small_spec()
        store = SweepStore(tmp_path)
        result = run_sweep(spec, chunk_size=8, store=store)
        columns = {name: result.columns[name][:8] for name in COLUMNS}
        target = store.chunk_path(spec.spec_hash, 0, 8)
        before = target.stat().st_mtime_ns
        path = store.put_chunk(spec, 0, 8, columns)
        assert path == target
        assert store.skipped_writes == 1
        assert target.stat().st_mtime_ns == before  # untouched, not rewritten

    def test_two_writers_racing_one_chunk(self, tmp_path):
        """Regression: two threads publishing the same chunk concurrently
        leave exactly one valid, readable copy behind."""
        spec = small_spec()
        reference = run_sweep(spec, chunk_size=8)
        columns = {name: reference.columns[name][:8] for name in COLUMNS}
        store = SweepStore(tmp_path)
        barrier = threading.Barrier(2)

        def racer(_):
            barrier.wait()
            return store.put_chunk(spec, 0, 8, columns)

        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            paths = list(pool.map(racer, range(2)))
        assert paths[0] == paths[1]
        loaded = store.get_chunk(spec.spec_hash, 0, 8, COLUMNS)
        assert loaded is not None
        for name in COLUMNS:
            assert np.array_equal(loaded[name], columns[name], equal_nan=True)
        # No stray temp files left behind by either racer.
        leftovers = list(store.entry_dir(spec.spec_hash).glob("*.tmp"))
        assert leftovers == []

    def test_parallel_writers_do_not_corrupt(self, tmp_path):
        spec = small_spec()
        reference = run_sweep(spec, chunk_size=2)

        def writer(_):
            store = SweepStore(tmp_path)
            return run_sweep(spec, chunk_size=2, store=store)

        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(writer, range(8)))
        for result in results:
            for name in COLUMNS:
                assert np.array_equal(
                    result.columns[name], reference.columns[name], equal_nan=True
                )
        replay = run_sweep(spec, chunk_size=2, store=SweepStore(tmp_path))
        assert replay.meta.computed_chunks == 0
        for name in COLUMNS:
            assert replay.columns[name].tobytes() == reference.columns[name].tobytes()
