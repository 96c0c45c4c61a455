"""Cache correctness: LRU behaviour, disk store integrity, invalidation."""

import concurrent.futures
import errno
import os
import threading

import numpy as np
import pytest

from repro.engine import cache as cache_module
from repro.engine.cache import LRUCache, SweepStore
from repro.engine.plan import CIScenario, SweepSpec
from repro.engine.runner import COLUMNS, run_sweep
from repro.errors import ConfigurationError
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
    return cache_module._PREFIX.size + cache_module._PREFIX.unpack_from(data)[2]


def _flip_bit(data: bytes, index: int) -> bytes:
    return data[:index] + bytes([data[index] ^ 0x10]) + data[index + 1 :]


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
    return b"".join(cache_module._frame(header, columns.values()))


def _past_eof(data: bytes) -> bytes:
    magic, crc, _ = cache_module._PREFIX.unpack_from(data)
    return cache_module._PREFIX.pack(magic, crc, len(data)) + data[cache_module._PREFIX.size :]


#: Ways a chunk file can be torn or damaged, each a function of the file's
#: bytes and the chunk's true columns.
DAMAGE = {
    "truncated-in-magic": lambda data, cols: data[:5],
    "truncated-in-header": lambda data, cols: data[: cache_module._PREFIX.size + 10],
    "truncated-mid-column": lambda data, cols: data[: _header_end(data) + ROWS * 8 + 5],
    "one-byte-short": lambda data, cols: data[:-1],
    "one-byte-appended": lambda data, cols: data + b"\0",
    "bit-flipped-in-header": lambda data, cols: _flip_bit(data, cache_module._PREFIX.size + 3),
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
    "header-not-a-mapping": lambda data, cols: b"".join(
        cache_module._frame(["rows", ROWS], cols.values())
    ),
}


def _first_chunk(result):
    return {name: result.columns[name][:ROWS] for name in COLUMNS}


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
        assert "b" not in lru
        assert "a" in lru and "c" in lru

    def test_invalidate_and_clear(self):
        lru = LRUCache()
        lru.put("a", 1)
        assert lru.invalidate("a")
        assert not lru.invalidate("a")
        lru.put("b", 2)
        lru.clear()
        assert len(lru) == 0

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
        assert len(lru) == 2
        assert "a" in lru and "b" in lru
        assert lru.get("a") == 10

    def test_put_existing_refreshes_recency(self):
        """An overwritten key becomes most-recently-used, so the *other*
        key is the one evicted by the next insertion."""
        lru = LRUCache(max_entries=2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("a", 10)  # a is now MRU; b is LRU
        lru.put("c", 3)
        assert "b" not in lru
        assert "a" in lru and "c" in lru
        assert lru.get("a") == 10


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
        real_fdopen = os.fdopen

        class FullDisk:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.fh.close()

            def write(self, buf):
                raise full

        monkeypatch.setattr(os, "fdopen", lambda fd, *a, **kw: FullDisk(real_fdopen(fd, *a, **kw)))
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

    def test_clear_removes_entries_of_every_engine_version(self, tmp_path):
        spec = small_spec()
        run_sweep(spec, chunk_size=8, store=SweepStore(tmp_path, engine_version="0"))
        run_sweep(spec, chunk_size=8, store=SweepStore(tmp_path))
        store = SweepStore(tmp_path)
        assert store.stats()["entries"] == 2
        # spec.json and one chunk in each entry.
        assert store.clear() == 4
        assert store.stats()["entries"] == 0
        assert list(tmp_path.iterdir()) == []

    def test_memory_cache_is_version_keyed_and_clearable(self):
        spec = small_spec()
        lru = LRUCache()
        run_sweep(spec, memory_cache=lru)
        assert run_sweep(spec, memory_cache=lru).meta.memory_hit
        lru.clear()
        assert not run_sweep(spec, memory_cache=lru).meta.memory_hit


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
        assert store.stats()["skipped_writes"] == 1

    def test_put_chunk_overwrite_republishes(self, tmp_path):
        spec = small_spec()
        store = SweepStore(tmp_path)
        result = run_sweep(spec, chunk_size=8, store=store)
        columns = {name: result.columns[name][:8] for name in COLUMNS}
        target = store.chunk_path(spec.spec_hash, 0, 8)
        target.write_bytes(b"corrupted")
        store.put_chunk(spec, 0, 8, columns, overwrite=True)
        assert store.skipped_writes == 0
        assert store.get_chunk(spec.spec_hash, 0, 8, COLUMNS) is not None

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
