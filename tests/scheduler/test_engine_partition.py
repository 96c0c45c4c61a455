"""Event queue and node pool tests."""

import pytest

from repro.errors import AllocationError, SchedulingError
from repro.scheduler.engine import Event, EventKind, EventQueue
from repro.scheduler.partition import NodePool


class TestEventQueue:
    def test_time_ordering(self):
        q = EventQueue()
        q.push(Event(5.0, EventKind.MARKER, "late"))
        q.push(Event(1.0, EventKind.MARKER, "early"))
        q.push(Event(3.0, EventKind.MARKER, "mid"))
        assert [q.pop().payload for _ in range(3)] == ["early", "mid", "late"]

    def test_fifo_for_simultaneous_events(self):
        q = EventQueue()
        for i in range(5):
            q.push(Event(1.0, EventKind.MARKER, i))
        assert [q.pop().payload for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_pop_empty_raises(self):
        with pytest.raises(SchedulingError):
            EventQueue().pop()

    def test_push_into_past_raises(self):
        q = EventQueue()
        q.push(Event(10.0, EventKind.MARKER))
        q.pop()
        with pytest.raises(SchedulingError):
            q.push(Event(5.0, EventKind.MARKER))

    def test_push_at_current_time_allowed(self):
        q = EventQueue()
        q.push(Event(10.0, EventKind.MARKER))
        q.pop()
        q.push(Event(10.0, EventKind.MARKER))
        assert q.pop().time_s == 10.0


class TestNodePool:
    def test_initial_state(self):
        pool = NodePool(100)
        assert pool.free == 100
        assert pool.busy == 0

    def test_allocate_release_cycle(self):
        pool = NodePool(100)
        pool.allocate(60)
        assert pool.busy == 60
        pool.release(60)
        assert pool.free == 100

    def test_over_allocation_raises(self):
        pool = NodePool(10)
        pool.allocate(8)
        with pytest.raises(AllocationError):
            pool.allocate(3)

    def test_over_release_raises(self):
        pool = NodePool(10)
        pool.allocate(4)
        with pytest.raises(AllocationError):
            pool.release(5)

    def test_zero_allocation_raises(self):
        with pytest.raises(AllocationError):
            NodePool(10).allocate(0)

    def test_fits(self):
        pool = NodePool(10)
        pool.allocate(7)
        assert pool.fits(3)
        assert not pool.fits(4)
        assert not pool.fits(0)

    def test_bad_capacity(self):
        with pytest.raises(AllocationError):
            NodePool(0)


class TestEventQueueCheckpoint:
    def _drain(self, q):
        out = []
        while q.state_dict()["entries"]:
            event = q.pop()
            out.append((event.time_s, event.kind, event.payload))
        return out

    def test_mid_stream_round_trip(self):
        import json

        q = EventQueue()
        q.push(Event(5.0, EventKind.JOB_END, (3, 0)))
        q.push(Event(1.0, EventKind.JOB_SUBMIT, 3))
        q.push(Event(9.0, EventKind.SIM_END))
        q.push(Event(5.0, EventKind.CARBON_TICK))
        q.pop()  # consume the submit; queue is now mid-stream
        snapshot = json.loads(json.dumps(q.state_dict()))
        restored = EventQueue()
        restored.load_state_dict(snapshot)
        assert self._drain(restored) == self._drain(q)

    def test_restored_queue_preserves_time_floor(self):
        q = EventQueue()
        q.push(Event(10.0, EventKind.MARKER))
        q.pop()
        restored = EventQueue()
        restored.load_state_dict(q.state_dict())
        with pytest.raises(SchedulingError):
            restored.push(Event(5.0, EventKind.MARKER))

    def test_json_round_trip_normalises_list_payloads_to_tuples(self):
        """JSON turns tuple payloads into lists; load must restore tuples so
        generation-tagged JOB_END payloads compare equal after resume."""
        import json

        q = EventQueue()
        q.push(Event(2.0, EventKind.JOB_END, (7, 4)))
        restored = EventQueue()
        restored.load_state_dict(json.loads(json.dumps(q.state_dict())))
        assert restored.pop().payload == (7, 4)

    def test_fifo_counter_survives_resume(self):
        """Events pushed after a resume must sort behind pre-snapshot events
        at the same timestamp (the counter keeps monotone FIFO order)."""
        q = EventQueue()
        q.push(Event(1.0, EventKind.MARKER, "first"))
        restored = EventQueue()
        restored.load_state_dict(q.state_dict())
        restored.push(Event(1.0, EventKind.MARKER, "second"))
        assert [restored.pop().payload for _ in range(2)] == ["first", "second"]


class TestNodePoolCheckpoint:
    def test_round_trip_preserves_allocation(self):
        pool = NodePool(100)
        pool.allocate(37)
        restored = NodePool(100)
        restored.load_state_dict(pool.state_dict())
        assert restored.busy == 37
        assert restored.free == 63

    def test_capacity_mismatch_rejected(self):
        pool = NodePool(100)
        other = NodePool(64)
        with pytest.raises(AllocationError):
            other.load_state_dict(pool.state_dict())

    def test_corrupt_busy_count_rejected(self):
        pool = NodePool(16)
        with pytest.raises(AllocationError):
            pool.load_state_dict({"n_nodes": 16, "busy": 17})
        with pytest.raises(AllocationError):
            pool.load_state_dict({"n_nodes": 16, "busy": -1})

    def test_conservation_through_seeded_churn(self):
        """allocated + free == total holds through an arbitrary seeded
        alloc/release sequence, and survives a mid-sequence checkpoint."""
        import numpy as np

        rng = np.random.default_rng(42)
        pool = NodePool(128)
        held = []
        for step in range(200):
            if held and rng.random() < 0.45:
                pool.release(held.pop(rng.integers(len(held))))
            else:
                width = int(rng.integers(1, 17))
                if pool.fits(width):
                    pool.allocate(width)
                    held.append(width)
            assert pool.busy + pool.free == 128
            assert pool.busy == sum(held)
            if step == 100:
                restored = NodePool(128)
                restored.load_state_dict(pool.state_dict())
                assert restored.busy == pool.busy
