"""Chaos-injection harness tests: each injector's fault shape, seeding,
accounting, and the composed soak reconciliation."""

import numpy as np
import pytest

from repro.errors import MonitoringError
from repro.live.events import POWER_STREAM, StreamBatch
from repro.live.faults import (
    FAULT_NAMES,
    ClockSkewInjector,
    DropoutInjector,
    DuplicateInjector,
    ReorderInjector,
    SpikeInjector,
    StallInjector,
    TruncateInjector,
    apply_faults,
    chaos_chain,
)


def make_flow(n_batches=10, batch_len=32, dt=10.0, stream=POWER_STREAM):
    """A clean, contiguous, strictly-ordered batch flow."""
    flow = []
    t0 = 0.0
    for _ in range(n_batches):
        times = t0 + dt * np.arange(batch_len)
        flow.append(StreamBatch(stream, times, np.full(batch_len, 3220.0)))
        t0 = times[-1] + dt
    return flow


def total_samples(flow):
    return sum(len(b) for b in flow)


class TestDropout:
    def test_nans_injected_and_counted(self):
        inj = DropoutInjector(p_sample=0.2, seed=1)
        out = list(inj.apply(make_flow()))
        nans = sum(int(np.isnan(b.values).sum()) for b in out)
        assert nans == inj.samples_corrupted > 0
        assert total_samples(out) == 320  # timestamps survive, values die

    def test_does_not_recount_existing_nans(self):
        batch = StreamBatch(POWER_STREAM, [0.0, 1.0], [np.nan, 2.0])
        inj = DropoutInjector(p_sample=1.0, seed=0)
        out = list(inj.apply([batch]))
        assert inj.samples_corrupted == 1
        assert np.isnan(out[0].values).all()

    def test_seeded_reproducible(self):
        a = list(DropoutInjector(0.3, seed=5).apply(make_flow()))
        b = list(DropoutInjector(0.3, seed=5).apply(make_flow()))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.values, y.values)

    def test_bad_probability_rejected(self):
        with pytest.raises(MonitoringError):
            DropoutInjector(p_sample=1.5)


class TestStall:
    def test_window_removed_and_counted(self):
        flow = make_flow(n_batches=4, batch_len=10, dt=10.0)  # spans 0..390
        inj = StallInjector(start_s=100.0, duration_s=100.0)
        out = list(inj.apply(flow))
        times = np.concatenate([b.times_s for b in out])
        assert not np.any((times >= 100.0) & (times < 200.0))
        assert inj.samples_removed == 40 - len(times)
        assert inj.samples_removed == 10

    def test_straddling_batch_split_sides_stay_ordered(self):
        batch = StreamBatch(POWER_STREAM, np.arange(10.0), np.arange(10.0))
        inj = StallInjector(start_s=3.0, duration_s=4.0)
        out = list(inj.apply([batch]))
        assert [list(b.times_s) for b in out] == [[0.0, 1.0, 2.0], [7.0, 8.0, 9.0]]
        assert inj.samples_removed == 4

    def test_zero_duration_rejected(self):
        with pytest.raises(MonitoringError):
            StallInjector(0.0, 0.0)


class TestDuplicate:
    def test_duplicates_counted(self):
        inj = DuplicateInjector(p_batch=1.0, seed=0)
        out = list(inj.apply(make_flow(n_batches=3)))
        assert len(out) == 6
        assert inj.samples_duplicated == 96
        assert out[0].t_start_s == out[1].t_start_s

    def test_zero_probability_is_identity(self):
        flow = make_flow()
        out = list(DuplicateInjector(p_batch=0.0).apply(flow))
        assert out == flow


class TestReorder:
    def test_swap_displaces_the_late_batch(self):
        inj = ReorderInjector(p_swap=1.0, seed=0)
        out = list(inj.apply(make_flow(n_batches=4)))
        assert len(out) == 4
        starts = [b.t_start_s for b in out]
        assert starts != sorted(starts)
        assert inj.samples_displaced == 64  # two swaps of 32-sample batches

    def test_trailing_batch_without_successor_passes_through(self):
        inj = ReorderInjector(p_swap=1.0, seed=0)
        out = list(inj.apply(make_flow(n_batches=3)))
        assert len(out) == 3
        assert inj.samples_displaced == 32  # only one complete pair to swap


class TestClockSkew:
    def test_post_onset_timestamps_shift(self):
        inj = ClockSkewInjector(offset_s=-50.0, onset_s=155.0)
        out = list(inj.apply(make_flow(n_batches=2, batch_len=16, dt=10.0)))
        shifted = [b for b in out if b.t_start_s >= 105.0 and b.t_end_s <= 260.0]
        assert inj.samples_displaced == 16  # the second batch, wholly post-onset
        assert shifted

    def test_straddling_batch_splits_at_onset(self):
        batch = StreamBatch(POWER_STREAM, np.arange(10.0), np.zeros(10))
        inj = ClockSkewInjector(offset_s=100.0, onset_s=5.0)
        head, tail = list(inj.apply([batch]))
        assert list(head.times_s) == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert list(tail.times_s) == [105.0, 106.0, 107.0, 108.0, 109.0]
        assert inj.samples_displaced == 5

    def test_zero_offset_rejected(self):
        with pytest.raises(MonitoringError):
            ClockSkewInjector(0.0, 10.0)


class TestSpike:
    def test_corruption_counted_and_split_by_kind(self):
        inj = SpikeInjector(p_sample=0.5, spike_factor=30.0, p_inf=0.5, seed=2)
        out = list(inj.apply(make_flow()))
        values = np.concatenate([b.values for b in out])
        n_inf = int(np.isinf(values).sum())
        n_spiked = int((np.abs(values) > 10_000).sum()) - n_inf
        assert inj.samples_nonfinite == n_inf > 0
        assert inj.samples_corrupted == n_inf + n_spiked > n_inf

    def test_skips_nan_samples(self):
        batch = StreamBatch(POWER_STREAM, [0.0, 1.0], [np.nan, 1.0])
        inj = SpikeInjector(p_sample=1.0, p_inf=0.0, seed=0)
        out = list(inj.apply([batch]))
        assert np.isnan(out[0].values[0])
        assert inj.samples_corrupted == 1


class TestTruncate:
    def test_stream_ends_at_cut(self):
        flow = make_flow(n_batches=4, batch_len=10, dt=10.0)  # 0..390
        inj = TruncateInjector(cut_s=250.0)
        out = list(inj.apply(flow))
        assert max(b.t_end_s for b in out) < 250.0
        assert inj.samples_removed == 40 - total_samples(out) == 15

    def test_remainder_drained_for_accounting(self):
        inj = TruncateInjector(cut_s=0.0)
        out = list(inj.apply(make_flow(n_batches=3, batch_len=8)))
        assert out == []
        assert inj.samples_removed == 24
        assert inj.batches_seen == 3


class TestComposition:
    def test_chain_applies_in_order(self):
        flow = make_flow(n_batches=6, batch_len=16, dt=10.0)
        drop = DropoutInjector(0.1, seed=1)
        dup = DuplicateInjector(0.5, seed=2)
        out = list(apply_faults(flow, drop, dup))
        assert drop.batches_seen == 6
        assert dup.batches_seen == 6  # duplicate wraps dropout's output
        assert total_samples(out) == 96 + dup.samples_duplicated

    def test_chaos_chain_registry(self):
        chain = chaos_chain(FAULT_NAMES, duration_s=86400.0, seed=0)
        assert [i.name for i in chain] == list(FAULT_NAMES)

    def test_chaos_chain_order_independent_of_spelling(self):
        a = chaos_chain(["spike", "dropout"], 86400.0, seed=0)
        b = chaos_chain(["dropout", "spike"], 86400.0, seed=0)
        assert [i.name for i in a] == [i.name for i in b] == ["dropout", "spike"]

    def test_chaos_chain_unknown_name_rejected(self):
        with pytest.raises(MonitoringError, match="unknown fault"):
            chaos_chain(["gremlins"], 86400.0)

    def test_chaos_chain_deterministic(self):
        flow = make_flow(n_batches=20, batch_len=64, dt=30.0)
        duration = flow[-1].t_end_s
        out_a = list(apply_faults(flow, *chaos_chain(FAULT_NAMES, duration, seed=7)))
        out_b = list(apply_faults(flow, *chaos_chain(FAULT_NAMES, duration, seed=7)))
        assert len(out_a) == len(out_b)
        for x, y in zip(out_a, out_b):
            np.testing.assert_array_equal(x.times_s, y.times_s)
            np.testing.assert_array_equal(x.values, y.values)

    def test_full_suite_accounting_reconciles(self):
        """Composed suite: delivered == clean − removed + duplicated, where
        per-injector counts refer to the flow each injector saw."""
        flow = make_flow(n_batches=20, batch_len=64, dt=30.0)
        clean = total_samples(flow)
        chain = chaos_chain(FAULT_NAMES, flow[-1].t_end_s, seed=3)
        delivered = total_samples(list(apply_faults(flow, *chain)))
        removed = sum(i.samples_removed for i in chain)
        duplicated = sum(i.samples_duplicated for i in chain)
        assert delivered == clean - removed + duplicated
