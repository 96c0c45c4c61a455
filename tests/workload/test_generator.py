"""Job-stream generator tests."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.node.pstates import FrequencySetting
from repro.units import SECONDS_PER_DAY
from repro.workload.generator import JobStreamConfig, JobStreamGenerator


def make_generator(mix, rng, **overrides):
    defaults = dict(n_facility_nodes=1000, max_job_nodes=256)
    defaults.update(overrides)
    return JobStreamGenerator(mix, JobStreamConfig(**defaults), rng)


class TestConfigValidation:
    def test_max_nodes_capped_by_facility(self):
        with pytest.raises(ConfigurationError):
            JobStreamConfig(n_facility_nodes=100, max_job_nodes=200)

    def test_bad_override_fraction(self):
        with pytest.raises(ConfigurationError):
            JobStreamConfig(n_facility_nodes=100, user_override_fraction=1.5)

    def test_bad_diurnal_amplitude(self):
        with pytest.raises(ConfigurationError):
            JobStreamConfig(n_facility_nodes=100, diurnal_amplitude=1.0)

    def test_bad_holiday_window(self):
        with pytest.raises(ConfigurationError):
            JobStreamConfig(
                n_facility_nodes=100, holiday_windows_s=((100.0, 50.0),)
            )

    def test_bad_weekend_factor(self):
        with pytest.raises(ConfigurationError):
            JobStreamConfig(n_facility_nodes=100, weekend_factor=0.0)


class TestGeneration:
    def test_jobs_ordered_and_bounded(self, mix, rng):
        gen = make_generator(mix, rng)
        jobs = gen.generate_until(3 * SECONDS_PER_DAY)
        times = [j.submit_time_s for j in jobs]
        assert times == sorted(times)
        assert all(0 <= t < 3 * SECONDS_PER_DAY for t in times)

    def test_job_ids_unique(self, mix, rng):
        gen = make_generator(mix, rng)
        jobs = gen.generate_until(2 * SECONDS_PER_DAY)
        ids = [j.job_id for j in jobs]
        assert len(set(ids)) == len(ids)

    def test_node_counts_within_cap(self, mix, rng):
        gen = make_generator(mix, rng, max_job_nodes=64)
        jobs = gen.generate_until(5 * SECONDS_PER_DAY)
        assert all(1 <= j.n_nodes <= 64 for j in jobs)

    def test_generate_exact_count(self, mix, rng):
        gen = make_generator(mix, rng)
        jobs = gen.generate(50)
        assert len(jobs) == 50

    def test_mean_runtime_close_to_configured(self, mix, rng):
        gen = make_generator(mix, rng, mean_runtime_s=7200.0)
        jobs = gen.generate(3000)
        mean = np.mean([j.reference_runtime_s for j in jobs])
        assert mean == pytest.approx(7200.0, rel=0.1)

    def test_offered_load_scales_arrivals(self, mix):
        low = make_generator(mix, np.random.default_rng(1), offered_load=0.5)
        high = make_generator(mix, np.random.default_rng(1), offered_load=1.5)
        n_low = len(low.generate_until(5 * SECONDS_PER_DAY))
        n_high = len(high.generate_until(5 * SECONDS_PER_DAY))
        assert n_high > 2 * n_low

    def test_negative_start_supported(self, mix, rng):
        gen = make_generator(mix, rng)
        jobs = gen.generate_until(0.0, t_start_s=-SECONDS_PER_DAY)
        assert jobs
        assert all(-SECONDS_PER_DAY <= j.submit_time_s < 0 for j in jobs)

    def test_empty_window_rejected(self, mix, rng, time_limit):
        """An empty window, and one with a non-finite bound, which the
        arrival loop would never leave."""
        gen = make_generator(mix, rng)
        inf, nan = float("inf"), float("nan")
        for t_end_s, t_start_s in ((0.0, 0.0), (inf, 0.0), (nan, 0.0), (0.0, -inf), (0.0, nan)):
            with pytest.raises(ConfigurationError):
                gen.generate_until(t_end_s, t_start_s=t_start_s)

    def test_user_overrides_sampled(self, mix, rng):
        gen = make_generator(
            mix,
            rng,
            user_override_fraction=0.5,
            override_setting=FrequencySetting.GHZ_2_25_TURBO,
        )
        jobs = gen.generate(800)
        overridden = sum(1 for j in jobs if j.frequency_override is not None)
        assert overridden / len(jobs) == pytest.approx(0.5, abs=0.06)


class TestModulation:
    def test_weekend_reduces_rate(self, mix, rng):
        gen = make_generator(mix, rng, weekend_factor=0.6, diurnal_amplitude=0.0)
        weekday = gen.rate_modulation(0.0)  # day 0
        weekend = gen.rate_modulation(5 * SECONDS_PER_DAY)  # day 5
        assert weekend == pytest.approx(0.6 * weekday)

    def test_holiday_overrides_weekday(self, mix, rng):
        gen = make_generator(
            mix,
            rng,
            holiday_factor=0.3,
            diurnal_amplitude=0.0,
            holiday_windows_s=((0.0, SECONDS_PER_DAY),),
        )
        assert gen.rate_modulation(3600.0) == pytest.approx(
            0.3 * gen.rate_modulation(SECONDS_PER_DAY + 3600.0)
        )

    def test_diurnal_peak_mid_afternoon(self, mix, rng):
        gen = make_generator(mix, rng, diurnal_amplitude=0.2)
        peak = gen.rate_modulation(15 * 3600.0)
        trough = gen.rate_modulation(3 * 3600.0)
        assert peak > trough

    def test_fewer_jobs_during_holidays(self, mix):
        quiet = make_generator(
            mix,
            np.random.default_rng(3),
            holiday_windows_s=((0.0, 7 * SECONDS_PER_DAY),),
            holiday_factor=0.3,
        )
        busy = make_generator(mix, np.random.default_rng(3))
        n_quiet = len(quiet.generate_until(7 * SECONDS_PER_DAY))
        n_busy = len(busy.generate_until(7 * SECONDS_PER_DAY))
        assert n_quiet < 0.6 * n_busy


class TestArrivalRate:
    def test_rate_matches_offered_load_arithmetic(self, mix, rng):
        gen = make_generator(mix, rng, offered_load=1.0)
        rate = gen.arrival_rate_per_s()
        assert rate * gen.mean_job_node_seconds() == pytest.approx(1000.0)
