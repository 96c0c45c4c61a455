"""Checkpoint/kill/resume tests: mid-trace snapshots must replay bit-identically."""

import json

import numpy as np
import pytest

from repro.node.calibration import build_node_model
from repro.scheduler.backfill import StaticEnvironment
from repro.scheduler.malleable import MalleableScheduler
from repro.telemetry.series import TimeSeries
from repro.units import SECONDS_PER_DAY
from repro.workload.generator import JobStreamConfig, JobStreamGenerator
from repro.workload.mix import archer2_mix


@pytest.fixture(scope="module")
def env():
    return StaticEnvironment(node_model=build_node_model())


@pytest.fixture(scope="module")
def jobs():
    config = JobStreamConfig(
        n_facility_nodes=64,
        offered_load=0.95,
        mean_runtime_s=4 * 3600.0,
        max_job_nodes=32,
        malleable_fraction=0.5,
        shift_slack_mean_s=2 * 3600.0,
    )
    gen = JobStreamGenerator(archer2_mix(), config, np.random.default_rng(11))
    return gen.generate_until(5 * SECONDS_PER_DAY)


@pytest.fixture(scope="module")
def ci():
    t = np.arange(0.0, 8 * SECONDS_PER_DAY, 1800.0)
    return TimeSeries(t, 80.0 + 60.0 * np.sin(2 * np.pi * t / SECONDS_PER_DAY), "ci")


@pytest.fixture(scope="module")
def scheduler(env, ci):
    return MalleableScheduler(64, env, ci, seed=5)


T_END = 6 * SECONDS_PER_DAY


@pytest.fixture(scope="module")
def reference(scheduler, jobs):
    return scheduler.simulation(jobs, T_END).run_to_completion()


def assert_identical(a, b):
    assert a.records == b.records
    assert a.trace.times_s.tobytes() == b.trace.times_s.tobytes()
    assert a.trace.busy_power_w.tobytes() == b.trace.busy_power_w.tobytes()
    assert a.trace.busy_nodes.tobytes() == b.trace.busy_nodes.tobytes()
    assert (a.n_jobs, a.n_completed, a.n_running_at_end, a.n_queued_at_end) == (
        b.n_jobs,
        b.n_completed,
        b.n_running_at_end,
        b.n_queued_at_end,
    )
    assert (a.n_shifted, a.n_shrinks, a.n_grows) == (
        b.n_shifted,
        b.n_shrinks,
        b.n_grows,
    )


class TestKillResume:
    @pytest.mark.parametrize("cut", [1, 10, 100, 500, 2000])
    def test_resume_is_bit_identical(self, scheduler, jobs, reference, cut):
        """Kill after ``cut`` events, JSON-round-trip the snapshot, resume
        in a *fresh* simulation: byte-identical to the uninterrupted run."""
        sim = scheduler.simulation(jobs, T_END)
        for _ in range(cut):
            if not sim.step():
                break
        snapshot = json.loads(json.dumps(sim.state_dict()))
        resumed = scheduler.simulation(jobs, T_END)
        resumed.load_state_dict(snapshot)
        assert_identical(resumed.run_to_completion(), reference)

    def test_snapshot_does_not_perturb_the_donor(self, scheduler, jobs, reference):
        """Taking snapshots mid-run must not change the donor's outcome."""
        sim = scheduler.simulation(jobs, T_END)
        steps = 0
        while sim.step():
            steps += 1
            if steps % 500 == 0:
                sim.state_dict()
        assert_identical(sim.result(), reference)

    def test_snapshot_of_finished_run_reloads(self, scheduler, jobs, reference):
        sim = scheduler.simulation(jobs, T_END)
        sim.run_to_completion()
        snapshot = json.loads(json.dumps(sim.state_dict()))
        reloaded = scheduler.simulation(jobs, T_END)
        reloaded.load_state_dict(snapshot)
        assert not reloaded.step()
        assert_identical(reloaded.result(), reference)

    def test_rng_state_round_trips(self, scheduler, jobs):
        sim = scheduler.simulation(jobs, T_END)
        for _ in range(300):
            sim.step()
        snapshot = json.loads(json.dumps(sim.state_dict()))
        resumed = scheduler.simulation(jobs, T_END)
        resumed.load_state_dict(snapshot)
        # The next draw from both generators must agree exactly.
        assert sim._rng.random() == resumed._rng.random()  # lint: exact-float
