"""Fault-injection tests: seeded determinism, conservation, kill/resume.

The fault layer must be *reproducible* (same seed, same machine, same
schedule of failures and kills), *accounted* (every burned node-second is
either delivered or wasted, never lost), and *resumable* (a checkpoint
taken mid-fault replays byte-identically).
"""

import json

import numpy as np
import pytest

from repro.core.interventions import (
    BiosDeterminismChange,
    InterventionSchedule,
    OperatingState,
    ScheduledEnvironment,
)
from repro.errors import ConfigurationError, SchedulingError, UnitError
from repro.facility.failures import FailureModel, FaultConfig
from repro.grid.forecast import FeedOutage, ForecastFeed, ForecastIndex
from repro.node.calibration import build_node_model
from repro.scheduler.backfill import BackfillScheduler, StaticEnvironment
from repro.scheduler.malleable import MalleableScheduler, compare_rigid_malleable
from repro.telemetry.series import TimeSeries
from repro.units import SECONDS_PER_DAY
from repro.workload.generator import JobStreamConfig, JobStreamGenerator
from repro.workload.mix import archer2_mix

T_END = 5 * SECONDS_PER_DAY

# Short MTBF/MTTR so a 5-day, 64-node run sees tens of failures.
FAULTS = FaultConfig(
    model=FailureModel(mtbf_hours=200.0, mttr_hours=6.0), seed=7
)


@pytest.fixture(scope="module")
def env():
    return StaticEnvironment(node_model=build_node_model())


@pytest.fixture(scope="module")
def jobs():
    config = JobStreamConfig(
        n_facility_nodes=64,
        offered_load=0.9,
        mean_runtime_s=4 * 3600.0,
        max_job_nodes=32,
        malleable_fraction=0.5,
        shift_slack_mean_s=2 * 3600.0,
    )
    gen = JobStreamGenerator(archer2_mix(), config, np.random.default_rng(11))
    return gen.generate_until(4 * SECONDS_PER_DAY)


@pytest.fixture(scope="module")
def ci():
    t = np.arange(0.0, 7 * SECONDS_PER_DAY, 1800.0)
    return TimeSeries(t, 80.0 + 60.0 * np.sin(2 * np.pi * t / SECONDS_PER_DAY), "ci")


def faulted_scheduler(env, ci, fault_config=FAULTS, feed=None, **kwargs):
    return MalleableScheduler(
        64, env, ci, seed=5, fault_config=fault_config, feed=feed, **kwargs
    )


@pytest.fixture(scope="module")
def reference(env, ci, jobs):
    sched = faulted_scheduler(env, ci)
    return sched.simulation(jobs, T_END).run_to_completion()


def assert_identical(a, b):
    assert a.records == b.records
    assert a.faults == b.faults
    assert a.trace.times_s.tobytes() == b.trace.times_s.tobytes()
    assert a.trace.busy_power_w.tobytes() == b.trace.busy_power_w.tobytes()
    assert a.trace.busy_nodes.tobytes() == b.trace.busy_nodes.tobytes()
    assert (a.n_jobs, a.n_completed, a.n_running_at_end, a.n_queued_at_end) == (
        b.n_jobs,
        b.n_completed,
        b.n_running_at_end,
        b.n_queued_at_end,
    )


class TestFaultConfig:
    def test_defaults_validate(self):
        cfg = FaultConfig()
        assert cfg.mtbf_s == cfg.model.mtbf_hours * 3600.0
        assert cfg.mttr_s == cfg.model.mttr_hours * 3600.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"backoff_base_s": 0.0},
            {"backoff_multiplier": 0.5},
            {"backoff_cap_s": -1.0},
            {"checkpoint_interval_s": -60.0},
            {"checkpoint_overhead_s": -1.0},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises((ConfigurationError, UnitError)):
            FaultConfig(**kwargs)

    def test_backoff_grows_and_caps(self):
        cfg = FaultConfig(
            backoff_base_s=100.0, backoff_multiplier=2.0, backoff_cap_s=300.0
        )
        # jitter=0.5 gives the deterministic midpoint multiplier of 1.0
        assert cfg.backoff_s(1, 0.5) == 100.0
        assert cfg.backoff_s(2, 0.5) == 200.0
        assert cfg.backoff_s(3, 0.5) == 300.0  # capped, not 400
        assert cfg.backoff_s(10, 0.5) == 300.0


class TestSeededDeterminism:
    def test_same_seed_same_everything(self, env, ci, jobs, reference):
        rerun = faulted_scheduler(env, ci).simulation(jobs, T_END).run_to_completion()
        assert_identical(rerun, reference)

    def test_different_fault_seed_diverges(self, env, ci, jobs, reference):
        other = FaultConfig(model=FAULTS.model, seed=FAULTS.seed + 1)
        rerun = (
            faulted_scheduler(env, ci, fault_config=other)
            .simulation(jobs, T_END)
            .run_to_completion()
        )
        assert rerun.faults != reference.faults

    def test_rigid_same_seed_same_everything(self, env, ci, jobs):
        def once():
            sched = BackfillScheduler(64, fault_config=FAULTS)
            return sched.run(jobs, T_END, env)

        a, b = once(), once()
        assert a.records == b.records
        assert a.faults == b.faults
        assert a.trace.times_s.tobytes() == b.trace.times_s.tobytes()

    def test_faults_actually_fire(self, reference):
        assert reference.faults.n_failures > 10
        assert reference.faults.n_job_kills > 0
        assert reference.faults.wasted_node_seconds > 0.0
        assert reference.faults.drained_node_seconds > 0.0


class TestConservation:
    def test_malleable_reconciles_under_faults(self, reference):
        assert reference.reconciles()

    def test_rigid_reconciles_under_faults(self, env, ci, jobs):
        result = BackfillScheduler(64, fault_config=FAULTS).run(jobs, T_END, env)
        assert result.faults.n_job_kills > 0
        assert result.reconciles()

    def test_rigid_restarts_from_zero(self, env, jobs):
        """Rigid jobs keep no checkpoints: a checkpoint interval changes
        nothing, every requeued attempt starts over."""
        plain = BackfillScheduler(64, fault_config=FAULTS).run(jobs, T_END, env)
        cfg = FaultConfig(
            model=FAULTS.model, seed=FAULTS.seed, checkpoint_interval_s=1800.0
        )
        checkpointed = BackfillScheduler(64, fault_config=cfg).run(jobs, T_END, env)
        assert plain.faults.n_retries > 0
        assert checkpointed.records == plain.records
        assert checkpointed.faults == plain.faults

    def test_reconciles_with_checkpoint_restart(self, env, ci, jobs):
        cfg = FaultConfig(
            model=FAULTS.model, seed=FAULTS.seed, checkpoint_interval_s=1800.0
        )
        result = (
            faulted_scheduler(env, ci, fault_config=cfg)
            .simulation(jobs, T_END)
            .run_to_completion()
        )
        assert result.faults.n_job_kills > 0
        assert result.reconciles()

    def test_checkpointing_never_hurts_completions(self, env, ci, jobs, reference):
        """Restarting from a checkpoint re-runs less work than restarting
        from zero, so with the identical fault schedule the checkpointed
        run must complete at least as many jobs."""
        cfg = FaultConfig(
            model=FAULTS.model, seed=FAULTS.seed, checkpoint_interval_s=1800.0
        )
        ckpt = (
            faulted_scheduler(env, ci, fault_config=cfg)
            .simulation(jobs, T_END)
            .run_to_completion()
        )
        assert ckpt.n_completed >= reference.n_completed

    def test_no_faults_means_empty_accounting(self, env, ci, jobs):
        result = (
            MalleableScheduler(64, env, ci, seed=5)
            .simulation(jobs, T_END)
            .run_to_completion()
        )
        assert result.faults.n_failures == 0
        assert result.faults.wasted_node_seconds == 0.0
        assert result.faults.drained_node_seconds == 0.0
        assert result.reconciles()

    def test_unavailability_tracks_steady_state(self, reference):
        """Mean drained fraction should land within 2x of the two-state
        Markov steady state MTTR/(MTBF+MTTR)."""
        span = reference.t_end_s - reference.t_start_s
        measured = reference.faults.mean_unavailability(reference.n_nodes, span)
        steady = FAULTS.model.steady_state_unavailability
        assert steady / 2.0 <= measured <= steady * 2.0


class TestRetryBudget:
    def test_zero_retries_is_terminal(self, env, ci, jobs):
        cfg = FaultConfig(model=FAULTS.model, seed=FAULTS.seed, max_retries=0)
        result = (
            faulted_scheduler(env, ci, fault_config=cfg)
            .simulation(jobs, T_END)
            .run_to_completion()
        )
        assert result.faults.n_job_kills > 0
        assert result.faults.n_retries == 0
        assert result.faults.n_failed_terminal == result.faults.n_job_kills
        assert result.reconciles()

    def test_generous_budget_has_no_terminals(self, env, ci, jobs):
        cfg = FaultConfig(model=FAULTS.model, seed=FAULTS.seed, max_retries=1000)
        result = (
            faulted_scheduler(env, ci, fault_config=cfg)
            .simulation(jobs, T_END)
            .run_to_completion()
        )
        assert result.faults.n_job_kills > 0
        assert result.faults.n_failed_terminal == 0
        assert result.faults.n_retries == result.faults.n_job_kills
        assert result.reconciles()


class TestKillResumeUnderFaults:
    @pytest.mark.parametrize("cut", [1, 50, 500, 2000])
    def test_mid_fault_resume_is_bit_identical(self, env, ci, jobs, reference, cut):
        sched = faulted_scheduler(env, ci)
        sim = sched.simulation(jobs, T_END)
        for _ in range(cut):
            if not sim.step():
                break
        snapshot = json.loads(json.dumps(sim.state_dict()))
        resumed = sched.simulation(jobs, T_END)
        resumed.load_state_dict(snapshot)
        assert_identical(resumed.run_to_completion(), reference)

    def test_checkpoint_json_is_byte_identical_across_resume(self, env, ci, jobs):
        """Kill at step 300, resume, advance both the donor and the resumed
        copy in lockstep: their checkpoints must serialise to identical
        bytes at every probe."""
        sched = faulted_scheduler(env, ci)
        donor = sched.simulation(jobs, T_END)
        for _ in range(300):
            donor.step()
        snapshot = json.dumps(donor.state_dict(), sort_keys=True)
        resumed = sched.simulation(jobs, T_END)
        resumed.load_state_dict(json.loads(snapshot))
        assert json.dumps(resumed.state_dict(), sort_keys=True) == snapshot
        for _ in range(3):
            for _ in range(200):
                donor.step()
                resumed.step()
            assert json.dumps(
                resumed.state_dict(), sort_keys=True
            ) == json.dumps(donor.state_dict(), sort_keys=True)

    def test_fault_rng_state_round_trips(self, env, ci, jobs):
        sched = faulted_scheduler(env, ci)
        sim = sched.simulation(jobs, T_END)
        for _ in range(300):
            sim.step()
        snapshot = json.loads(json.dumps(sim.state_dict()))
        resumed = sched.simulation(jobs, T_END)
        resumed.load_state_dict(snapshot)
        assert sim._fault_rng.random() == resumed._fault_rng.random()  # lint: exact-float

    def test_faultless_scheduler_rejects_faulted_checkpoint(self, env, ci, jobs):
        sched = faulted_scheduler(env, ci)
        sim = sched.simulation(jobs, T_END)
        for _ in range(300):
            sim.step()
        snapshot = json.loads(json.dumps(sim.state_dict()))
        plain = MalleableScheduler(64, env, ci, seed=5).simulation(jobs, T_END)
        with pytest.raises(SchedulingError, match="fault"):
            plain.load_state_dict(snapshot)


class TestRigidKillResume:
    """Rigid runs use the shared loop's checkpoints: a snapshot taken
    mid-trace under faults, JSON round-tripped, resumes byte-identically."""

    def resume(self, sched, jobs, env, cut):
        sim = sched.simulation(jobs, T_END, env)
        for _ in range(cut):
            sim.step()
        snapshot = json.loads(json.dumps(sim.state_dict()))
        resumed = sched.simulation(jobs, T_END, env)
        resumed.load_state_dict(snapshot)
        return snapshot, resumed.run_to_completion()

    def assert_identical(self, a, b):
        assert a.records == b.records
        assert a.faults == b.faults
        assert a.trace.times_s.tobytes() == b.trace.times_s.tobytes()
        assert a.trace.busy_power_w.tobytes() == b.trace.busy_power_w.tobytes()
        assert a.trace.busy_nodes.tobytes() == b.trace.busy_nodes.tobytes()
        assert (a.n_jobs, a.n_completed, a.n_running_at_end, a.n_unstarted) == (
            b.n_jobs,
            b.n_completed,
            b.n_running_at_end,
            b.n_unstarted,
        )

    def test_resume_with_static_environment(self, env, jobs):
        sched = BackfillScheduler(64, fault_config=FAULTS)
        reference = sched.run(jobs, T_END, env)
        assert reference.faults.n_job_kills > 0
        _, resumed = self.resume(sched, jobs, env, cut=100)
        self.assert_identical(resumed, reference)

    def test_resume_before_an_intervention(self, jobs):
        """The BIOS change lands after the snapshot, so the resumed run
        must resolve post-change jobs through the caller's environment."""
        change_s = 3 * SECONDS_PER_DAY
        env = ScheduledEnvironment(
            node_model=build_node_model(),
            schedule=InterventionSchedule(
                OperatingState(), [BiosDeterminismChange(time_s=change_s)]
            ),
        )
        sched = BackfillScheduler(64, fault_config=FAULTS)
        reference = sched.run(jobs, T_END, env)
        snapshot, resumed = self.resume(sched, jobs, env, cut=100)
        assert snapshot["queue"]["last_popped_s"] < change_s
        assert any(r.start_time_s >= change_s for r in reference.records)
        before, after = (env.resolve(jobs[0], t).node_power_w for t in (0.0, change_s))
        assert before != after  # lint: exact-float
        self.assert_identical(resumed, reference)


class TestForecastDegradation:
    def test_long_outage_triggers_degraded_mode(self, env, ci, jobs):
        feed = ForecastFeed(
            ForecastIndex(ci),
            outages=(FeedOutage(1 * SECONDS_PER_DAY, 2.5 * SECONDS_PER_DAY),),
        )
        result = (
            faulted_scheduler(env, ci, fault_config=None, feed=feed)
            .simulation(jobs, T_END)
            .run_to_completion()
        )
        assert result.faults.n_degraded_ticks > 0
        assert result.reconciles()

    def test_degraded_run_is_deterministic(self, env, ci, jobs):
        def once():
            feed = ForecastFeed(
                ForecastIndex(ci),
                outages=(FeedOutage(1 * SECONDS_PER_DAY, 2.5 * SECONDS_PER_DAY),),
            )
            return (
                faulted_scheduler(env, ci, feed=feed)
                .simulation(jobs, T_END)
                .run_to_completion()
            )

        assert_identical(once(), once())

    def test_fresh_feed_never_degrades(self, env, ci, jobs):
        feed = ForecastFeed(ForecastIndex(ci))
        result = (
            faulted_scheduler(env, ci, fault_config=None, feed=feed)
            .simulation(jobs, T_END)
            .run_to_completion()
        )
        assert result.faults.n_degraded_ticks == 0
        assert result.faults.n_degraded_starts == 0

    def test_resume_under_outage_is_bit_identical(self, env, ci, jobs):
        def build():
            feed = ForecastFeed(
                ForecastIndex(ci),
                outages=(FeedOutage(1 * SECONDS_PER_DAY, 2.5 * SECONDS_PER_DAY),),
            )
            return faulted_scheduler(env, ci, feed=feed)

        reference = build().simulation(jobs, T_END).run_to_completion()
        sim = build().simulation(jobs, T_END)
        # Step until simulated time is inside the outage window.
        while sim._queue.now_s < 1.5 * SECONDS_PER_DAY:
            if not sim.step():
                break
        snapshot = json.loads(json.dumps(sim.state_dict()))
        resumed = build().simulation(jobs, T_END)
        resumed.load_state_dict(snapshot)
        assert_identical(resumed.run_to_completion(), reference)


class TestCompareFaultPassthrough:
    def test_compare_carries_fault_accounting(self, env, ci, jobs):
        comparison = compare_rigid_malleable(
            jobs, T_END, env, ci, n_nodes=64, seed=5, fault_config=FAULTS
        )
        assert comparison.rigid.faults.n_failures > 0
        assert comparison.malleable.faults.n_failures > 0
        assert comparison.rigid.reconciles()
        assert comparison.malleable.reconciles()

    def test_stale_after_must_be_positive(self, env, ci):
        with pytest.raises(SchedulingError):
            MalleableScheduler(64, env, ci, stale_after_s=0.0)
