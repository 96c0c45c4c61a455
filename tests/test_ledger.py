"""The one counter ledger behind the service, monitor and scheduler accounts."""

import json
from collections import Counter

import numpy as np
import pytest

from repro.facility.failures import FailureModel, FaultConfig
from repro.live.pipeline import PipelineMetrics
from repro.node.calibration import build_node_model
from repro.scheduler.accounting import FaultAccounting
from repro.scheduler.backfill import StaticEnvironment
from repro.scheduler.malleable import MalleableScheduler
from repro.service.metrics import ServiceMetrics
from repro.telemetry.series import TimeSeries
from repro.units import SECONDS_PER_DAY
from repro.workload.generator import JobStreamConfig, JobStreamGenerator
from repro.workload.mix import archer2_mix

#: The ``metrics`` keys of a v4 monitor checkpoint, in the order written.
PIPELINE_FIELDS = [
    "batches_in",
    "samples_in",
    "samples_processed",
    "samples_dropped",
    "samples_dead_lettered",
    "batches_dead_lettered",
    "samples_sanitised",
    "alerts_emitted",
    "processor_crashes",
    "processor_restarts",
    "processors_quarantined",
    "data_gaps_detected",
    "checkpoints_written",
    "watermark_time_s",
]

#: The keys of ``GET /v1/metrics``, in the order served.
SERVICE_FIELDS = [
    "requests_in",
    "served",
    "rejected",
    "failed",
    "coalesced",
    "evaluations",
    "rejections_by_code",
    "failures_by_code",
    "lost_to_restart",
    "in_flight_peak",
]


def service_metrics():
    metrics = ServiceMetrics()
    metrics.record_in("alice")
    metrics.record_served("alice", coalesced=True)
    metrics.record_in("bob")
    metrics.record_failed("bob", "bad-request")
    metrics.record_evaluation("sweep")
    metrics.observe_in_flight(3)
    return metrics


def pipeline_metrics():
    metrics = PipelineMetrics()
    metrics.samples_in["power_kw"] += 5
    metrics.samples_processed["power_kw"] += 4
    metrics.samples_dead_lettered["power_kw"] += 1
    metrics.processors_quarantined.append("power_kw:OnlineCusum")
    metrics.checkpoints_written = 2
    metrics.watermark_time_s = 900.0
    return metrics


class TestSnapshot:
    def test_field_order_is_pinned(self):
        assert list(PipelineMetrics().state_dict()) == PIPELINE_FIELDS
        assert list(ServiceMetrics().state_dict()) == SERVICE_FIELDS

    @pytest.mark.parametrize("make", [service_metrics, pipeline_metrics, FaultAccounting])
    def test_state_dict_is_plain_and_round_trips(self, make):
        ledger = make()
        state = ledger.state_dict()
        for name, value in state.items():
            assert type(value) in (dict, list, int, float), name
        restored = type(ledger)()
        restored.load_state_dict(json.loads(json.dumps(state)))
        assert restored.state_dict() == state
        assert restored == ledger

    def test_restored_counters_read_missing_keys_as_zero(self):
        restored = PipelineMetrics()
        restored.load_state_dict(pipeline_metrics().state_dict())
        assert isinstance(restored.samples_in, Counter)
        assert restored.samples_in["ci_g_per_kwh"] == 0
        assert "ci_g_per_kwh" not in restored.state_dict()["samples_in"]

    @pytest.mark.parametrize(
        "make,field,value,error",
        [
            (service_metrics, "served", {"alice": True}, TypeError),
            (service_metrics, "served", {"alice": -1}, ValueError),
            (service_metrics, "served", {1: 1}, TypeError),
            (service_metrics, "lost_to_restart", 1.5, TypeError),
            (pipeline_metrics, "processors_quarantined", [1], TypeError),
            (FaultAccounting, "wasted_energy_j", "1.0", TypeError),
        ],
    )
    def test_refused_snapshot_leaves_the_ledger_unchanged(self, make, field, value, error):
        ledger = make()
        before = ledger.state_dict()
        with pytest.raises(error, match=field):
            ledger.load_state_dict({**before, field: value})
        assert ledger.state_dict() == before


class TestIdentities:
    def test_service_identity_holds_per_tenant(self):
        metrics = service_metrics()
        assert metrics.reconciles()
        metrics.record_in("carol")
        assert not metrics.reconciles()

    def test_pipeline_identity_covers_every_key(self):
        metrics = pipeline_metrics()
        assert metrics.reconciles()
        metrics.samples_processed["ci_g_per_kwh"] += 1
        assert not metrics.reconciles()


def test_result_faults_do_not_alias_the_simulation():
    config = JobStreamConfig(
        n_facility_nodes=32, offered_load=0.9, mean_runtime_s=4 * 3600.0, max_job_nodes=16
    )
    jobs = JobStreamGenerator(archer2_mix(), config, np.random.default_rng(3)).generate_until(
        SECONDS_PER_DAY
    )
    t = np.arange(0.0, 3 * SECONDS_PER_DAY, 1800.0)
    ci = TimeSeries(t, np.full(t.shape, 80.0), "ci")
    faults = FaultConfig(model=FailureModel(mtbf_hours=50.0, mttr_hours=6.0), seed=7)
    scheduler = MalleableScheduler(
        32, StaticEnvironment(node_model=build_node_model()), ci, fault_config=faults
    )
    sim = scheduler.simulation(jobs, 2 * SECONDS_PER_DAY)
    result = sim.run_to_completion()
    assert result.faults.n_failures > 0
    before = result.faults.state_dict()
    result.faults.n_failures += 1
    result.faults.wasted_energy_j += 1.0
    assert sim.result().faults.state_dict() == before
