"""Service accounting identity: requests_in == served + rejected + failed."""

from repro.service.metrics import ServiceMetrics


class TestAccountingIdentity:
    def test_empty_metrics_reconcile(self):
        assert ServiceMetrics().reconciles()

    def test_identity_holds_per_tenant(self):
        metrics = ServiceMetrics()
        for _ in range(3):
            metrics.record_in("a")
        metrics.record_served("a")
        metrics.record_rejected("a", "rate-limited")
        metrics.record_failed("a", "bad-request")
        metrics.record_in("b")
        metrics.record_served("b", coalesced=True)
        assert metrics.reconciles()
        assert sum(metrics.requests_in.values()) == 4
        assert sum(metrics.served.values()) == 2
        assert metrics.total_coalesced == 1

    def test_unbalanced_tenant_breaks_reconciliation(self):
        metrics = ServiceMetrics()
        metrics.record_in("a")
        assert not metrics.reconciles()
        metrics.record_served("a")
        assert metrics.reconciles()

    def test_outcome_without_arrival_breaks_reconciliation(self):
        """A served count with no matching arrival is also a books error."""
        metrics = ServiceMetrics()
        metrics.record_served("ghost")
        assert not metrics.reconciles()

    def test_breakdown_counters(self):
        metrics = ServiceMetrics()
        metrics.record_in("a")
        metrics.record_rejected("a", "overloaded")
        metrics.record_in("a")
        metrics.record_failed("a", "internal-error")
        metrics.record_evaluation("sweep")
        metrics.record_evaluation("sweep")
        metrics.observe_in_flight(3)
        metrics.observe_in_flight(1)
        assert metrics.rejections_by_code == {"overloaded": 1}
        assert metrics.failures_by_code == {"internal-error": 1}
        assert metrics.evaluations == {"sweep": 2}
        assert metrics.in_flight_peak == 3


class TestPersistence:
    def test_state_round_trip_is_lossless(self):
        metrics = ServiceMetrics()
        metrics.record_in("a")
        metrics.record_served("a", coalesced=True)
        metrics.record_in("b")
        metrics.record_rejected("b", "rate-limited")
        metrics.record_evaluation("advise")
        metrics.observe_in_flight(5)
        metrics.lost_to_restart = 2
        restored = ServiceMetrics()
        restored.load_state_dict(metrics.state_dict())
        assert restored.state_dict() == metrics.state_dict()
        assert restored.reconciles() == metrics.reconciles()

    def test_state_dict_is_a_snapshot_not_a_view(self):
        metrics = ServiceMetrics()
        metrics.record_in("a")
        snapshot = metrics.state_dict()
        metrics.record_in("a")
        assert snapshot["requests_in"] == {"a": 1}
        assert metrics.requests_in == {"a": 2}
