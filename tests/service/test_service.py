"""FacilityService end-to-end: coalescing, fairness, parity, kill/resume."""

import asyncio
import json

import pytest

from repro.api import FacilitySession
from repro.errors import ConfigurationError, ServiceError
from repro.node.node_power import NodePowerModel
from repro.service import (
    AdmissionController,
    FacilityCore,
    FacilityService,
    ServiceRequest,
    SessionParams,
)
from repro.service.envelope import METHODS, PROTOCOL_VERSION
from repro.service.router import (
    SCHED_MAX_DAYS,
    SCHED_MAX_NODES,
    payload_emissions,
    payload_sweep,
)
from repro.engine.runner import run_sweep
from repro.node import build_node_model
from repro.scheduler import StaticEnvironment, compare_rigid_malleable, comparison_trace
from repro.units import SECONDS_PER_DAY
from repro.workload import archer2_mix


_CI_190 = {
    "name": "flat-190",
    "start_ci_g_per_kwh": 190.0,
    "annual_reduction": 0.0,
    "floor_ci_g_per_kwh": 15.0,
}


def run(coro):
    return asyncio.run(coro)


SWEEP_PARAMS = {
    "overrides": {"utilisations": [0.5, 0.9], "node_counts": [1024]},
    "chunk_size": 256,
}


def counting_runner(counter):
    """run_sweep wrapped to count actual engine invocations."""

    def runner(spec, **kwargs):
        counter.append(spec.spec_hash)
        return run_sweep(spec, **kwargs)

    return runner


def open_service(**kwargs):
    kwargs.setdefault(
        "admission",
        AdmissionController(rate_per_s=10_000.0, burst=10_000.0, max_in_flight=8192),
    )
    return FacilityService(**kwargs)


def canonical(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


class TestCoalescing:
    def test_100_identical_sweeps_trigger_exactly_one_evaluation(self):
        async def main():
            evaluations = []
            service = open_service(
                core=FacilityCore(runner=counting_runner(evaluations))
            )
            requests = [
                ServiceRequest("sweep", SWEEP_PARAMS, tenant=f"t{i % 8}")
                for i in range(100)
            ]
            responses = await asyncio.gather(
                *(service.handle(r) for r in requests)
            )
            assert all(r.ok for r in responses)
            assert len(evaluations) == 1  # the instrumented engine ran once
            assert service.metrics.evaluations == {"sweep": 1}
            assert service.metrics.total_coalesced == 99
            assert service.metrics.reconciles()
            # Every waiter received the same payload object, not a copy.
            assert all(r.result is responses[0].result for r in responses)
            served_by = {r.served_by for r in responses}
            assert served_by == {"computed", "coalesced"}
            return responses

        responses = run(main())
        assert len({r.wire_json() for r in responses}) == 1

    def test_sequential_repeats_hit_the_shared_cache_not_the_flight(self):
        async def main():
            evaluations = []
            core = FacilityCore(runner=counting_runner(evaluations))
            service = open_service(core=core)
            first = await service.call("sweep", SWEEP_PARAMS)
            second = await service.call("sweep", SWEEP_PARAMS)
            assert first.ok and second.ok
            # The runner ran twice (no concurrent flight to join) but the
            # second run was answered by the shared in-memory cache, and
            # the cached replay serialises to the same bytes.
            assert len(evaluations) == 2
            assert core.memory_cache.hits >= 1
            assert first.wire_json() == second.wire_json()

        run(main())

    def test_distinct_questions_do_not_coalesce(self):
        async def main():
            service = open_service()
            responses = await asyncio.gather(
                service.call("classify_regime", {"at_ci_g_per_kwh": 25.0}),
                service.call("classify_regime", {"at_ci_g_per_kwh": 450.0}),
            )
            assert [r.result["regime"] for r in responses] == [
                "scope3-dominated",
                "scope2-dominated",
            ]
            assert service.metrics.total_coalesced == 0

        run(main())


class TestParityWithDirectSession:
    def test_sweep_payload_is_byte_identical_to_the_session_path(self):
        async def main():
            service = open_service()
            response = await service.call("sweep", SWEEP_PARAMS)
            assert response.ok
            return response

        response = run(main())
        session = FacilitySession()
        direct = payload_sweep(
            session.sweep(
                chunk_size=SWEEP_PARAMS["chunk_size"], **SWEEP_PARAMS["overrides"]
            )
        )
        assert canonical(direct) == canonical(response.result)

    def test_emissions_matches_the_session_row(self):
        async def main():
            service = open_service()
            return await service.call("emissions", {"n_nodes": 2048})

        response = run(main())
        direct = FacilitySession(n_nodes=2048).emissions()
        assert canonical(response.result) == canonical(payload_emissions(direct))

    def test_every_answer_is_strict_json(self):
        """RFC 8259 has no NaN or infinity, so every method's answer at its
        default params serialises with ``allow_nan=False``; an emissions
        row's undefined cells (no app, no regime crossing) are null."""

        async def main():
            service = open_service()
            return {method: await service.call(method, {}) for method in METHODS}

        responses = run(main())
        for method, response in responses.items():
            assert response.ok, method
            json.dumps(response.to_dict(), allow_nan=False)
        emissions = responses["emissions"].result
        assert emissions["perf_ratio"] is None
        assert emissions["crossing_year"] is None

    def test_advise_matches_the_session_recommendation(self):
        async def main():
            service = open_service()
            return await service.call("advise", {})

        response = run(main())
        score = FacilitySession().advise()
        assert response.result["config"]["label"] == score.config.label()
        assert response.result["score"] == pytest.approx(score.score)

    def test_sched_compare_runs_the_comparison_on_the_shared_trace(self):
        params = {"days": 2.0, "nodes": 64, "seed": 7, "scenario": "balanced"}

        async def main():
            service = open_service()
            return await service.call("sched_compare", params)

        response = run(main())
        assert response.ok
        jobs, ci = comparison_trace(
            archer2_mix(),
            days=2.0,
            nodes=64,
            seed=7,
            scenario="balanced",
            offered_load=0.95,
            malleable_fraction=0.5,
            slack_hours=2.0,
        )
        comparison = compare_rigid_malleable(
            jobs,
            2.0 * SECONDS_PER_DAY,
            StaticEnvironment(node_model=build_node_model()),
            ci,
            n_nodes=64,
            seed=7,
        )
        result = response.result
        assert result["n_jobs"] == len(jobs)
        assert result["rigid"]["tco2e"] == float(comparison.rigid_tco2e)
        assert result["malleable"]["tco2e"] == float(comparison.malleable_tco2e)
        assert result["malleable"]["n_shifted"] == comparison.malleable.n_shifted
        assert result["energy_saving_kwh"] == float(comparison.energy_saving_kwh)


#: Finite numbers whose answer would not be finite, or that do not fit
#: int64, each with the text its 400 must name.
OUT_OF_RANGE = {
    "advise-ci-overflows": ("advise", {"ci_g_per_kwh": 1e308}, "emissions_ratio"),
    "advise-emissions-overflow": ("advise", {"ci_g_per_kwh": 1e306}, "'ci_g_per_kwh': 1e+306"),
    "regime-ci-overflows": ("classify_regime", {"ci_g_per_kwh": 1e308}, "ci_g_per_kwh"),
    "sweep-node-count-past-int64": (
        "sweep",
        {"overrides": {"node_counts": [2**63]}},
        "node count must be positive and fit int64",
    ),
    "emissions-node-count-past-int64": ("emissions", {"n_nodes": 2**63}, "fit int64"),
}


class TestErrorsAndAdmission:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize(
        "method, params, named", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys()
    )
    def test_out_of_range_numbers_are_counted_bad_requests(self, method, params, named):
        async def main():
            service = open_service()
            response = await service.call(method, params)
            assert not response.ok
            assert response.error["code"] == "bad-request"
            assert response.error["type"] == "ConfigurationError"
            assert named in response.error["message"]
            json.loads(response.wire_json())
            assert service.metrics.failed == {"default": 1}
            assert service.metrics.reconciles()

        run(main())

    def test_unknown_method_is_a_structured_failure(self):
        async def main():
            service = open_service()
            response = await service.call("divine", {})
            assert not response.ok
            assert response.error["code"] == "unknown-method"
            assert service.metrics.failures_by_code == {"unknown-method": 1}
            assert service.metrics.reconciles()

        run(main())

    def test_bad_params_map_to_bad_request(self):
        async def main():
            service = open_service()
            response = await service.call("emissions", {"utilisation": 7.0})
            assert not response.ok
            assert response.error["code"] == "bad-request"
            assert response.error["type"] == "UnitError"  # ensure_fraction

        run(main())

    @pytest.mark.parametrize(
        "method, params",
        [
            ("classify_regime", {"at_ci_g_per_kwh": float("nan")}),
            ("classify_regime", {"at_ci_g_per_kwh": float("inf")}),
            ("classify_regime", {"at_ci_g_per_kwh": -5.0}),
            ("classify_regime", {"at_ci_g_per_kwh": "abc"}),
            ("classify_regime", {"at_ci_g_per_kwh": True}),
            ("efficiency", {"app_name": ["x"]}),
            ("efficiency", {"app_name": 7}),
            ("advise", {"priorities": {"energy_efficiency": float("nan")}}),
            ("advise", {"priorities": {"cost": float("inf")}}),
            ("sched_compare", {"days": float("nan"), "nodes": 64}),
            ("sched_compare", {"days": float("inf"), "nodes": 64}),
            ("sched_compare", {"days": 1.0, "nodes": float("inf")}),
            ("sched_compare", {"days": 1.0, "nodes": float("nan")}),
            ("sched_compare", {"days": SCHED_MAX_DAYS + 1.0, "nodes": 64}),
            ("sched_compare", {"days": 1.0, "nodes": SCHED_MAX_NODES + 1}),
            ("sched_compare", {"days": "abc", "nodes": 64}),
            ("sched_compare", {"days": True, "nodes": 64}),
            ("sched_compare", {"days": 1.0, "nodes": "64.5"}),
            ("sched_compare", {"days": 1.0, "nodes": 64.5}),
            ("sched_compare", {"days": 1.0, "nodes": 64, "seed": "x"}),
            ("sched_compare", {"days": 1.0, "nodes": 64, "seed": -1}),
            ("sched_compare", {"days": 1.0, "nodes": 64, "scenario": ["balanced"]}),
            ("sched_compare", {"days": 1.0, "nodes": 64, "offered_load": 0.0}),
            ("sched_compare", {"days": 1.0, "nodes": 64, "offered_load": 1.5}),
            ("sched_compare", {"days": 1.0, "nodes": 64, "offered_load": 50}),
            ("sched_compare", {"days": 1.0, "nodes": 64, "tick_minutes": 0.01}),
            ("sched_compare", {"days": 1.0, "nodes": 64, "tick_minutes": 4.9}),
            ("sched_compare", {"days": 1.0, "nodes": 64, "tick_minutes": 1441}),
            ("sched_compare", {"days": 1.0, "nodes": 64, "slack_hours": 24.5}),
            ("sched_compare", {"days": 1.0, "nodes": 64, "slack_hours": -1}),
            ("sched_compare", {"days": 1.0, "nodes": 64, "malleable_fraction": 1.5}),
            ("sched_compare", {"days": 1.0, "nodes": 64, "malleable_fraction": "half"}),
        ],
        ids=[
            "ci-nan",
            "ci-inf",
            "ci-negative",
            "ci-string",
            "ci-bool",
            "app-list",
            "app-int",
            "priority-nan",
            "priority-inf",
            "sched-days-nan",
            "sched-days-inf",
            "sched-nodes-inf",
            "sched-nodes-nan",
            "sched-days-over-cap",
            "sched-nodes-over-cap",
            "sched-days-string",
            "sched-days-bool",
            "sched-nodes-string",
            "sched-nodes-fraction",
            "sched-seed-string",
            "sched-seed-negative",
            "sched-scenario-list",
            "sched-load-zero",
            "sched-load-over-cap",
            "sched-load-fifty",
            "sched-tick-hundredth",
            "sched-tick-under-cap",
            "sched-tick-over-day",
            "sched-slack-over-cap",
            "sched-slack-negative",
            "sched-fraction-over-one",
            "sched-fraction-string",
        ],
    )
    def test_malformed_params_are_bad_requests(self, method, params, time_limit):
        async def main():
            service = open_service()
            response = await service.call(method, params)
            assert not response.ok
            assert response.error["code"] == "bad-request"
            assert response.error["type"] == "ConfigurationError"
            assert service.metrics.failures_by_code == {"bad-request": 1}
            assert service.metrics.reconciles()

        run(main())

    @pytest.mark.parametrize(
        "method, params, field",
        [
            ("emissions", {"lifetime_years": [6]}, "lifetime_years"),
            ("emissions", {"compute_activity": [0.3]}, "compute_activity"),
            ("emissions", {"n_nodes": [4]}, "n_nodes"),
            ("emissions", {"utilisation": "0.5"}, "utilisation"),
            ("emissions", {"embodied_per_node_tco2e": True}, "embodied_per_node_tco2e"),
            ("emissions", {"ci": {**_CI_190, "name": ["a"]}}, "name"),
            ("emissions", {"ci": {**_CI_190, "start_ci_g_per_kwh": "190"}}, "start_ci_g_per_kwh"),
            ("classify_regime", {"lifetime_years": "6"}, "lifetime_years"),
            ("advise", {"ci_g_per_kwh": "x"}, "ci_g_per_kwh"),
            ("efficiency", {"memory_activity": None}, "memory_activity"),
            ("sweep", {"chunk_size": "16"}, "chunk_size"),
            ("sweep", {"overrides": {"utilisations": ["0.5"]}}, "overrides.utilisations"),
            ("sweep", {"overrides": {"utilisations": [[0.5]]}}, "overrides.utilisations"),
            ("sweep", {"overrides": {"compute_activity": "0.3"}}, "overrides.compute_activity"),
            ("sweep", {"spec": {"kind": "sweep-spec", "node_counts": [True]}}, "spec.node_counts"),
        ],
        ids=[
            "lifetime-list",
            "compute-list",
            "nodes-list",
            "utilisation-numeric-string",
            "embodied-bool",
            "ci-name-list",
            "ci-start-string",
            "regime-lifetime-string",
            "advise-ci-string",
            "efficiency-memory-null",
            "sweep-chunk-string",
            "sweep-axis-numeric-string",
            "sweep-axis-nested-list",
            "sweep-field-numeric-string",
            "sweep-spec-axis-bool",
        ],
    )
    def test_wrong_typed_params_are_bad_requests_naming_the_field(
        self, method, params, field
    ):
        async def main():
            service = open_service()
            response = await service.call(method, params)
            assert not response.ok
            assert response.error["code"] == "bad-request"
            assert response.error["type"] == "ConfigurationError"
            assert field in response.error["message"]
            assert service.metrics.reconciles()

        run(main())

    @pytest.mark.parametrize(
        "method, params",
        [
            ("emissions", {"ci": "flat-190"}),
            ("emissions", {"ci": {"name": "a"}}),
            ("sweep", {"overrides": [1, 2]}),
            ("sweep", {"overrides": {"bogus": 1}}),
            ("sweep", {"overrides": {"utilisations": 0.5}}),
            ("sweep", {"overrides": {"frequencies": ["3GHz"]}}),
            ("sweep", {"overrides": {"ci_scenarios": 5}}),
            ("sweep", {"overrides": {"ci_scenarios": ["x"]}}),
            ("sweep", {"spec": "x"}),
        ],
        ids=[
            "ci-string",
            "ci-missing-keys",
            "overrides-list",
            "overrides-unknown-field",
            "overrides-axis-scalar",
            "overrides-unknown-frequency",
            "overrides-ci-number",
            "overrides-ci-string",
            "spec-string",
        ],
    )
    def test_malformed_documents_are_bad_requests(self, method, params):
        async def main():
            service = open_service()
            response = await service.call(method, params)
            assert not response.ok
            assert response.error["code"] == "bad-request"
            assert service.metrics.reconciles()

        run(main())

    def test_wrong_envelope_version_fails_without_dispatch(self):
        async def main():
            service = open_service()
            response = await service.handle(
                {"v": 99, "method": "emissions", "tenant": "t"}
            )
            assert not response.ok
            assert response.error["code"] == "unsupported-version"
            assert service.metrics.failed == {"t": 1}
            assert service.metrics.reconciles()

        run(main())

    def test_rate_limited_tenant_gets_structured_429(self):
        async def main():
            service = FacilityService(
                admission=AdmissionController(rate_per_s=1.0, burst=2.0),
                clock=lambda: 0.0,
            )
            outcomes = [
                await service.call(
                    "classify_regime", {"at_ci_g_per_kwh": 190.0}, tenant="noisy"
                )
                for _ in range(5)
            ]
            refused = [r for r in outcomes if not r.ok]
            assert len(refused) == 3
            assert all(r.error["code"] == "rate-limited" for r in refused)
            assert all(r.error["retry_after_s"] > 0 for r in refused)
            assert service.metrics.rejections_by_code == {"rate-limited": 3}
            assert service.metrics.reconciles()

        run(main())

    def test_depth_shedding_under_concurrency(self):
        async def main():
            service = FacilityService(
                admission=AdmissionController(
                    rate_per_s=1000.0, burst=1000.0, max_in_flight=1
                ),
                clock=lambda: 0.0,
            )
            responses = await asyncio.gather(
                *(
                    service.call("classify_regime", {"at_ci_g_per_kwh": 20.0 + i})
                    for i in range(10)
                )
            )
            assert sum(r.ok for r in responses) == 1
            shed = [r for r in responses if not r.ok]
            assert all(r.error["code"] == "overloaded" for r in shed)
            assert service.metrics.reconciles()

        run(main())

    def test_core_and_cache_dir_are_exclusive(self):
        with pytest.raises(ConfigurationError):
            FacilityService(core=FacilityCore(), cache_dir="/tmp/x")


class TestPointEvaluationCount:
    """Each operating point is evaluated across all apps in one array call."""

    def test_busy_power_calls_per_request(self, monkeypatch):
        calls = []
        busy_power_w = NodePowerModel.busy_power_w

        def counting(self, *args, **kwargs):
            calls.append(args)
            return busy_power_w(self, *args, **kwargs)

        monkeypatch.setattr(NodePowerModel, "busy_power_w", counting)
        core = FacilityCore()
        core.advise(SessionParams())
        # Six candidates, the baseline among them, plus the emissions point.
        assert len(calls) <= 7
        calls.clear()
        core.efficiency(SessionParams())
        assert len(calls) == 2  # baseline and candidate, across all curated apps


class TestStatePersistence:
    def test_idle_round_trip_is_lossless_and_json_safe(self):
        async def main():
            service = open_service()
            await service.call("emissions", {})
            await service.call("divine", {})  # one failure on the books
            snapshot = json.loads(json.dumps(service.state_dict()))
            restored = FacilityService()
            restored.load_state_dict(snapshot)
            assert restored.state_dict() == service.state_dict()

        run(main())

    def test_kill_mid_flight_folds_in_flight_into_failed(self):
        async def main():
            service = open_service()
            victim = asyncio.ensure_future(
                service.call("sweep", SWEEP_PARAMS, tenant="t0")
            )
            await asyncio.sleep(0)
            assert service.in_flight == 1
            snapshot = service.state_dict()
            assert snapshot["in_flight"] == {"t0": 1}
            assert len(snapshot["inflight_keys"]) == 1
            victim.cancel()
            await asyncio.gather(victim, return_exceptions=True)

            restored = FacilityService()
            restored.load_state_dict(snapshot)
            assert restored.metrics.lost_to_restart == 1
            assert restored.metrics.failures_by_code["lost-to-restart"] == 1
            assert restored.metrics.reconciles()
            # The restored service keeps serving and keeps its books.
            response = await restored.call("emissions", {}, tenant="t0")
            assert response.ok
            assert restored.metrics.reconciles()

        run(main())

    def test_load_refuses_while_requests_are_in_flight(self):
        async def main():
            service = open_service()
            task = asyncio.ensure_future(service.call("sweep", SWEEP_PARAMS))
            await asyncio.sleep(0)
            with pytest.raises(ServiceError):
                service.load_state_dict(FacilityService().state_dict())
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)

        run(main())

    def test_drain_settles_the_request_plane(self):
        async def main():
            service = open_service()
            tasks = [
                asyncio.ensure_future(service.call("emissions", {"n_nodes": n}))
                for n in (100, 200, 300)
            ]
            await service.drain()
            assert service.in_flight == 0
            responses = await asyncio.gather(*tasks)
            assert all(r.ok for r in responses)

        run(main())


class TestSharedCore:
    def test_sessions_and_service_share_one_cache(self):
        async def main():
            evaluations = []
            core = FacilityCore(runner=counting_runner(evaluations))
            service = open_service(core=core)
            session = FacilitySession(core=core)
            session.sweep(
                chunk_size=SWEEP_PARAMS["chunk_size"], **SWEEP_PARAMS["overrides"]
            )
            response = await service.call("sweep", SWEEP_PARAMS)
            assert response.ok
            assert len(evaluations) == 2
            assert response.result["summary"]["n_scenarios"] > 0
            # Both went through the same memory cache: second call was a hit.
            assert core.memory_cache.hits >= 1

        run(main())

    def test_envelope_version_is_v1(self):
        async def main():
            service = open_service()
            response = await service.call("emissions", {})
            assert response.to_dict()["v"] == PROTOCOL_VERSION == 1

        run(main())
