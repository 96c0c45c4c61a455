"""The point tables of FacilityCore: answers read from them equal fresh ones.

The record's CLI replays never run the point path, and perfbench builds
its expected bodies through the same core, so these tests are what holds
the tables to the fresh scalar path. Cells are compared by ``repr``, which
matches NaN with NaN and tells -0.0 from 0.0; sweep maps by their bytes.
"""

from __future__ import annotations

import itertools
import json

import pytest

from repro.core.decision import ARCHER2_WINTER_2022, DecisionEngine, Priorities
from repro.core.efficiency import OperatingConfig
from repro.core.emissions import EmbodiedProfile, EmissionsModel
from repro.engine.plan import CIScenario, SweepSpec
from repro.engine.runner import (
    POINT_TABLE_CAPACITY,
    PointTables,
    SweepResult,
    _build_context,
    evaluate_scenario,
    run_sweep,
)
from repro.errors import ConfigurationError
from repro.grid.trajectory import lifetime_average_ci
from repro.node.calibration import build_node_model
from repro.node.determinism import DeterminismMode
from repro.node.pstates import FrequencySetting
from repro.service import FacilityCore, SessionParams
from repro.service.router import payload_sweep
from repro.workload.mix import archer2_mix

CONFIGS = [
    OperatingConfig(setting, mode)
    for setting in FrequencySetting
    for mode in DeterminismMode
]
#: Flat CIs on each side of the 30 and 100 gCO2/kWh boundaries, plus a
#: decarbonising grid that crosses both.
CIS = [
    CIScenario.flat(25.0),
    CIScenario.flat(55.0),
    CIScenario.flat(190.0),
    CIScenario.decarbonising(190.0, 0.07),
]
PRIORITIES = [
    ARCHER2_WINTER_2022,
    Priorities(),
    Priorities(performance=5.0, min_performance_ratio=0.5),
]
#: Sweeps whose contexts must not depend on where their inputs were read.
CONTEXT_SPECS = {
    "app": SweepSpec(ci_scenarios=tuple(CIS), lifetimes_years=(4.0, 6.0), app_name="VASP TiO2"),
    "no-app": SweepSpec(ci_scenarios=tuple(CIS), compute_activity=0.55, memory_activity=0.25),
    "zip": SweepSpec(
        combine="zip",
        frequencies=(FrequencySetting.GHZ_1_5, FrequencySetting.GHZ_2_0),
        bios_modes=(DeterminismMode.POWER,),
        ci_scenarios=(CIS[0], CIS[2]),
        utilisations=(0.5, 0.9),
        node_counts=(1000,),
        lifetimes_years=(6.0,),
    ),
    "decarbonising": SweepSpec(ci_scenarios=(CIS[3],), lifetimes_years=(0.5, 6.0, 13.0)),
}
CONTEXT_MAPS = (
    "busy_map", "eff_map", "perf_map", "energy_map",
    "mean_ci_map", "ci_start", "ci_rate", "ci_floor",
)


def cells(row: dict) -> dict[str, str]:
    return {name: repr(value) for name, value in row.items()}


def fresh_row(params: SessionParams) -> dict:
    """The emissions row, every input resolved afresh (no tables)."""
    spec = SweepSpec(
        frequencies=(params.config.setting,),
        bios_modes=(params.config.mode,),
        ci_scenarios=(params.ci,),
        utilisations=(params.utilisation,),
        node_counts=(params.n_nodes,),
        lifetimes_years=(params.lifetime_years,),
        embodied_per_node_tco2e=params.embodied_per_node_tco2e,
        embodied_overhead_tco2e=params.embodied_overhead_tco2e,
        compute_activity=params.compute_activity,
        memory_activity=params.memory_activity,
    )
    return evaluate_scenario(spec, next(spec.scenarios()), build_node_model())


def fresh_mean_ci(params: SessionParams) -> float:
    return lifetime_average_ci(params.ci.trajectory(), params.lifetime_years)


def fresh_advice(params: SessionParams, priorities: Priorities):
    """A fresh engine over a fresh mix and node model, as before the tables."""
    model = EmissionsModel(
        embodied=EmbodiedProfile(
            total_tco2e=params.embodied_overhead_tco2e
            + params.embodied_per_node_tco2e * params.n_nodes,
            lifetime_years=params.lifetime_years,
        ),
        mean_power_kw=fresh_row(params)["mean_power_kw"],
    )
    engine = DecisionEngine(
        mix=archer2_mix(),
        node_model=build_node_model(),
        emissions_model=model,
        ci_g_per_kwh=fresh_mean_ci(params),
        baseline=params.config,
    )
    return engine.recommend(priorities)


def assert_point_answers(core: FacilityCore, params: SessionParams) -> None:
    assert cells(core.emissions(params)) == cells(fresh_row(params))
    assert repr(core.mean_ci_g_per_kwh(params)) == repr(fresh_mean_ci(params))


class TestParity:
    @pytest.mark.parametrize(
        "activity", [(0.3, 0.7), (0.55, 0.25)], ids=["default-split", "other-split"]
    )
    def test_emissions_and_mean_ci_equal_the_fresh_path(self, activity):
        core = FacilityCore()
        sessions = [
            SessionParams(
                n_nodes=n_nodes,
                lifetime_years=lifetime,
                ci=ci,
                compute_activity=activity[0],
                memory_activity=activity[1],
                config=config,
            )
            for config, ci, lifetime, n_nodes in itertools.product(
                CONFIGS, CIS, (0.5, 6.0, 13.0), (1, 9000)
            )
        ]
        for _ in range(2):  # the second pass reads every input from the tables
            for params in sessions:
                assert_point_answers(core, params)
        assert core.tables.operating.hits > 0
        assert core.tables.mean_ci.hits > 0

    def test_advice_equals_a_fresh_engine(self):
        core = FacilityCore()
        sessions = [SessionParams(ci=ci, config=config) for config in CONFIGS for ci in CIS]
        for _ in range(2):
            for params in sessions:
                for priorities in PRIORITIES:
                    assert core.advise(params, priorities) == fresh_advice(params, priorities)

    def test_regime_reads_the_same_mean_ci(self):
        core = FacilityCore()
        for ci in CIS:
            params = SessionParams(ci=ci, lifetime_years=13.0)
            for _ in range(2):
                assert core.classify_regime(params) == core.classify_regime(
                    params, fresh_mean_ci(params)
                )


class TestCompleteKeys:
    """Two sessions that differ in one key field get their own answers."""

    @pytest.mark.parametrize(
        "first, second",
        [
            ({"config": CONFIGS[0]}, {"config": CONFIGS[1]}),
            ({"compute_activity": 0.3}, {"compute_activity": 0.2}),
            ({"memory_activity": 0.7}, {"memory_activity": 0.6}),
            ({"ci": CIS[2]}, {"ci": CIS[3]}),
            ({"lifetime_years": 6.0, "ci": CIS[3]}, {"lifetime_years": 13.0, "ci": CIS[3]}),
        ],
        ids=["config", "compute_activity", "memory_activity", "ci", "lifetime"],
    )
    def test_second_session_gets_its_own_answer(self, first, second):
        core = FacilityCore()
        a, b = SessionParams(**first), SessionParams(**second)
        assert cells(fresh_row(a)) != cells(fresh_row(b))
        for params in (a, b, a, b):
            assert_point_answers(core, params)
            assert core.advise(params) == fresh_advice(params, ARCHER2_WINTER_2022)

    def test_averaging_steps_are_part_of_the_key(self):
        node_model = build_node_model()
        tables = PointTables(node_model)
        ci = CIScenario.decarbonising(190.0, 0.07)
        for steps in (10, 1000, 10):
            spec = SweepSpec(ci_scenarios=(ci,), ci_average_steps=steps)
            for scenario in spec.scenarios():
                kept = evaluate_scenario(spec, scenario, node_model, tables)
                assert cells(kept) == cells(evaluate_scenario(spec, scenario, node_model))


class TestBounds:
    def test_float_keyed_tables_stay_within_capacity(self):
        core = FacilityCore()
        for i in range(2 * POINT_TABLE_CAPACITY):
            params = SessionParams(
                ci=50.0 + 0.01 * i, compute_activity=0.1 + 1e-4 * i, memory_activity=0.5
            )
            core.emissions(params)
            core.mean_ci_g_per_kwh(params)
        assert len(core.tables.operating._entries) == POINT_TABLE_CAPACITY
        assert len(core.tables.mean_ci._entries) == POINT_TABLE_CAPACITY

    def test_runs_table_holds_one_entry_per_operating_config(self):
        core = FacilityCore()
        for config in CONFIGS:
            core.advise(SessionParams(config=config))
        assert set(core.runs) == set(CONFIGS)
        assert len(core.runs) == 6

    def test_tables_refuse_another_node_model(self):
        spec = SweepSpec()
        tables = PointTables(build_node_model())
        with pytest.raises(ConfigurationError, match="another node model"):
            evaluate_scenario(spec, next(spec.scenarios()), build_node_model(), tables)


class TestSweepsReadTheTables:
    """A sweep resolves its categorical inputs through the same tables."""

    @staticmethod
    def assert_same_context(context, reference) -> None:
        assert repr(context.idle_w) == repr(reference.idle_w)
        for name in CONTEXT_MAPS:
            got, want = getattr(context, name), getattr(reference, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("spec", CONTEXT_SPECS.values(), ids=CONTEXT_SPECS.keys())
    def test_context_is_bit_identical_through_cold_and_warm_tables(self, spec):
        reference = _build_context(spec)
        tables = PointTables(build_node_model())
        self.assert_same_context(_build_context(spec, tables=tables), reference)
        misses = (tables.operating.misses, tables.mean_ci.misses)
        self.assert_same_context(_build_context(spec, tables=tables), reference)
        # The second context read every input from the tables.
        assert (tables.operating.misses, tables.mean_ci.misses) == misses
        assert tables.operating.hits == len(spec.frequencies) * len(spec.bios_modes)
        assert tables.mean_ci.hits == len(spec.ci_scenarios) * len(spec.lifetimes_years)

    def test_context_reads_what_point_answers_kept(self):
        spec = CONTEXT_SPECS["decarbonising"]
        tables = PointTables(build_node_model())
        for scenario in spec.scenarios():
            evaluate_scenario(spec, scenario, tables.node_model, tables)
        misses = (tables.operating.misses, tables.mean_ci.misses)
        self.assert_same_context(_build_context(spec, tables=tables), _build_context(spec))
        assert (tables.operating.misses, tables.mean_ci.misses) == misses

    def test_a_core_sweep_fills_the_core_tables(self):
        core = FacilityCore()
        params = SessionParams(ci=CIS[3])
        spec = core.default_spec(params, ci_scenarios=(CIS[3],))
        core.sweep(params, spec)
        assert len(core.tables.operating._entries) == 6
        assert len(core.tables.mean_ci._entries) == 1
        hits = core.tables.mean_ci.hits
        core.mean_ci_g_per_kwh(params)  # a point answer reads the sweep's entry
        assert core.tables.mean_ci.hits == hits + 1

    def test_hit_miss_and_tables_free_sweeps_give_the_same_payload(self):
        core = FacilityCore()
        params = SessionParams()
        spec = core.default_spec(
            params, ci_scenarios=tuple(CIS), utilisations=(0.5, 0.9), lifetimes_years=(4.0, 13.0)
        )
        miss = core.sweep(params, spec, chunk_size=7)
        hit = core.sweep(params, spec, chunk_size=7)
        assert not miss.meta.memory_hit and hit.meta.memory_hit
        fresh = run_sweep(spec, chunk_size=7)

        def body(result: SweepResult) -> str:
            return json.dumps(payload_sweep(result), sort_keys=True, separators=(",", ":"))

        # The hit is serialised first, so it renders the entry's rows.
        assert body(hit) == body(miss) == body(fresh)

    def test_a_memory_hit_does_not_render_again(self, monkeypatch):
        renders = []
        render = SweepResult._render_csv

        def spy(result):
            renders.append(result.spec.spec_hash)
            return render(result)

        monkeypatch.setattr(SweepResult, "_render_csv", spy)
        core = FacilityCore()
        params = SessionParams()
        first = payload_sweep(core.sweep(params, chunk_size=16))
        assert len(renders) == 1
        second = payload_sweep(core.sweep(params, chunk_size=16))
        third = payload_sweep(core.sweep(params, chunk_size=16))
        assert len(renders) == 1
        # One list of rows, shared by every answer served from the entry.
        assert second["csv"]["scenarios"] is first["csv"]["scenarios"]
        assert third["csv"] == first["csv"]
        # Another sweep has an entry of its own, rendered once.
        other = payload_sweep(core.sweep(params, chunk_size=16, utilisations=(0.5,)))
        payload_sweep(core.sweep(params, chunk_size=16, utilisations=(0.5,)))
        assert len(renders) == 2 and other["csv"] != first["csv"]
