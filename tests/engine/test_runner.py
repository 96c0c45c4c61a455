"""Runner: vectorized-vs-scalar equivalence, chunking, caching, results."""

import numpy as np
import pytest

from repro.core.regimes import advice
from repro.engine.cache import LRUCache, SweepStore
from repro.engine.plan import CIScenario, SweepSpec
from repro.engine.runner import (
    COLUMNS,
    REGIME_ORDER,
    PointTables,
    SweepResult,
    evaluate_scenario,
    run_sweep,
    run_sweep_scalar,
)
from repro.errors import ConfigurationError
from repro.node.calibration import build_node_model
from repro.node.determinism import DeterminismMode
from repro.node.node_power import NodePowerConstants
from repro.node.pstates import FrequencySetting
from repro.results import Result


def rich_spec(**overrides):
    """A grid exercising every axis, decarbonisation and the app columns."""
    fields = dict(
        ci_scenarios=(
            CIScenario.flat(25.0),
            CIScenario.flat(55.0),
            CIScenario.flat(190.0),
            CIScenario.decarbonising(190.0, 0.07),
        ),
        utilisations=(0.5, 0.9),
        node_counts=(1000, 5860),
        lifetimes_years=(4.0, 6.0),
        app_name="VASP TiO2",
    )
    fields.update(overrides)
    return SweepSpec(**fields)


def row_wise_csv(result: SweepResult) -> list[list[str]]:
    """The sweep CSV rendered one cell at a time: the reference for the
    column-wise ``SweepResult.to_csv_rows``."""
    codes = ("frequency_idx", "bios_mode_idx", "ci_idx", "regime_code")
    header = ["scenario", "frequency", "bios_mode", "ci_scenario", "regime", "target"]
    header += [name for name in COLUMNS if name not in codes]
    rows = [header]
    cols = result.columns
    for i in range(len(result)):
        regime = REGIME_ORDER[int(cols["regime_code"][i])]
        row = [
            str(i),
            result.spec.frequencies[int(cols["frequency_idx"][i])].value,
            result.spec.bios_modes[int(cols["bios_mode_idx"][i])].value,
            result.spec.ci_scenarios[int(cols["ci_idx"][i])].name,
            regime.value,
            advice(regime).value,
        ]
        for name in COLUMNS:
            if name in codes:
                continue
            if name == "n_nodes":
                row.append(str(int(cols[name][i])))
            else:
                row.append(repr(float(cols[name][i])))
        rows.append(row)
    return rows


class TestVectorizedMatchesScalar:
    def test_every_column_within_1e9(self):
        spec = rich_spec()
        vec = run_sweep(spec, chunk_size=17)
        sca = run_sweep_scalar(spec)
        for name in COLUMNS:
            a = vec.columns[name].astype(float)
            b = sca.columns[name].astype(float)
            assert np.array_equal(np.isnan(a), np.isnan(b)), name
            mask = ~np.isnan(b)
            scale = np.maximum(np.abs(b[mask]), 1.0)
            assert np.all(np.abs(a[mask] - b[mask]) / scale <= 1e-9), name

    def test_zip_combine_matches_scalar(self):
        spec = SweepSpec(
            combine="zip",
            frequencies=(FrequencySetting.GHZ_1_5, FrequencySetting.GHZ_2_0),
            bios_modes=(DeterminismMode.POWER,),
            ci_scenarios=(CIScenario.flat(25.0), CIScenario.flat(190.0)),
            utilisations=(0.5, 0.9),
            node_counts=(1000,),
            lifetimes_years=(6.0,),
        )
        vec = run_sweep(spec)
        sca = run_sweep_scalar(spec)
        for name in COLUMNS:
            assert np.allclose(
                vec.columns[name].astype(float),
                sca.columns[name].astype(float),
                rtol=1e-12,
                atol=0,
                equal_nan=True,
            ), name

    def test_crossing_year_branch_cases(self):
        """Decarbonising grids hit all regime_crossing_year branches."""
        spec = SweepSpec(
            frequencies=(FrequencySetting.GHZ_2_0,),
            bios_modes=(DeterminismMode.POWER,),
            ci_scenarios=(
                CIScenario.flat(190.0),  # rate == 0 -> no crossing
                CIScenario.decarbonising(190.0, 0.07),
                CIScenario.decarbonising(190.0, 0.5, floor_ci_g_per_kwh=100.0),
            ),
            utilisations=(0.2, 0.9),
            node_counts=(100, 5860),
            lifetimes_years=(6.0, 30.0),
        )
        vec = run_sweep(spec)
        sca = run_sweep_scalar(spec)
        a, b = vec.columns["crossing_year"], sca.columns["crossing_year"]
        assert np.array_equal(np.isnan(a), np.isnan(b))
        assert np.allclose(a[~np.isnan(a)], b[~np.isnan(b)], rtol=1e-12)

    def test_chunk_size_does_not_change_results(self):
        spec = rich_spec(app_name=None)
        whole = run_sweep(spec, chunk_size=10_000)
        tiny = run_sweep(spec, chunk_size=1)
        for name in COLUMNS:
            assert whole.columns[name].tobytes() == tiny.columns[name].tobytes()


class TestRunnerPlumbing:
    def test_rejects_custom_node_model_with_cache(self, tmp_path):
        spec = rich_spec(app_name=None)
        with pytest.raises(ConfigurationError):
            run_sweep(spec, node_model=build_node_model(), store=SweepStore(tmp_path))
        with pytest.raises(ConfigurationError):
            run_sweep(spec, node_model=build_node_model(), memory_cache=LRUCache())

    def test_rejects_tables_of_a_custom_node_model_with_cache(self, tmp_path):
        spec = rich_spec(app_name=None)
        custom = build_node_model(NodePowerConstants(idle_w=200.0))
        with pytest.raises(ConfigurationError, match="keyed by the spec hash"):
            run_sweep(spec, tables=PointTables(custom), store=SweepStore(tmp_path))
        with pytest.raises(ConfigurationError, match="keyed by the spec hash"):
            run_sweep(spec, tables=PointTables(custom), memory_cache=LRUCache())
        # Uncached, the tables' node model is the one evaluated.
        through_tables = run_sweep(spec, tables=PointTables(custom))
        direct = run_sweep(spec, node_model=custom)
        assert through_tables.columns["mean_power_kw"].tobytes() == (
            direct.columns["mean_power_kw"].tobytes()
        )
        assert through_tables.to_csv_rows() != run_sweep(spec).to_csv_rows()
        # Tables of the default calibration may be cached, built apart or not.
        run_sweep(spec, tables=PointTables(build_node_model()), memory_cache=LRUCache())

    def test_rejects_node_model_and_tables_together(self):
        model = build_node_model()
        with pytest.raises(ConfigurationError, match="not both"):
            run_sweep(rich_spec(app_name=None), node_model=model, tables=PointTables(model))

    def test_progress_reports_every_chunk_with_source(self, tmp_path):
        spec = rich_spec(app_name=None)
        store = SweepStore(tmp_path)
        events = []
        run_sweep(
            spec, chunk_size=16, store=store,
            progress=lambda done, total, src: events.append((done, total, src)),
        )
        assert [e[0] for e in events] == list(range(1, len(events) + 1))
        assert all(src == "computed" for _, _, src in events)
        events.clear()
        run_sweep(
            spec, chunk_size=16, store=store,
            progress=lambda done, total, src: events.append((done, total, src)),
        )
        assert all(src == "disk" for _, _, src in events)

    def test_result_arrays_are_read_only(self):
        result = run_sweep(rich_spec(app_name=None), chunk_size=16)
        with pytest.raises(ValueError):
            result.columns["total_tco2e"][0] = 0.0

    def test_evaluate_scenario_unknown_app_raises(self):
        spec = rich_spec(app_name="No Such Code")
        with pytest.raises(ConfigurationError):
            evaluate_scenario(spec, spec.scenario(0))


class TestSweepResult:
    def test_satisfies_result_protocol(self):
        result = run_sweep(rich_spec(app_name=None), chunk_size=64)
        assert isinstance(result, Result)
        assert result.result_id.startswith("SWEEP-")

    def test_to_dict_headline_matches_columns(self):
        result = run_sweep(rich_spec(app_name=None))
        summary = result.to_dict()
        total = result.columns["total_tco2e"]
        assert summary["headline"]["min_total_tco2e"] == pytest.approx(total.min())
        assert summary["n_scenarios"] == len(result)

    def test_row_decodes_labels_and_regime(self):
        result = run_sweep(rich_spec(app_name=None))
        row = result.row(0)
        assert row["frequency"] in ("1.5GHz", "2.0GHz", "2.25GHz+turbo")
        assert row["regime"] in ("scope3-dominated", "balanced", "scope2-dominated")
        assert isinstance(row["n_nodes"], int)

    def test_to_csv_rows_covers_every_scenario(self):
        result = run_sweep(rich_spec(app_name=None))
        rows = result.to_csv_rows()["scenarios"]
        assert len(rows) == len(result) + 1
        assert rows[0][0] == "scenario"
        assert all(len(r) == len(rows[0]) for r in rows)

    @pytest.mark.parametrize(
        "spec",
        [
            rich_spec(),
            rich_spec(app_name=None),
            SweepSpec(
                bios_modes=(DeterminismMode.PERFORMANCE,),
                ci_scenarios=(
                    CIScenario.flat(25.0),
                    CIScenario.decarbonising(190.0, 0.07),
                    CIScenario.flat(300.0),
                ),
                utilisations=(0.5, 0.7, 0.9),
                lifetimes_years=(4.0, 6.0, 13.0),
                combine="zip",
            ),
        ],
        ids=["app", "no-app", "zip"],
    )
    def test_to_csv_rows_equals_the_row_wise_rendering(self, spec):
        result = run_sweep(spec)
        crossing = result.columns["crossing_year"]
        assert np.isnan(crossing).any() and not np.isnan(crossing).all()
        assert result.to_csv_rows() == {"scenarios": row_wise_csv(result)}

    def test_only_a_cache_entry_of_its_own_spec_keeps_its_rows(self):
        spec = rich_spec(app_name=None)
        cached = run_sweep(spec, memory_cache=LRUCache())
        rows = cached.to_csv_rows()["scenarios"]
        assert cached.to_csv_rows()["scenarios"] is rows
        # Built by hand, on plain columns or under another spec with the
        # same number of rows, a result renders its own.
        by_hand = SweepResult(spec=spec, columns=dict(cached.columns))
        assert by_hand.to_csv_rows()["scenarios"] is not by_hand.to_csv_rows()["scenarios"]
        assert by_hand.to_csv_rows() == {"scenarios": rows}
        other = rich_spec(
            app_name=None,
            ci_scenarios=tuple(CIScenario.flat(ci) for ci in (20.0, 40.0, 80.0, 160.0)),
        )
        relabelled = SweepResult(spec=other, columns=cached.columns)
        assert relabelled.to_csv_rows() == {"scenarios": row_wise_csv(relabelled)}
        assert relabelled.to_csv_rows() != {"scenarios": rows}
        # An uncached sweep renders on every call.
        uncached = run_sweep(spec)
        assert uncached.to_csv_rows()["scenarios"] is not uncached.to_csv_rows()["scenarios"]

    def test_truncation_note_on_large_grids(self):
        result = run_sweep(rich_spec(app_name=None))
        table = result.to_table(max_rows=3)
        assert "more scenario(s)" in table

    def test_rejects_missing_columns(self):
        result = run_sweep(rich_spec(app_name=None))
        partial = {k: v for k, v in result.columns.items() if k != "total_tco2e"}
        with pytest.raises(ConfigurationError):
            SweepResult(spec=result.spec, columns=partial)
