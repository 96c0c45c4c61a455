"""Runner: vectorized-vs-scalar equivalence, chunking, caching, results."""

import numpy as np
import pytest

from repro.engine.cache import LRUCache, SweepStore
from repro.engine.plan import CIScenario, SweepSpec
from repro.engine.runner import (
    COLUMNS,
    SweepResult,
    evaluate_scenario,
    run_sweep,
    run_sweep_scalar,
)
from repro.errors import ConfigurationError
from repro.node.calibration import build_node_model
from repro.node.determinism import DeterminismMode
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

    def test_truncation_note_on_large_grids(self):
        result = run_sweep(rich_spec(app_name=None))
        table = result.to_table(max_rows=3)
        assert "more scenario(s)" in table

    def test_rejects_missing_columns(self):
        result = run_sweep(rich_spec(app_name=None))
        partial = {k: v for k, v in result.columns.items() if k != "total_tco2e"}
        with pytest.raises(ConfigurationError):
            SweepResult(spec=result.spec, columns=partial)
