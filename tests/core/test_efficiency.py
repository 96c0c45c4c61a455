"""Efficiency metric and comparison-table tests."""

import pytest

from repro.core.efficiency import (
    BASELINE_CONFIG,
    POST_BIOS_CONFIG,
    POST_FREQ_CONFIG,
    BenchmarkComparison,
    OperatingConfig,
    compare_app,
    comparison_table,
)
from repro.node.app_energy import compare_points
from repro.node.determinism import DeterminismMode
from repro.node.pstates import FrequencySetting
from repro.workload.applications import full_catalogue, paper_frequency_benchmarks

CONFIGS = [OperatingConfig(s, m) for m in DeterminismMode for s in FrequencySetting]


class TestOperatingConfigs:
    def test_paper_story_configs_distinct(self):
        labels = {
            BASELINE_CONFIG.label(),
            POST_BIOS_CONFIG.label(),
            POST_FREQ_CONFIG.label(),
        }
        assert len(labels) == 3


class TestComparisons:
    def test_compare_app_row_shape(self, node_model):
        app = paper_frequency_benchmarks()["VASP CdTe"]
        row = compare_app(app, POST_FREQ_CONFIG, POST_BIOS_CONFIG, node_model)
        assert row.app_name == "VASP CdTe"
        assert row.nodes == 8
        assert 0 < row.perf_ratio <= 1.0
        assert 0 < row.energy_ratio < 1.0

    def test_errors_against_paper_small(self, node_model):
        app = paper_frequency_benchmarks()["VASP CdTe"]
        row = compare_app(app, POST_FREQ_CONFIG, POST_BIOS_CONFIG, node_model)
        assert abs(row.perf_ratio - row.paper_perf_ratio) < 0.02
        assert abs(row.energy_error) < 0.06

    def test_errors_none_without_paper_values(self, node_model):
        from repro.workload.applications import synthetic_archetypes

        app = synthetic_archetypes()["Climate/Ocean archetype"]
        row = compare_app(app, POST_FREQ_CONFIG, POST_BIOS_CONFIG, node_model)
        assert row.paper_perf_ratio is None
        assert row.energy_error is None

    def test_table_covers_all_apps(self, node_model):
        apps = paper_frequency_benchmarks()
        rows = comparison_table(apps, POST_FREQ_CONFIG, POST_BIOS_CONFIG, node_model)
        assert [r.app_name for r in rows] == list(apps)

    def test_identity_comparison(self, node_model):
        app = paper_frequency_benchmarks()["CASTEP Al Slab"]
        row = compare_app(app, BASELINE_CONFIG, BASELINE_CONFIG, node_model)
        assert row.perf_ratio == pytest.approx(1.0)
        assert row.energy_ratio == pytest.approx(1.0)


class TestBatchedTableParity:
    """Rows equal the per-app loop's, which evaluated both points per app."""

    @pytest.mark.parametrize("baseline", CONFIGS, ids=OperatingConfig.label)
    def test_equals_per_app_loop(self, baseline, node_model, per_app_run):
        apps = full_catalogue()
        for candidate in CONFIGS:
            expected = []
            for app in apps.values():
                pair = compare_points(
                    per_app_run(app, candidate.setting, candidate.mode, node_model),
                    per_app_run(app, baseline.setting, baseline.mode, node_model),
                )
                expected.append(
                    BenchmarkComparison(
                        app_name=app.name,
                        nodes=app.typical_nodes,
                        perf_ratio=pair.perf_ratio,
                        energy_ratio=pair.energy_ratio,
                        paper_perf_ratio=app.paper_perf_ratio,
                        paper_energy_ratio=app.paper_energy_ratio,
                    )
                )
            assert comparison_table(apps, candidate, baseline, node_model) == expected
            assert [
                compare_app(app, candidate, baseline, node_model) for app in apps.values()
            ] == expected
