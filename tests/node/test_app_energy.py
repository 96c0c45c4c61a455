"""Application-on-node evaluation tests — the Tables 3/4 engine."""

import pytest

from repro.node.app_energy import compare_points, evaluate_app, evaluate_apps
from repro.node.calibration import build_node_model
from repro.node.determinism import DeterminismMode, DeterminismModel
from repro.node.node_power import NodePowerConstants
from repro.node.pstates import FrequencySetting
from repro.workload.applications import (
    full_catalogue,
    paper_bios_benchmarks,
    paper_frequency_benchmarks,
)

#: The default calibration, and one with every power constant and both
#: determinism derates moved off their defaults.
NODE_MODELS = {
    "default": build_node_model(),
    "refitted": build_node_model(
        NodePowerConstants(
            idle_w=215.0, cpu_dynamic_w=437.5, memory_dynamic_w=61.3, stall_activity=0.41
        ),
        DeterminismModel(performance_power_derate=0.83, performance_boost_derate=0.97),
    ),
}


@pytest.fixture(scope="module")
def freq_apps():
    return paper_frequency_benchmarks()


class TestEvaluateApp:
    def test_reference_point_time_ratio_one(self, node_model, freq_apps):
        app = freq_apps["VASP CdTe"]
        run = evaluate_app(
            app, FrequencySetting.GHZ_2_25_TURBO, DeterminismMode.POWER, node_model
        )
        assert run.time_ratio == pytest.approx(1.0)

    def test_lower_frequency_stretches_time(self, node_model, freq_apps):
        app = freq_apps["LAMMPS Ethanol"]
        run = evaluate_app(
            app, FrequencySetting.GHZ_2_0, DeterminismMode.POWER, node_model
        )
        assert run.time_ratio > 1.3  # ~26 % perf loss

    def test_power_between_idle_and_max(self, node_model, freq_apps):
        for app in freq_apps.values():
            for setting in FrequencySetting:
                run = evaluate_app(
                    app, setting, DeterminismMode.PERFORMANCE, node_model
                )
                assert node_model.idle_power_w < run.node_power_w <= node_model.max_power_w()


class TestEvaluateAppsParity:
    """The batched evaluation is elementwise the per-app one, bit for bit."""

    @pytest.mark.parametrize("model", list(NODE_MODELS.values()), ids=list(NODE_MODELS))
    @pytest.mark.parametrize("mode", list(DeterminismMode), ids=lambda m: m.name)
    @pytest.mark.parametrize("setting", list(FrequencySetting), ids=lambda s: s.name)
    def test_equals_per_app_oracle(self, model, mode, setting, per_app_run):
        apps = list(full_catalogue().values())
        expected = [per_app_run(app, setting, mode, model) for app in apps]
        assert evaluate_apps(apps, setting, mode, model) == expected
        assert [evaluate_app(app, setting, mode, model) for app in apps] == expected


class TestComparePoints:
    def test_compare_different_apps_rejected(self, node_model, freq_apps):
        a = evaluate_app(
            freq_apps["VASP CdTe"],
            FrequencySetting.GHZ_2_0,
            DeterminismMode.POWER,
            node_model,
        )
        b = evaluate_app(
            freq_apps["LAMMPS Ethanol"],
            FrequencySetting.GHZ_2_25_TURBO,
            DeterminismMode.POWER,
            node_model,
        )
        with pytest.raises(ValueError):
            compare_points(a, b)

    def test_self_comparison_is_unity(self, node_model, freq_apps):
        app = freq_apps["CASTEP Al Slab"]
        run = evaluate_app(
            app, FrequencySetting.GHZ_2_0, DeterminismMode.POWER, node_model
        )
        pair = compare_points(run, run)
        assert pair.perf_ratio == pytest.approx(1.0)
        assert pair.energy_ratio == pytest.approx(1.0)

    def test_power_ratio_identity(self, node_model, freq_apps):
        app = freq_apps["GROMACS 1400k"]
        base = evaluate_app(
            app, FrequencySetting.GHZ_2_25_TURBO, DeterminismMode.PERFORMANCE, node_model
        )
        cand = evaluate_app(
            app, FrequencySetting.GHZ_2_0, DeterminismMode.PERFORMANCE, node_model
        )
        pair = compare_points(cand, base)
        assert pair.power_ratio == pytest.approx(
            cand.node_power_w / base.node_power_w
        )


class TestTable4Reproduction:
    """Perf ratios must match the paper (they calibrate the profiles);
    energy ratios are model predictions that must stay in the paper's band."""

    def test_perf_ratios_match_paper(self, node_model, freq_apps):
        for app in freq_apps.values():
            base = evaluate_app(
                app,
                FrequencySetting.GHZ_2_25_TURBO,
                DeterminismMode.PERFORMANCE,
                node_model,
            )
            cand = evaluate_app(
                app, FrequencySetting.GHZ_2_0, DeterminismMode.PERFORMANCE, node_model
            )
            pair = compare_points(cand, base)
            assert pair.perf_ratio == pytest.approx(app.paper_perf_ratio, abs=0.015)

    def test_every_app_saves_energy_at_2ghz(self, node_model, freq_apps):
        """Paper: 'All the application benchmarks are more energy efficient
        at 2.0 GHz'."""
        for app in freq_apps.values():
            base = evaluate_app(
                app,
                FrequencySetting.GHZ_2_25_TURBO,
                DeterminismMode.PERFORMANCE,
                node_model,
            )
            cand = evaluate_app(
                app, FrequencySetting.GHZ_2_0, DeterminismMode.PERFORMANCE, node_model
            )
            assert compare_points(cand, base).energy_ratio < 1.0

    def test_energy_ratios_in_paper_band(self, node_model, freq_apps):
        """Paper band: 7-20 % savings. Allow modest model slack."""
        for app in freq_apps.values():
            base = evaluate_app(
                app,
                FrequencySetting.GHZ_2_25_TURBO,
                DeterminismMode.PERFORMANCE,
                node_model,
            )
            cand = evaluate_app(
                app, FrequencySetting.GHZ_2_0, DeterminismMode.PERFORMANCE, node_model
            )
            assert 0.75 < compare_points(cand, base).energy_ratio < 0.99


class TestTable3Reproduction:
    def test_bios_change_negligible_perf_cost(self, node_model):
        """Paper Table 3: perf ratios 0.99-1.00."""
        for app in paper_bios_benchmarks().values():
            base = evaluate_app(
                app, FrequencySetting.GHZ_2_25_TURBO, DeterminismMode.POWER, node_model
            )
            cand = evaluate_app(
                app,
                FrequencySetting.GHZ_2_25_TURBO,
                DeterminismMode.PERFORMANCE,
                node_model,
            )
            pair = compare_points(cand, base)
            assert pair.perf_ratio >= 0.985

    def test_bios_change_saves_energy(self, node_model):
        """Paper Table 3: energy ratios 0.90-0.94."""
        for app in paper_bios_benchmarks().values():
            base = evaluate_app(
                app, FrequencySetting.GHZ_2_25_TURBO, DeterminismMode.POWER, node_model
            )
            cand = evaluate_app(
                app,
                FrequencySetting.GHZ_2_25_TURBO,
                DeterminismMode.PERFORMANCE,
                node_model,
            )
            pair = compare_points(cand, base)
            assert 0.88 < pair.energy_ratio < 0.96
