"""Decision engine and reporting tests."""

import pytest

from repro.core.decision import (
    ARCHER2_WINTER_2022,
    DecisionEngine,
    Priorities,
)
from repro.core.efficiency import BASELINE_CONFIG, OperatingConfig
from repro.core.emissions import EmbodiedProfile, EmissionsModel
from repro.core.reporting import format_kw, format_ratio, render_table
from repro.errors import ConfigurationError
from repro.node.app_energy import compare_points
from repro.node.determinism import DeterminismMode
from repro.node.pstates import FrequencySetting


@pytest.fixture(scope="module")
def engine(node_model, mix):
    emissions = EmissionsModel(embodied=EmbodiedProfile(), mean_power_kw=3500.0)
    return DecisionEngine(
        mix=mix,
        node_model=node_model,
        emissions_model=emissions,
        ci_g_per_kwh=190.0,  # UK winter 2022 context
    )


class TestDecisionEngine:
    def test_candidates_cover_grid(self, engine):
        candidates = engine.candidates()
        assert len(candidates) == 6  # 3 settings × 2 modes

    def test_archer2_priorities_pick_paper_configuration(self, engine):
        """The paper's declared priorities must reproduce the paper's choice:
        Performance Determinism at the 2.0 GHz default."""
        best = engine.recommend(ARCHER2_WINTER_2022)
        assert best.config.setting is FrequencySetting.GHZ_2_0
        assert best.config.mode is DeterminismMode.PERFORMANCE

    def test_pure_performance_priorities_keep_turbo(self, engine):
        perf_first = Priorities(
            energy_efficiency=0.0,
            emissions_efficiency=0.0,
            cost=0.0,
            performance=1.0,
        )
        best = engine.recommend(perf_first)
        assert best.config.setting is FrequencySetting.GHZ_2_25_TURBO

    def test_performance_floor_excludes_1_5ghz(self, engine):
        floored = Priorities(
            energy_efficiency=10.0, performance=0.1, min_performance_ratio=0.85
        )
        best = engine.recommend(floored)
        assert best.config.setting is not FrequencySetting.GHZ_1_5
        # Without the floor, aggressive energy weighting drops to 1.5 GHz.
        unfloored = Priorities(
            energy_efficiency=10.0, performance=0.1, min_performance_ratio=0.0
        )
        assert (
            engine.recommend(unfloored).config.setting is FrequencySetting.GHZ_1_5
        )

    def test_ranking_sorted(self, engine):
        ranking = engine.ranking(ARCHER2_WINTER_2022)
        scores = [r.score for r in ranking]
        assert scores == sorted(scores, reverse=True)

    def test_baseline_scores_unity_ratios(self, engine):
        score = engine.score(BASELINE_CONFIG, ARCHER2_WINTER_2022)
        assert score.mean_perf_ratio == pytest.approx(1.0)
        assert score.mean_energy_ratio == pytest.approx(1.0)

    def test_impossible_floor_raises(self, engine):
        with pytest.raises(ConfigurationError):
            engine.recommend(Priorities(min_performance_ratio=1.0 + 1e-12))

    def test_bad_weights_rejected(self):
        with pytest.raises(ConfigurationError):
            Priorities(energy_efficiency=-1.0)
        with pytest.raises(ConfigurationError):
            Priorities(
                energy_efficiency=0.0, emissions_efficiency=0.0, cost=0.0, performance=0.0
            )
        for weight in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigurationError):
                Priorities(energy_efficiency=weight)
            with pytest.raises(ConfigurationError):
                Priorities(performance=weight)


class PerAppLoopEngine(DecisionEngine):
    """Reference: the engine before batching, which resolved the baseline
    and the candidate again for every app of every scored candidate."""

    def __init__(self, *args, run, **kwargs):
        super().__init__(*args, **kwargs)
        self.run = run

    def _mix_ratios(self, config):
        perf = 0.0
        energy = 0.0
        for app, weight in zip(self.mix.apps, self.mix.weights):
            base = self.run(app, self.baseline.setting, self.baseline.mode, self.node_model)
            cand = self.run(app, config.setting, config.mode, self.node_model)
            pair = compare_points(cand, base)
            perf += weight * pair.perf_ratio
            energy += weight * pair.energy_ratio
        return perf, energy


PRIORITY_SETS = (
    ARCHER2_WINTER_2022,
    Priorities(),
    Priorities(energy_efficiency=0.0, emissions_efficiency=0.0, cost=0.0, performance=1.0),
    Priorities(energy_efficiency=10.0, performance=0.1, min_performance_ratio=0.0),
)


class TestBatchedEngineParity:
    """Scores, rankings and recommendations equal the per-app loop's, bit for bit."""

    @pytest.mark.parametrize("ci", [5.0, 25.0, 55.0, 190.0, 300.0])
    @pytest.mark.parametrize(
        "baseline",
        [OperatingConfig(s, m) for m in DeterminismMode for s in FrequencySetting],
        ids=OperatingConfig.label,
    )
    def test_equals_per_app_loop(self, baseline, ci, node_model, mix, per_app_run):
        args = dict(
            mix=mix,
            node_model=node_model,
            emissions_model=EmissionsModel(embodied=EmbodiedProfile(), mean_power_kw=3500.0),
            ci_g_per_kwh=ci,
            baseline=baseline,
        )
        engine = DecisionEngine(**args)
        reference = PerAppLoopEngine(**args, run=per_app_run)
        for priorities in PRIORITY_SETS:
            for config in engine.candidates():
                assert engine.score(config, priorities) == reference.score(config, priorities)
            assert engine.ranking(priorities) == reference.ranking(priorities)
            assert engine.recommend(priorities) == reference.recommend(priorities)


class TestReporting:
    def test_format_helpers(self):
        assert format_ratio(0.934) == "0.93"
        assert format_ratio(None) == "-"
        assert format_kw(3219.6) == "3,220"

    def test_render_table_structure(self):
        table = render_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert lines[2].startswith("| a")
        assert all(len(line) == len(lines[1]) for line in lines[1:])

    def test_render_table_cell_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            render_table(["a", "b"], [["only-one"]])

    def test_render_table_needs_columns(self):
        with pytest.raises(ConfigurationError):
            render_table([], [])
