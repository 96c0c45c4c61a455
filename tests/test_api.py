"""FacilitySession façade: §2–§5 methods, sweep caching, validation."""

import numpy as np
import pytest

from repro.api import FacilitySession
from repro.core.efficiency import POST_BIOS_CONFIG, POST_FREQ_CONFIG
from repro.core.regimes import Regime
from repro.engine.plan import CIScenario, SweepSpec
from repro.errors import ConfigurationError, HpcemError


class TestEmissions:
    def test_winter_2022_is_scope2_dominated(self):
        session = FacilitySession(ci_g_per_kwh=190.0)
        emissions = session.emissions()
        assert emissions["scope2_share"] > 0.5
        assert session.classify_regime() is Regime.SCOPE2_DOMINATED

    def test_green_grid_is_scope3_dominated(self):
        session = FacilitySession(ci_g_per_kwh=15.0)
        assert session.classify_regime() is Regime.SCOPE3_DOMINATED
        assert session.emissions()["scope2_share"] < 0.5

    def test_decarbonising_scenario_uses_lifetime_average(self):
        flat = FacilitySession(ci_g_per_kwh=190.0)
        falling = FacilitySession(
            ci_g_per_kwh=CIScenario.decarbonising(190.0, 0.07)
        )
        assert falling.core.mean_ci_g_per_kwh(falling.params) < flat.core.mean_ci_g_per_kwh(
            flat.params
        )
        assert falling.emissions()["scope2_tco2e"] < flat.emissions()["scope2_tco2e"]

    def test_emissions_model_matches_point_evaluation(self):
        session = FacilitySession()
        model = session.core.emissions_model(session.params)
        assert model.annual_energy_kwh() == pytest.approx(
            session.emissions()["annual_energy_kwh"]
        )

    def test_invalid_parameters_rejected_at_construction(self):
        with pytest.raises(HpcemError):
            FacilitySession(utilisation=1.5)
        with pytest.raises(HpcemError):
            FacilitySession(n_nodes=0)


class TestEfficiencyAndAdvice:
    def test_efficiency_reports_curated_apps(self):
        rows = FacilitySession().efficiency(POST_FREQ_CONFIG)
        assert len(rows) >= 5
        assert all(0.0 < row.perf_ratio <= 1.2 for row in rows)

    def test_efficiency_single_app_and_unknown(self):
        session = FacilitySession()
        rows = session.efficiency(POST_BIOS_CONFIG, app_name="VASP TiO2")
        assert len(rows) == 1 and rows[0].app_name == "VASP TiO2"
        with pytest.raises(ConfigurationError):
            session.efficiency(app_name="No Such Code")

    def test_advise_reproduces_paper_choice(self):
        best = FacilitySession(ci_g_per_kwh=190.0).advise()
        assert best.config.label() == "2.0GHz / performance-determinism"


class TestSweep:
    def test_default_sweep_covers_freq_mode_ci_grid(self):
        result = FacilitySession().sweep()
        assert len(result) == 3 * 2 * 4  # frequencies × modes × default CI scenarios

    def test_repeated_sweeps_hit_memory_cache(self):
        session = FacilitySession()
        first = session.sweep()
        second = session.sweep()
        assert not first.meta.memory_hit
        assert second.meta.memory_hit
        for name in first.columns:
            assert np.array_equal(
                first.columns[name], second.columns[name], equal_nan=True
            )

    def test_cache_dir_persists_across_sessions(self, tmp_path):
        first = FacilitySession(cache_dir=tmp_path).sweep()
        replay = FacilitySession(cache_dir=tmp_path).sweep()
        assert replay.meta.computed_chunks == 0
        for name in first.columns:
            assert first.columns[name].tobytes() == replay.columns[name].tobytes()

    def test_overrides_and_spec_are_mutually_exclusive(self):
        session = FacilitySession()
        with pytest.raises(ConfigurationError):
            session.sweep(SweepSpec(), utilisations=(0.5,))

    def test_overrides_reach_the_spec(self):
        result = FacilitySession().sweep(utilisations=(0.25, 0.5, 0.75))
        assert sorted(set(result.columns["utilisation"])) == [0.25, 0.5, 0.75]


def same_row(a: dict, b: dict) -> bool:
    """Scalar-row equality that also equates NaN cells (e.g. perf_ratio)."""
    import json

    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestThinClientOfTheServiceCore:
    """Post-service refactor: same surface, shared core."""

    def test_methods_delegate_to_the_same_core_answers(self):
        session = FacilitySession(ci_g_per_kwh=190.0)
        core = session.core
        assert same_row(session.emissions(), core.emissions(session.params))
        assert session.classify_regime() is core.classify_regime(session.params)

    def test_sessions_can_share_one_core_and_its_caches(self):
        from repro.service import FacilityCore

        core = FacilityCore()
        a = FacilitySession(core=core)
        b = FacilitySession(core=core)
        assert a.core is b.core
        a.sweep()
        assert b.sweep().meta.memory_hit  # b rides a's cache

    def test_core_and_cache_dir_are_mutually_exclusive(self, tmp_path):
        from repro.service import FacilityCore

        with pytest.raises(ConfigurationError):
            FacilitySession(core=FacilityCore(), cache_dir=tmp_path)
