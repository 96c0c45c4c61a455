"""End-to-end integration: campaign → telemetry → analysis → emissions.

Exercises the full pipeline on the scaled facility: simulate with an
intervention, persist telemetry to disk, reload it, detect the change point
blind, quantify the saving, and account the emissions impact against a
synthetic grid — the complete workflow the paper's methodology describes.
"""

import numpy as np
import pytest

from repro.analysis.changepoint import detect_single
from repro.core.emissions import EmbodiedProfile, EmissionsModel
from repro.core.interventions import assess_impact
from repro.grid.carbon_intensity import CarbonIntensityModel
from repro.grid.pricing import PricingModel, energy_cost_gbp
from repro.telemetry.io import load_npz, save_npz
from repro.units import SECONDS_PER_DAY


class TestFullPipeline:
    def test_persist_detect_assess(self, intervention_campaign, tmp_path):
        measured = intervention_campaign.measured_kw

        # 1. Persist and reload telemetry.
        path = tmp_path / "cabinet.npz"
        save_npz(measured, path)
        reloaded = load_npz(path)
        np.testing.assert_array_equal(reloaded.values, measured.values)

        # 2. Blind change-point detection finds one of the two interventions.
        detected = detect_single(reloaded)
        changes = intervention_campaign.config.schedule.change_times_s
        nearest = min(abs(detected.time_s - c) for c in changes)
        assert nearest < 3 * SECONDS_PER_DAY

        # 3. Impact assessment around the known change times.
        impacts = [
            assess_impact(reloaded, c, settle_s=SECONDS_PER_DAY) for c in changes
        ]
        assert all(impact.saving > 0 for impact in impacts)

    def test_emissions_accounting_from_campaign(self, intervention_campaign, rng):
        measured = intervention_campaign.measured_kw
        ci_model = CarbonIntensityModel(mean_ci_g_per_kwh=190.0)
        ci = ci_model.series(
            measured.t_start_s,
            measured.t_end_s + 900.0,
            900.0,
            rng,
        )
        ci = ci.slice(measured.t_start_s, measured.t_end_s + 1.0)
        assert len(ci) == len(measured)

        scope2 = EmissionsModel.scope2_from_series(measured, ci)
        assert scope2 > 0

        # Cross-check against the flat-CI approximation: within noise.
        flat = EmissionsModel(
            embodied=EmbodiedProfile(), mean_power_kw=measured.mean()
        )
        flat_annualised = flat.scope2_tco2e_per_year(ci.mean())
        span_years = measured.span_s / (365.2425 * 86_400.0)
        assert scope2 == pytest.approx(flat_annualised * span_years, rel=0.2)

    def test_cost_accounting_reflects_saving(self, intervention_campaign, rng):
        """Electricity cost after both interventions is lower per unit time."""
        measured = intervention_campaign.measured_kw
        ci_model = CarbonIntensityModel(mean_ci_g_per_kwh=190.0)
        ci = ci_model.series(
            measured.t_start_s, measured.t_end_s + 900.0, 900.0, rng
        ).slice(measured.t_start_s, measured.t_end_s + 1.0)
        prices = PricingModel(volatility=0.0).price_from_ci(ci)

        changes = intervention_campaign.config.schedule.change_times_s
        before_window = (measured.t_start_s, changes[0])
        after_window = (changes[1] + SECONDS_PER_DAY, measured.t_end_s + 1.0)

        def window_cost_per_day(window):
            power_w = measured.slice(*window).scale_values(1e3)
            price = prices.slice(*window)
            days = (window[1] - window[0]) / SECONDS_PER_DAY
            return energy_cost_gbp(power_w, price) / days

        assert window_cost_per_day(after_window) < window_cost_per_day(before_window)

    def test_job_accounting_consistency(self, intervention_campaign):
        sim = intervention_campaign.simulation
        by_setting = sim.node_hours_by_setting()
        assert sum(by_setting.values()) == pytest.approx(sim.total_node_hours(), rel=1e-9)

    def test_utilisation_and_power_correlated(self, baseline_campaign):
        """Sanity: cabinet power moves with busy-node count."""
        measured = baseline_campaign.measured_kw
        trace = baseline_campaign.simulation.trace
        busy = trace.sample_busy_nodes(measured.times_s)
        valid = ~np.isnan(measured.values)
        corr = np.corrcoef(busy[valid], measured.values[valid])[0, 1]
        assert corr > 0.9
