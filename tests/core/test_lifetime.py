"""Whole-life cost/emissions model tests."""

import pytest

from repro.core.lifetime import LifetimeCostModel


@pytest.fixture(scope="module")
def model():
    return LifetimeCostModel()


class TestPosition:
    def test_paper_claim_electricity_rivals_capital(self, model):
        """§1: at winter-2022 UK prices (~£0.30/kWh), lifetime electricity
        matches or exceeds the capital cost of an ARCHER2-class system."""
        position = model.position(
            mean_cabinet_power_kw=3220.0,
            electricity_gbp_per_kwh=0.30,
            ci_g_per_kwh=190.0,
        )
        assert position.electricity_share >= 0.40
        assert position.electricity_gbp == pytest.approx(
            3220.0 * 1.1 * 6 * 8766 * 0.30, rel=0.01
        )

    def test_historic_prices_capital_dominated(self, model):
        """At ~£0.08/kWh (the historic regime) capital dominates — the
        'historically' half of the §1 claim."""
        position = model.position(3220.0, 0.08, 190.0)
        assert position.electricity_share < 0.40

    def test_emissions_totals(self, model):
        position = model.position(3220.0, 0.2, 190.0)
        assert position.scope3_tco2e == pytest.approx(10_000.0)
        assert position.scope2_tco2e > position.scope3_tco2e  # UK 2022 CI

    def test_validation(self, model):
        with pytest.raises(Exception):
            model.position(0.0, 0.2, 190.0)
        with pytest.raises(ValueError):
            LifetimeCostModel(overhead_factor=0.9)


class TestInterventionValue:
    def test_paper_savings_are_worth_millions(self, model):
        """690 kW over a 6-year life at £0.30/kWh ≈ £12M."""
        value = model.intervention_value(3220.0, 2530.0, 0.30, 190.0)
        assert 8e6 < value["cost_saving_gbp"] < 15e6

    def test_scope2_saving_positive(self, model):
        value = model.intervention_value(3220.0, 2530.0, 0.30, 190.0)
        assert value["scope2_saving_tco2e"] > 1000.0

    def test_share_falls_after_intervention(self, model):
        value = model.intervention_value(3220.0, 2530.0, 0.30, 190.0)
        assert value["electricity_share_after"] < value["electricity_share_before"]

    def test_zero_reduction_zero_value(self, model):
        value = model.intervention_value(3220.0, 3220.0, 0.30, 190.0)
        assert value["cost_saving_gbp"] == pytest.approx(0.0)
        assert value["scope2_saving_tco2e"] == pytest.approx(0.0)
