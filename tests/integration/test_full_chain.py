"""Full-chain integration at ARCHER2 scale (short window).

One campaign through the BIOS intervention at full 5,860-node scale, then
blind change-point detection on its telemetry and an energy-conservation
check on its trace.
"""

import pytest

from repro.analysis.changepoint import detect_single
from repro.core.campaign import run_campaign
from repro.core.interventions import BiosDeterminismChange, InterventionSchedule
from repro.experiments.common import baseline_operating_state, figure_campaign_config
from repro.units import SECONDS_PER_DAY


@pytest.fixture(scope="module")
def campaign():
    schedule = InterventionSchedule(
        baseline_operating_state(),
        [BiosDeterminismChange(time_s=10 * SECONDS_PER_DAY)],
    )
    config = figure_campaign_config(20 * SECONDS_PER_DAY, schedule, seed=777)
    return run_campaign(config)


class TestFullChain:
    def test_blind_detection_finds_intervention(self, campaign):
        detected = detect_single(campaign.measured_kw)
        assert detected.time_s == pytest.approx(
            10 * SECONDS_PER_DAY, abs=1.5 * SECONDS_PER_DAY
        )
        assert detected.mean_after < detected.mean_before  # power went down

    def test_energy_accounting_closes(self, campaign):
        """Trace energy equals per-record energy exactly (conservation)."""
        sim = campaign.simulation
        record_energy = sum(r.node_power_w * r.node_seconds for r in sim.records)
        assert sim.trace.energy_j() == pytest.approx(record_energy, rel=1e-9)
