"""Operating campaigns: multi-month facility simulations with interventions.

A campaign ties every substrate together — workload generation, backfill
scheduling, node power physics, intervention schedule, facility roll-up and
metering — to produce the synthetic equivalent of the paper's measurement
windows:

* Figure 1: Dec 2021 – Apr 2022 baseline (no interventions).
* Figure 2: Apr – May 2022 with the BIOS change mid-window.
* Figure 3: Nov – Dec 2022 with the frequency-default change mid-window.

The simulation starts ``warmup_s`` before the reporting window so the
facility is already full when reporting begins (the real windows observe a
long-running service, not a cold start).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..facility.archer2 import archer2_inventory
from ..facility.inventory import FacilityInventory
from ..node.calibration import build_node_model
from ..node.node_power import NodePowerModel
from ..scheduler.accounting import SimulationResult
from ..scheduler.backfill import BackfillScheduler
from ..telemetry.meters import MeterSpec, PowerMeter
from ..telemetry.recorder import CabinetPowerRecorder
from ..telemetry.series import TimeSeries
from ..units import SECONDS_PER_DAY, ensure_nonnegative, ensure_positive
from ..workload.generator import JobStreamConfig, JobStreamGenerator
from ..workload.mix import WorkloadMix, archer2_mix
from .interventions import (
    InterventionSchedule,
    OperatingState,
    ScheduledEnvironment,
    InterventionImpact,
    assess_impact,
)

__all__ = ["CampaignConfig", "CampaignResult", "run_campaign"]


@dataclass(frozen=True)
class CampaignConfig:
    """Everything needed to reproduce one measurement window."""

    duration_s: float
    schedule: InterventionSchedule = field(
        default_factory=lambda: InterventionSchedule(OperatingState())
    )
    inventory: FacilityInventory = field(default_factory=archer2_inventory)
    node_model: NodePowerModel = field(default_factory=build_node_model)
    mix: WorkloadMix = field(default_factory=archer2_mix)
    stream: JobStreamConfig | None = None
    seed: int = 2022
    warmup_s: float = 10 * SECONDS_PER_DAY
    sample_interval_s: float = 900.0
    meter: MeterSpec = field(default_factory=MeterSpec)
    backfill_depth: int = 30

    def __post_init__(self) -> None:
        ensure_positive(self.duration_s, "duration_s")
        ensure_nonnegative(self.warmup_s, "warmup_s")
        ensure_positive(self.sample_interval_s, "sample_interval_s")

    def resolved_stream(self) -> JobStreamConfig:
        """Stream config, defaulting the facility size from the inventory."""
        if self.stream is not None:
            return self.stream
        return JobStreamConfig(n_facility_nodes=self.inventory.n_nodes)


@dataclass(frozen=True)
class CampaignResult:
    """Output of one campaign: simulation truth plus telemetry."""

    config: CampaignConfig
    simulation: SimulationResult
    true_kw: TimeSeries
    measured_kw: TimeSeries

    @property
    def mean_cabinet_kw(self) -> float:
        """Mean measured compute-cabinet power over the window, kW."""
        return self.measured_kw.mean()

    def utilisation(self) -> float:
        """Mean node utilisation over the reporting window."""
        trace = self.simulation.trace
        times = self.measured_kw.times_s
        busy = trace.sample_busy_nodes(times)
        return float(busy.mean()) / self.simulation.n_nodes

    def impacts(self, settle_s: float = 2 * SECONDS_PER_DAY) -> list[InterventionImpact]:
        """Before/after impact of each scheduled intervention, kW.

        Each intervention is measured inside its own window, from the end of
        the previous change's settle period (the series start for the first)
        up to the next change (the series end for the last), so a later step
        never leaks into an earlier one's means: the savings are the steps
        between consecutive :meth:`phase_means_kw`.
        """
        series = self.measured_kw
        interventions = self.config.schedule.interventions
        starts = [series.t_start_s, *(iv.time_s + settle_s for iv in interventions[:-1])]
        ends = [*(iv.time_s for iv in interventions[1:]), series.t_end_s + 1.0]
        return [
            assess_impact(series.slice(lo, hi), iv.time_s, iv.name, settle_s)
            for iv, lo, hi in zip(interventions, starts, ends)
        ]

    def phase_means_kw(self, settle_s: float = 2 * SECONDS_PER_DAY) -> list[float]:
        """Mean measured power in each inter-intervention phase, kW.

        Settle windows after each change are excluded from the following
        phase so the means describe steady states.
        """
        changes = self.config.schedule.change_times_s
        boundaries = [self.measured_kw.t_start_s, *changes, self.measured_kw.t_end_s + 1.0]
        means: list[float] = []
        for i, (lo, hi) in enumerate(zip(boundaries[:-1], boundaries[1:])):
            if i > 0:
                lo = lo + settle_s
            means.append(self.measured_kw.slice(lo, hi).mean())
        return means


def run_campaign(config: CampaignConfig) -> CampaignResult:
    """Execute a campaign and return truth + metered telemetry (in kW)."""
    rng = np.random.default_rng(config.seed)
    stream = config.resolved_stream()
    generator = JobStreamGenerator(config.mix, stream, rng)

    t_sim_start = -config.warmup_s
    jobs = generator.generate_until(config.duration_s, t_start_s=t_sim_start)

    environment = ScheduledEnvironment(
        node_model=config.node_model, schedule=config.schedule
    )
    scheduler = BackfillScheduler(
        config.inventory.n_nodes, backfill_depth=config.backfill_depth
    )
    sim = scheduler.run(jobs, config.duration_s, environment, t_start_s=t_sim_start)

    recorder = CabinetPowerRecorder(
        config.inventory, PowerMeter(config.meter, name="compute-cabinets")
    )
    times = np.arange(0.0, config.duration_s, config.sample_interval_s)
    true_w = recorder.true_power_w(sim.trace, times)
    true_kw = TimeSeries(times, true_w / 1e3, "compute-cabinets/true-kw")
    measured_w = recorder.meter.sample_function(
        lambda t: recorder.true_power_w(sim.trace, t), 0.0, config.duration_s, rng
    )
    measured_kw = measured_w.scale_values(1e-3)

    return CampaignResult(
        config=config, simulation=sim, true_kw=true_kw, measured_kw=measured_kw
    )
