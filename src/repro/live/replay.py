"""Replayable monitoring scenarios shaped like the paper's figures.

Each scenario synthesises the two telemetry streams the live pipeline
watches — metered cabinet power (kW) and grid carbon intensity (gCO₂e/kWh)
— for a window shaped like one of the paper's measurement campaigns:

* ``fig2`` — the §4.1 BIOS determinism change, 3,220 → 3,010 kW;
* ``fig3`` — the §4.2 frequency-cap change, 3,010 → 2,530 kW;
* ``combined`` — both interventions in sequence (−690 kW total);
* ``regimes`` — a CI sweep through all three §2 regimes at steady power.

Power truth is piecewise-constant with a linear drain ramp at each change
(jobs started under the old state finish under it — the smear in Figures
2/3), then metered through the same :class:`~repro.telemetry.meters.
PowerMeter` model the campaign engine uses, so the live detector faces
realistic noise, quantisation and NaN dropouts rather than clean steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from ..errors import MonitoringError
from ..facility.archer2 import (
    ARCHER2_BASELINE_CABINET_POWER_KW,
    ARCHER2_POST_BIOS_CABINET_POWER_KW,
    ARCHER2_POST_FREQ_CABINET_POWER_KW,
)
from ..grid.carbon_intensity import CarbonIntensityModel
from ..telemetry.meters import MeterSpec, PowerMeter
from ..telemetry.series import TimeSeries
from ..units import SECONDS_PER_DAY
from .events import CI_STREAM, POWER_STREAM, StreamBatch, series_batches
from .faults import apply_faults, chaos_chain

__all__ = [
    "MonitorScenario",
    "piecewise_power_scenario",
    "figure2_scenario",
    "figure3_scenario",
    "combined_scenario",
    "regime_sweep_scenario",
    "SCENARIO_BUILDERS",
    "build_scenario",
    "scenario_sources",
]


@dataclass(frozen=True)
class MonitorScenario:
    """A replayable pair of telemetry streams plus its ground truth."""

    name: str
    description: str
    power_kw: TimeSeries
    ci_g_per_kwh: TimeSeries
    change_times_s: tuple[float, ...]
    levels_kw: tuple[float, ...]


def _piecewise_truth_w(
    levels_kw: tuple[float, ...],
    change_times_s: tuple[float, ...],
    settle_s: float,
) -> Callable[[np.ndarray], np.ndarray]:
    """True facility power: flat levels joined by linear drain ramps."""
    xp: list[float] = []
    fp: list[float] = []
    for i, change in enumerate(change_times_s):
        xp.extend([change, change + settle_s])
        fp.extend([levels_kw[i], levels_kw[i + 1]])
    if xp:
        return lambda times: np.interp(times, xp, fp) * 1e3
    return lambda times: np.full(np.shape(times), levels_kw[0] * 1e3)


def piecewise_power_scenario(
    name: str,
    description: str,
    levels_kw: tuple[float, ...],
    change_days: tuple[float, ...],
    duration_days: float,
    seed: int,
    settle_days: float = 2.0,
    ci_mean_g_per_kwh: float = 190.0,
    meter: MeterSpec | None = None,
) -> MonitorScenario:
    """Build a metered piecewise-power scenario with UK-shaped CI."""
    if len(levels_kw) != len(change_days) + 1:
        raise MonitoringError("need exactly one more level than change times")
    if any(not 0 < d < duration_days for d in change_days):
        raise MonitoringError("change days must fall inside the window")
    duration_s = duration_days * SECONDS_PER_DAY
    change_times = tuple(d * SECONDS_PER_DAY for d in change_days)
    rng = np.random.default_rng(seed)
    truth = _piecewise_truth_w(levels_kw, change_times, settle_days * SECONDS_PER_DAY)
    power_meter = PowerMeter(meter or MeterSpec(), name=f"{name}/power-kw")
    measured_kw = power_meter.sample_function(truth, 0.0, duration_s, rng).scale_values(
        1e-3
    )
    ci = CarbonIntensityModel(mean_ci_g_per_kwh=ci_mean_g_per_kwh).series(
        0.0, duration_s, 1800.0, rng
    )
    return MonitorScenario(
        name=name,
        description=description,
        power_kw=measured_kw,
        ci_g_per_kwh=ci,
        change_times_s=change_times,
        levels_kw=levels_kw,
    )


def figure2_scenario(duration_days: float = 61.0, seed: int = 123) -> MonitorScenario:
    """The Figure 2 BIOS-change window: 3,220 → 3,010 kW mid-window."""
    return piecewise_power_scenario(
        name="fig2",
        description="BIOS Power->Performance Determinism (-210 kW, paper Fig. 2)",
        levels_kw=(ARCHER2_BASELINE_CABINET_POWER_KW, ARCHER2_POST_BIOS_CABINET_POWER_KW),
        change_days=(duration_days / 2,),
        duration_days=duration_days,
        seed=seed,
    )


def figure3_scenario(duration_days: float = 61.0, seed: int = 2023) -> MonitorScenario:
    """The Figure 3 frequency-cap window: 3,010 → 2,530 kW mid-window."""
    return piecewise_power_scenario(
        name="fig3",
        description="default frequency cap to 2.0 GHz (-480 kW, paper Fig. 3)",
        levels_kw=(ARCHER2_POST_BIOS_CABINET_POWER_KW, ARCHER2_POST_FREQ_CABINET_POWER_KW),
        change_days=(duration_days / 2,),
        duration_days=duration_days,
        seed=seed,
    )


def combined_scenario(duration_days: float = 90.0, seed: int = 7) -> MonitorScenario:
    """Both §4 interventions in sequence: 3,220 → 3,010 → 2,530 kW."""
    return piecewise_power_scenario(
        name="combined",
        description="both interventions in rollout order (-690 kW total, §5)",
        levels_kw=(
            ARCHER2_BASELINE_CABINET_POWER_KW,
            ARCHER2_POST_BIOS_CABINET_POWER_KW,
            ARCHER2_POST_FREQ_CABINET_POWER_KW,
        ),
        change_days=(duration_days / 3, 2 * duration_days / 3),
        duration_days=duration_days,
        seed=seed,
    )


def regime_sweep_scenario(duration_days: float = 10.0, seed: int = 42) -> MonitorScenario:
    """CI sweeping scope-3 → balanced → scope-2 and back at steady power.

    CI holds five flat plateaus (20, 65, 190, 65, 20 gCO₂e/kWh) with small
    Gaussian jitter, crossing both paper boundaries twice — the regime
    tracker must commit exactly four transitions after the initial
    classification, with no flapping.
    """
    duration_s = duration_days * SECONDS_PER_DAY
    rng = np.random.default_rng(seed)
    truth = _piecewise_truth_w((ARCHER2_BASELINE_CABINET_POWER_KW,), (), SECONDS_PER_DAY)
    meter = PowerMeter(MeterSpec(), name="regimes/power-kw")
    measured_kw = meter.sample_function(truth, 0.0, duration_s, rng).scale_values(1e-3)
    times = np.arange(0.0, duration_s, 900.0)
    plateaus = np.array([20.0, 65.0, 190.0, 65.0, 20.0])
    segment = np.minimum(
        (times / (duration_s / len(plateaus))).astype(int), len(plateaus) - 1
    )
    ci_values = plateaus[segment] + rng.normal(0.0, 1.5, size=len(times))
    ci = TimeSeries(times, np.maximum(ci_values, 1.0), "regimes/ci")
    return MonitorScenario(
        name="regimes",
        description="CI sweep through all three regimes at steady power (§2)",
        power_kw=measured_kw,
        ci_g_per_kwh=ci,
        change_times_s=(),
        levels_kw=(ARCHER2_BASELINE_CABINET_POWER_KW,),
    )


#: CLI scenario registry: name → builder(duration_days, seed).
SCENARIO_BUILDERS: dict[str, Callable[..., MonitorScenario]] = {
    "fig2": figure2_scenario,
    "fig3": figure3_scenario,
    "combined": combined_scenario,
    "regimes": regime_sweep_scenario,
}


def build_scenario(
    name: str, duration_days: float | None = None, seed: int | None = None
) -> MonitorScenario:
    """Build a named scenario, overriding duration/seed when given."""
    try:
        builder = SCENARIO_BUILDERS[name]
    except KeyError:
        raise MonitoringError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIO_BUILDERS)}"
        ) from None
    kwargs: dict = {}
    if duration_days is not None:
        kwargs["duration_days"] = duration_days
    if seed is not None:
        kwargs["seed"] = seed
    return builder(**kwargs)


def scenario_sources(
    scenario: MonitorScenario,
    batch_size: int = 4096,
    faults: "list[str] | tuple[str, ...] | None" = None,
    fault_seed: int = 0,
) -> tuple["Iterator[StreamBatch]", "Iterator[StreamBatch]"]:
    """The scenario's per-stream batch iterators, optionally fault-injected.

    With ``faults`` (names from :data:`~repro.live.faults.FAULT_NAMES`) each
    stream gets its own independently seeded :func:`~repro.live.faults.
    chaos_chain` — power's stall lands early in the window, carbon
    intensity's late, so the two data gaps are distinguishable downstream.
    Everything is deterministic in ``fault_seed``, which is what lets a
    resumed run re-derive the identical faulted flow.
    """
    power = series_batches(POWER_STREAM, scenario.power_kw, batch_size)
    ci = series_batches(CI_STREAM, scenario.ci_g_per_kwh, batch_size)
    if faults:
        duration_s = float(scenario.power_kw.times_s[-1])
        power = apply_faults(
            power,
            *chaos_chain(faults, duration_s, fault_seed, stall_at_fraction=0.35),
        )
        ci = apply_faults(
            ci,
            *chaos_chain(faults, duration_s, fault_seed + 1, stall_at_fraction=0.6),
        )
    return power, ci
