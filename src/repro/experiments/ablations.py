"""Ablation experiments A1–A4: design choices the paper calls out.

* **A1 — utilisation sensitivity** (§5): idle nodes draw ~50 % of loaded
  power and switches are load-invariant, so energy per *delivered* node-hour
  climbs steeply below ~90 % utilisation.
* **A2 — turbo explains the Table 4 spread** (§4.2): without boost to
  ~2.8 GHz, capping at 2.0 GHz would cost at most ~11 %; the measured 26 %
  LAMMPS loss requires the turbo baseline.
* **A3 — module-reset policy** (§4.2): facility savings under curated
  resets (the service's practice), full-policy resets, and no resets.
* **A4 — mix sensitivity**: how the facility-level saving responds to a
  more compute-bound or more memory-bound research mix.
"""

from __future__ import annotations

import numpy as np

from ..core.campaign import CampaignConfig, run_campaign
from ..core.interventions import (
    DefaultFrequencyChange,
    InterventionSchedule,
    OperatingState,
)
from ..core.reporting import render_table
from ..facility.archer2 import archer2_inventory
from ..facility.hardware import ComponentKind
from ..facility.power import FacilityPowerModel
from ..node.determinism import DeterminismMode
from ..scheduler.frequency_policy import FrequencyPolicy
from ..units import SECONDS_PER_DAY
from ..workload.applications import paper_curated_apps, paper_frequency_benchmarks
from ..workload.mix import archer2_mix
from .common import ExperimentResult, default_node_model

__all__ = ["run_a1", "run_a2", "run_a3", "run_a4"]


def run_a1() -> ExperimentResult:
    """A1: energy per delivered node-hour vs utilisation."""
    inventory = archer2_inventory()
    model = FacilityPowerModel(inventory)
    (switches,) = inventory.entries_of_kind(ComponentKind.SWITCH)
    switch_load_invariance = switches.spec.idle_fraction
    utilisations = np.array([0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0])
    rows = []
    energies = []
    for u in utilisations:
        kwh_per_nodeh = model.energy_per_nodeh_at(float(u))
        energies.append(kwh_per_nodeh)
        rows.append(
            [
                f"{u * 100:.0f}%",
                f"{model.compute_cabinet_power_w(float(u)) / 1e3:,.0f}",
                f"{kwh_per_nodeh:.3f}",
            ]
        )
    overhead_50 = energies[0] / energies[-1] - 1.0
    table = render_table(
        ["Utilisation", "Cabinet power (kW)", "kWh per delivered nodeh"],
        rows,
        title=(
            "A1: utilisation sensitivity — switch load-invariance "
            f"{switch_load_invariance * 100:.0f}%, node idle fraction "
            f"{default_node_model().idle_fraction() * 100:.0f}%"
        ),
    )
    return ExperimentResult(
        experiment_id="A1",
        title="Energy per delivered node-hour vs utilisation (paper Section 5)",
        table=table,
        headline={
            "kwh_per_nodeh_at_50pct": energies[0],
            "kwh_per_nodeh_at_90pct": energies[4],
            "kwh_per_nodeh_at_100pct": energies[-1],
            "overhead_at_50pct": overhead_50,
            "switch_load_invariance": switch_load_invariance,
            "node_idle_fraction": default_node_model().idle_fraction(),
        },
    )


def run_a2() -> ExperimentResult:
    """A2: Table 4 perf impacts with and without the turbo baseline."""
    apps = paper_frequency_benchmarks()
    rows = []
    impacts_with: list[float] = []
    impacts_without: list[float] = []
    for app in apps.values():
        with_turbo = 1.0 - app.roofline.perf_ratio(2.0, baseline_ghz=2.8)
        without_turbo = 1.0 - app.roofline.perf_ratio(2.0, baseline_ghz=2.25)
        impacts_with.append(with_turbo)
        impacts_without.append(without_turbo)
        paper_impact = (
            1.0 - app.paper_perf_ratio if app.paper_perf_ratio is not None else None
        )
        rows.append(
            [
                app.name,
                f"{with_turbo * 100:.0f}%",
                f"{without_turbo * 100:.0f}%",
                "-" if paper_impact is None else f"{paper_impact * 100:.0f}%",
            ]
        )
    max_without = max(impacts_without)
    table = render_table(
        ["Benchmark", "Impact vs 2.8 (turbo)", "Impact vs 2.25 (no turbo)", "Paper"],
        rows,
        title=(
            "A2: the ~2.8 GHz turbo baseline explains the Table 4 spread — "
            f"without it the worst case would be only {max_without * 100:.0f}%"
        ),
    )
    return ExperimentResult(
        experiment_id="A2",
        title="Turbo-baseline ablation (paper Section 4.2 explanation)",
        table=table,
        headline={
            "max_impact_with_turbo": max(impacts_with),
            "max_impact_without_turbo": max_without,
            "paper_max_impact": 0.26,
        },
    )


def _freq_campaign(policy: FrequencyPolicy, seed: int, phase_days: float) -> tuple[float, float]:
    """(before, after) cabinet means for a frequency change under a policy."""
    phase_s = phase_days * SECONDS_PER_DAY
    initial = OperatingState(mode=DeterminismMode.PERFORMANCE, policy=policy)
    schedule = InterventionSchedule(
        initial, [DefaultFrequencyChange(time_s=phase_s)]
    )
    config = CampaignConfig(
        duration_s=2 * phase_s,
        schedule=schedule,
        node_model=default_node_model(),
        mix=archer2_mix(),
        seed=seed,
    )
    result = run_campaign(config)
    before, after = result.phase_means_kw()
    return before, after


def run_a3(phase_days: float = 21.0, seed: int = 31) -> ExperimentResult:
    """A3: module-reset policy variants for the frequency intervention."""
    variants = {
        "curated resets (service practice)": FrequencyPolicy(
            curated_apps=paper_curated_apps()
        ),
        "full-policy resets (all >10% apps)": FrequencyPolicy(),
        "no resets (everything to 2.0 GHz)": FrequencyPolicy(reset_threshold=None),
    }
    rows = []
    headline: dict[str, float] = {}
    for idx, (label, policy) in enumerate(variants.items()):
        before, after = _freq_campaign(policy, seed + idx, phase_days)
        saving = before - after
        rows.append(
            [
                label,
                f"{before:,.0f}",
                f"{after:,.0f}",
                f"{saving:,.0f}",
                f"{saving / before * 100:.1f}%",
            ]
        )
        key = ("curated", "full_policy", "no_resets")[idx]
        headline[f"{key}_saving_kw"] = saving
    table = render_table(
        ["Reset policy", "Before (kW)", "After (kW)", "Saving (kW)", "Saving"],
        rows,
        title="A3: per-application frequency-reset policy ablation",
    )
    return ExperimentResult(
        experiment_id="A3",
        title="Frequency reset-policy ablation (paper Section 4.2)",
        table=table,
        headline=headline,
    )


def run_a4(phase_days: float = 21.0, seed: int = 41) -> ExperimentResult:
    """A4: job-mix sensitivity of the frequency-change saving."""
    base_mix = archer2_mix()
    compute_heavy = {"LAMMPS Ethanol": 3.0, "GROMACS 1400k": 2.0, "Nektar++ TGV 128DoF": 2.0}
    memory_heavy = {"VASP CdTe": 2.0, "Climate/Ocean archetype": 2.0, "OpenSBLI TGV 1024^3": 2.0}
    variants = {
        "ARCHER2 mix": base_mix,
        "compute-heavy mix": base_mix.reweighted(compute_heavy),
        "memory-heavy mix": base_mix.reweighted(memory_heavy),
    }
    rows = []
    headline: dict[str, float] = {}
    policy = FrequencyPolicy(curated_apps=paper_curated_apps())
    phase_s = phase_days * SECONDS_PER_DAY
    for idx, (label, mix) in enumerate(variants.items()):
        initial = OperatingState(mode=DeterminismMode.PERFORMANCE, policy=policy)
        schedule = InterventionSchedule(
            initial, [DefaultFrequencyChange(time_s=phase_s)]
        )
        config = CampaignConfig(
            duration_s=2 * phase_s,
            schedule=schedule,
            node_model=default_node_model(),
            mix=mix,
            seed=seed + idx,
        )
        result = run_campaign(config)
        before, after = result.phase_means_kw()
        saving = before - after
        rows.append(
            [
                label,
                f"{mix.mean_compute_fraction():.2f}",
                f"{before:,.0f}",
                f"{after:,.0f}",
                f"{saving / before * 100:.1f}%",
            ]
        )
        key = ("archer2", "compute_heavy", "memory_heavy")[idx]
        headline[f"{key}_relative_saving"] = saving / before
    table = render_table(
        ["Mix", "Mean compute fraction", "Before (kW)", "After (kW)", "Saving"],
        rows,
        title="A4: research-mix sensitivity of the frequency-change saving",
    )
    return ExperimentResult(
        experiment_id="A4",
        title="Job-mix sensitivity ablation",
        table=table,
        headline=headline,
    )
