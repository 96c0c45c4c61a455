"""hpcem — emissions and energy efficiency toolkit for large-scale HPC facilities.

A full reproduction of "Emissions and energy efficiency on large-scale high
performance computing facilities: ARCHER2 UK national supercomputing service
case study" (Jackson, Simpson & Turner, SC 2023 workshops) on a simulated
facility.

Quick start::

    from repro.api import FacilitySession

    session = FacilitySession(ci_g_per_kwh=190.0)
    print(session.emissions()["total_tco2e"])
    print(session.advise().config.label())
    print(session.sweep().to_table())

Subpackages
-----------
``api``           the stable façade: :class:`FacilitySession`
``facility``      hardware inventory, power roll-ups, node failures
``node``          CPU P-states, DVFS power, BIOS determinism modes
``workload``      roofline models, application catalogue, job streams
``scheduler``     discrete-event EASY-backfill batch simulator
``telemetry``     power time series, meters, persistence
``grid``          carbon intensity, pricing, demand response
``core``          the paper's contribution: emissions, regimes, interventions
``engine``        vectorized, cached scenario-sweep engine
``analysis``      baselines, change points, segment means
``experiments``   one driver per paper table/figure (T1–T4, F1–F3, C1, R1, A1–A4)

The names in ``__all__`` resolve on first use (PEP 562): ``import repro``
loads no subpackage and no numpy, and ``repro.X`` or ``from repro import X``
imports only the subpackage that defines ``X``.
"""

from __future__ import annotations

import importlib
from typing import Any

__version__ = "1.0.0"

#: Public name → the submodule (relative to this package) that exports it.
#: A name mapped to itself is that submodule.
_EXPORTS = {
    "units": "units",
    # façade + engine
    "FacilitySession": "api",
    "CIScenario": "engine",
    "SweepSpec": "engine",
    "SweepResult": "engine",
    "run_sweep": "engine",
    "run_sweep_scalar": "engine",
    "Result": "results",
    # facility
    "FacilityInventory": "facility",
    "FacilityPowerModel": "facility",
    "archer2_inventory": "facility",
    # node
    "FrequencySetting": "node",
    "DeterminismMode": "node",
    "NodePowerModel": "node",
    "build_node_model": "node",
    "fit_node_constants": "node",
    # workload
    "AppProfile": "workload",
    "archer2_mix": "workload",
    "full_catalogue": "workload",
    # core
    "EmissionsModel": "core",
    "EmbodiedProfile": "core",
    "Regime": "core",
    "classify_ci": "core",
    "derive_band": "core",
    "OperatingConfig": "core",
    "BASELINE_CONFIG": "core",
    "POST_BIOS_CONFIG": "core",
    "POST_FREQ_CONFIG": "core",
    "OperatingState": "core",
    "InterventionSchedule": "core",
    "BiosDeterminismChange": "core",
    "DefaultFrequencyChange": "core",
    "CampaignConfig": "core",
    "CampaignResult": "core",
    "run_campaign": "core",
    "Priorities": "core",
    "DecisionEngine": "core",
    "ARCHER2_WINTER_2022": "core",
}

__all__ = [
    "__version__",
    "units",
    # façade + engine
    "FacilitySession",
    "CIScenario",
    "SweepSpec",
    "SweepResult",
    "run_sweep",
    "run_sweep_scalar",
    "Result",
    # facility
    "FacilityInventory",
    "FacilityPowerModel",
    "archer2_inventory",
    # node
    "FrequencySetting",
    "DeterminismMode",
    "NodePowerModel",
    "build_node_model",
    "fit_node_constants",
    # workload
    "AppProfile",
    "archer2_mix",
    "full_catalogue",
    # core
    "EmissionsModel",
    "EmbodiedProfile",
    "Regime",
    "classify_ci",
    "derive_band",
    "OperatingConfig",
    "BASELINE_CONFIG",
    "POST_BIOS_CONFIG",
    "POST_FREQ_CONFIG",
    "OperatingState",
    "InterventionSchedule",
    "BiosDeterminismChange",
    "DefaultFrequencyChange",
    "CampaignConfig",
    "CampaignResult",
    "run_campaign",
    "Priorities",
    "DecisionEngine",
    "ARCHER2_WINTER_2022",
]


def __getattr__(name: str) -> Any:
    """Import the submodule that exports ``name`` and cache the value here."""
    try:
        submodule = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f"{__name__}.{submodule}")
    value = module if submodule == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
