"""Stable façade: one session object instead of deep imports.

:class:`FacilitySession` owns the facility configuration (node count,
utilisation, embodied audit, grid carbon-intensity scenario, service
lifetime) and exposes the paper's §2–§5 questions as methods:

* :meth:`FacilitySession.emissions` — scope-2/scope-3 lifetime breakdown;
* :meth:`FacilitySession.efficiency` — Tables 3/4-style perf/energy ratios;
* :meth:`FacilitySession.classify_regime` — which §2 regime applies;
* :meth:`FacilitySession.advise` — §5 priority-weighted operating point;
* :meth:`FacilitySession.sweep` — full what-if grids through the cached
  vectorized engine.

Quick start::

    from repro.api import FacilitySession

    session = FacilitySession(ci_g_per_kwh=190.0)
    print(session.emissions()["total_tco2e"])
    print(session.classify_regime().value)
    best = session.advise()
    print(best.config.label())
    result = session.sweep()
    print(result.to_table())

Since the multi-tenant service landed, the session is a *thin client* of
:class:`repro.service.FacilityCore`: the immutable session parameters live
in a :class:`repro.service.SessionParams` and every method forwards to the
same core the service shares across tenants. Answers are bit-identical to
the pre-service session — same engine entry points, same caches. Pass
``core=`` to share one core (one memory cache, one sweep store) between
many sessions in one process::

    from repro.service import FacilityCore

    core = FacilityCore(cache_dir="~/.cache/repro")
    a = FacilitySession(core=core)
    b = FacilitySession(core=core, utilisation=0.5)  # shares a's caches
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from .core.decision import ARCHER2_WINTER_2022, OperatingPointScore, Priorities
from .core.efficiency import (
    BASELINE_CONFIG,
    POST_FREQ_CONFIG,
    BenchmarkComparison,
    OperatingConfig,
)
from .core.emissions import EmissionsModel
from .core.regimes import OptimisationTarget, Regime
from .engine.plan import CIScenario, SweepSpec
from .engine.runner import SweepResult
from .errors import ConfigurationError
from .service.core import DEFAULT_CI, FacilityCore, SessionParams

__all__ = ["FacilitySession"]

#: ARCHER2 Winter-2022 grid carbon intensity, gCO2/kWh (paper §2).
_DEFAULT_CI = DEFAULT_CI


class FacilitySession:
    """One facility's configuration plus the paper's questions as methods.

    All parameters default to the ARCHER2 case study: 5,860 nodes at 90 %
    utilisation, a 6-year service lifetime, the Winter-2022 UK grid at
    190 gCO2/kWh, and the embodied audit of 1.5 tCO2e per node plus
    1,210 tCO2e of facility overhead.

    ``ci`` accepts either a flat carbon intensity in gCO2/kWh (a float) or
    a :class:`repro.engine.CIScenario` for decarbonising grids. Pass
    ``cache_dir`` to persist sweep chunks across sessions; in-memory reuse
    within a session is always on. Pass ``core`` (a
    :class:`repro.service.FacilityCore`) instead to share caches with
    other sessions or with a running service.
    """

    def __init__(
        self,
        *,
        n_nodes: int = 5860,
        utilisation: float = 0.9,
        lifetime_years: float = 6.0,
        ci_g_per_kwh: float | CIScenario = _DEFAULT_CI,
        embodied_per_node_tco2e: float = 1.5,
        embodied_overhead_tco2e: float = 1210.0,
        compute_activity: float = 0.3,
        memory_activity: float = 0.7,
        config: OperatingConfig = BASELINE_CONFIG,
        cache_dir: str | Path | None = None,
        core: FacilityCore | None = None,
    ) -> None:
        if core is not None and cache_dir is not None:
            raise ConfigurationError("pass either core or cache_dir, not both")
        self._core = core if core is not None else FacilityCore(cache_dir=cache_dir)
        self._params = SessionParams(
            n_nodes=n_nodes,
            utilisation=utilisation,
            lifetime_years=lifetime_years,
            ci=ci_g_per_kwh,
            embodied_per_node_tco2e=embodied_per_node_tco2e,
            embodied_overhead_tco2e=embodied_overhead_tco2e,
            compute_activity=compute_activity,
            memory_activity=memory_activity,
            config=config,
        )
        # The spec validators double as session-parameter validators.
        self._core.point_spec(self._params)

    # -- parameters (kept as live attributes for compatibility) -------------

    @property
    def params(self) -> SessionParams:
        """The immutable parameter record this session binds to the core."""
        return self._params

    def _get(name: str):  # noqa: N805 — descriptor factory, not a method
        def getter(self):
            return getattr(self._params, name)

        def setter(self, value):
            self._params = replace(self._params, **{name: value})

        return property(getter, setter, doc=f"Session {name} (see SessionParams).")

    n_nodes = _get("n_nodes")
    utilisation = _get("utilisation")
    lifetime_years = _get("lifetime_years")
    ci = _get("ci")
    embodied_per_node_tco2e = _get("embodied_per_node_tco2e")
    embodied_overhead_tco2e = _get("embodied_overhead_tco2e")
    compute_activity = _get("compute_activity")
    memory_activity = _get("memory_activity")
    config = _get("config")
    del _get

    @property
    def core(self) -> FacilityCore:
        """The (possibly shared) core answering this session's questions."""
        return self._core

    @property
    def node_model(self):
        """The calibrated node power/performance model (owned by the core)."""
        return self._core.node_model

    @property
    def memory_cache(self):
        """The in-memory sweep cache (owned by the core, maybe shared)."""
        return self._core.memory_cache

    @property
    def store(self):
        """The on-disk sweep store, or ``None`` (owned by the core)."""
        return self._core.store

    # -- §2: emissions and regimes -----------------------------------------

    def mean_ci_g_per_kwh(self) -> float:
        """Lifetime-average carbon intensity of the session's grid scenario."""
        return self._core.mean_ci_g_per_kwh(self._params)

    def mean_power_kw(self, config: OperatingConfig | None = None) -> float:
        """Mean facility draw (busy/idle blended by utilisation), kW."""
        return self._core.mean_power_kw(self._params, config)

    def emissions_model(self, config: OperatingConfig | None = None) -> EmissionsModel:
        """The scope-2/scope-3 model at one operating point (session defaults)."""
        return self._core.emissions_model(self._params, config)

    def emissions(self, config: OperatingConfig | None = None) -> dict[str, float]:
        """Lifetime emissions at one operating point (default: the session's).

        Returns the scalar engine row: ``mean_power_kw``,
        ``annual_energy_kwh``, ``scope2_tco2e``, ``scope3_tco2e``,
        ``total_tco2e``, ``scope2_share``, ``crossover_ci_g_per_kwh``,
        ``crossing_year`` and friends.
        """
        return self._core.emissions(self._params, config)

    def classify_regime(self, ci_g_per_kwh: float | None = None) -> Regime:
        """The §2 regime at a carbon intensity (default: the session mean)."""
        return self._core.classify_regime(self._params, ci_g_per_kwh)

    def optimisation_target(self, ci_g_per_kwh: float | None = None) -> OptimisationTarget:
        """What the §2 regime says to optimise for (performance/balance/energy)."""
        return self._core.optimisation_target(self._params, ci_g_per_kwh)

    # -- §3/§4: efficiency -------------------------------------------------

    def efficiency(
        self,
        candidate: OperatingConfig = POST_FREQ_CONFIG,
        baseline: OperatingConfig | None = None,
        app_name: str | None = None,
    ) -> list[BenchmarkComparison]:
        """Tables 3/4-style perf/energy ratios of ``candidate`` vs ``baseline``.

        Covers the paper's curated benchmark apps, or a single catalogue app
        when ``app_name`` is given.
        """
        return self._core.efficiency(self._params, candidate, baseline, app_name)

    # -- §5: decisions ------------------------------------------------------

    def advise(
        self, priorities: Priorities = ARCHER2_WINTER_2022
    ) -> OperatingPointScore:
        """Recommended operating point for the declared §5 priorities."""
        return self._core.advise(self._params, priorities)

    # -- sweeps --------------------------------------------------------------

    def sweep(
        self,
        spec: SweepSpec | None = None,
        *,
        chunk_size: int = 4096,
        progress=None,
        **overrides,
    ) -> SweepResult:
        """Evaluate a scenario grid through the cached vectorized engine.

        With no arguments, sweeps every frequency × BIOS mode × default CI
        scenario at the session's utilisation, node count and lifetime.
        Keyword ``overrides`` are :class:`repro.engine.SweepSpec` fields
        (e.g. ``utilisations=(0.5, 0.9)``); pass a full ``spec`` to take
        complete control. Results are cached in memory (and on disk when
        the session has a ``cache_dir``).
        """
        return self._core.sweep(
            self._params,
            spec,
            chunk_size=chunk_size,
            progress=progress,
            **overrides,
        )

    def invalidate_caches(self) -> None:
        """Drop every cached sweep (memory, and disk when configured)."""
        self._core.invalidate_caches()
