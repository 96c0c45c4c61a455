"""The shared facility core: one code path for sessions and the service.

:class:`FacilityCore` owns what used to live inside
:class:`repro.api.FacilitySession` — the calibrated node model, the
ARCHER2 workload mix and application catalogue, the in-memory
:class:`~repro.engine.cache.LRUCache` and the optional on-disk
:class:`~repro.engine.cache.SweepStore` — and exposes the paper's §2–§5
questions as *stateless* methods over an explicit :class:`SessionParams`.

Both front ends are thin clients of this object:

* ``FacilitySession`` binds one ``SessionParams`` at construction and
  forwards every method (the single-user path);
* :class:`repro.service.FacilityService` parses params out of request
  envelopes and shares **one** core across thousands of concurrent
  sessions, so every tenant sees the same caches (the multi-tenant path).

Because both paths end in the same core methods over the same engine
entry points, service-mode answers are bit-identical to direct session
calls — the acceptance gate ``benchmarks/bench_service.py`` enforces.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

from ..core.decision import ARCHER2_WINTER_2022, DecisionEngine, OperatingPointScore, Priorities
from ..core.efficiency import (
    BASELINE_CONFIG,
    POST_FREQ_CONFIG,
    BenchmarkComparison,
    OperatingConfig,
    compare_app,
    comparison_table,
)
from ..core.emissions import EmbodiedProfile, EmissionsModel
from ..core.regimes import OptimisationTarget, Regime, advice, classify_ci
from ..engine.cache import LRUCache, SweepStore
from ..engine.plan import CIScenario, SweepSpec
from ..engine.runner import PointTables, SweepResult, evaluate_scenario, run_sweep
from ..errors import ConfigurationError
from ..node.app_energy import AppRunPoint
from ..node.calibration import build_node_model
from ..node.determinism import DeterminismMode
from ..node.pstates import FrequencySetting
from ..units import is_number
from ..workload.applications import full_catalogue, paper_curated_apps
from ..workload.mix import archer2_mix

__all__ = ["SessionParams", "FacilityCore"]

#: ARCHER2 Winter-2022 grid carbon intensity, gCO2/kWh (paper §2).
DEFAULT_CI = 190.0


def _parse_config(value: object, field: str) -> OperatingConfig:
    """An :class:`OperatingConfig` from a wire mapping or a config object."""
    if isinstance(value, OperatingConfig):
        return value
    if isinstance(value, Mapping):
        try:
            return OperatingConfig(
                FrequencySetting(value["frequency"]),
                DeterminismMode(value["bios_mode"]),
            )
        except (KeyError, ValueError) as exc:
            raise ConfigurationError(
                f"{field} must carry 'frequency' and 'bios_mode' enum values: {exc}"
            ) from None
    raise ConfigurationError(
        f"{field} must be an OperatingConfig or a mapping, got {value!r}"
    )


def _number(value: object, field: str) -> float:
    """``value`` as given if it is a number, else a :class:`ConfigurationError`.

    A bool, a string (a numeric one too), null, a list or a mapping is
    refused with a message naming ``field``, so the client gets a 400.
    """
    if not is_number(value):
        raise ConfigurationError(f"{field} must be a number, got {value!r}")
    return value


@dataclass(frozen=True)
class SessionParams:
    """One session's facility configuration, independent of any front end.

    Defaults are the ARCHER2 case study: 5,860 nodes at 90 % utilisation,
    a 6-year lifetime, the Winter-2022 UK grid, and the paper's embodied
    audit. Validation happens through the same :class:`SweepSpec`
    validators the engine uses (see :meth:`FacilityCore.point_spec`).
    """

    n_nodes: int = 5860
    utilisation: float = 0.9
    lifetime_years: float = 6.0
    ci: CIScenario = None  # type: ignore[assignment]  # resolved in __post_init__
    embodied_per_node_tco2e: float = 1.5
    embodied_overhead_tco2e: float = 1210.0
    compute_activity: float = 0.3
    memory_activity: float = 0.7
    config: OperatingConfig = BASELINE_CONFIG

    def __post_init__(self) -> None:
        ci = self.ci
        if ci is None:
            ci = CIScenario.flat(DEFAULT_CI)
        elif not isinstance(ci, CIScenario):
            ci = CIScenario.flat(float(ci))
        object.__setattr__(self, "ci", ci)
        object.__setattr__(self, "n_nodes", int(self.n_nodes))
        object.__setattr__(self, "config", _parse_config(self.config, "config"))

    @classmethod
    def from_mapping(cls, params: Mapping) -> "SessionParams":
        """Build params from a request-envelope mapping (unknown keys ignored).

        ``ci_g_per_kwh`` (a number) and ``ci`` (a canonical
        :meth:`CIScenario.to_canonical` mapping) are both accepted;
        ``config`` is a ``{"frequency": ..., "bios_mode": ...}`` mapping of
        enum values. Every numeric field must be a JSON number: a string,
        even a numeric one, or a bool is a :class:`ConfigurationError`.
        """
        kwargs: dict = {}
        for field in (
            "n_nodes",
            "utilisation",
            "lifetime_years",
            "embodied_per_node_tco2e",
            "embodied_overhead_tco2e",
            "compute_activity",
            "memory_activity",
        ):
            if field in params:
                kwargs[field] = _number(params[field], field)
        if "ci" in params:
            ci = params["ci"]
            kwargs["ci"] = (
                ci if isinstance(ci, CIScenario) else CIScenario.from_canonical(ci)
            )
        elif "ci_g_per_kwh" in params:
            kwargs["ci"] = CIScenario.flat(
                float(_number(params["ci_g_per_kwh"], "ci_g_per_kwh"))
            )
        if "config" in params:
            kwargs["config"] = _parse_config(params["config"], "config")
        return cls(**kwargs)


class FacilityCore:
    """Shared caches plus the §2–§5 questions as methods over explicit params.

    One core per process is the intended deployment: every session and
    every service tenant funnels through the same ``memory_cache`` and
    (when ``cache_dir`` is given) the same content-addressed ``store``, so
    a sweep any client has paid for is free for all of them.

    Point answers read what never changes from three tables kept for the
    core's lifetime: ``tables`` (a :class:`~repro.engine.runner.PointTables`:
    operating points and lifetime-average CIs, each bounded) and ``runs``
    (the mix evaluated at each operating config, at most one entry per
    frequency setting × BIOS mode). An answer read from them is the same
    bytes as one resolved afresh.

    ``runner`` is the sweep entry point (default
    :func:`repro.engine.runner.run_sweep`); tests substitute an
    instrumented callable to count real evaluations under coalescing.
    """

    def __init__(
        self,
        *,
        cache_dir: str | Path | None = None,
        memory_cache: LRUCache | None = None,
        store: SweepStore | None = None,
        runner: Callable[..., SweepResult] = run_sweep,
    ) -> None:
        if store is not None and cache_dir is not None:
            raise ConfigurationError("pass either store or cache_dir, not both")
        self.node_model = build_node_model()
        self.mix = archer2_mix()
        self.catalogue = full_catalogue()
        self.memory_cache = memory_cache if memory_cache is not None else LRUCache()
        self.store = store if store is not None else (
            SweepStore(cache_dir) if cache_dir is not None else None
        )
        self.runner = runner
        self.tables = PointTables(self.node_model)
        self.runs: dict[OperatingConfig, list[AppRunPoint]] = {}

    # -- internals ---------------------------------------------------------

    def point_spec(
        self, params: SessionParams, config: OperatingConfig | None = None
    ) -> SweepSpec:
        """A single-scenario spec pinning every axis to the session values."""
        config = config or params.config
        return SweepSpec(
            frequencies=(config.setting,),
            bios_modes=(config.mode,),
            ci_scenarios=(params.ci,),
            utilisations=(params.utilisation,),
            node_counts=(params.n_nodes,),
            lifetimes_years=(params.lifetime_years,),
            embodied_per_node_tco2e=params.embodied_per_node_tco2e,
            embodied_overhead_tco2e=params.embodied_overhead_tco2e,
            compute_activity=params.compute_activity,
            memory_activity=params.memory_activity,
        )

    def evaluate_point(
        self, params: SessionParams, config: OperatingConfig | None = None
    ) -> dict[str, float]:
        """One scenario through the scalar oracle (the sessions' hot path)."""
        spec = self.point_spec(params, config)
        return evaluate_scenario(
            spec, next(spec.scenarios()), self.node_model, self.tables
        )

    # -- §2: emissions and regimes -----------------------------------------

    def mean_ci_g_per_kwh(self, params: SessionParams) -> float:
        """Lifetime-average carbon intensity of the session's grid scenario."""
        # The point spec's default averaging steps, so this shares entries
        # with the emissions rows.
        return self.tables.lifetime_ci(
            params.ci, params.lifetime_years, SweepSpec.ci_average_steps
        )

    def mean_power_kw(
        self, params: SessionParams, config: OperatingConfig | None = None
    ) -> float:
        """Mean facility draw (busy/idle blended by utilisation), kW."""
        return self.evaluate_point(params, config)["mean_power_kw"]

    def emissions_model(
        self, params: SessionParams, config: OperatingConfig | None = None
    ) -> EmissionsModel:
        """The scope-2/scope-3 model at one operating point."""
        return EmissionsModel(
            embodied=EmbodiedProfile(
                total_tco2e=params.embodied_overhead_tco2e
                + params.embodied_per_node_tco2e * params.n_nodes,
                lifetime_years=params.lifetime_years,
            ),
            mean_power_kw=self.mean_power_kw(params, config),
        )

    def emissions(
        self, params: SessionParams, config: OperatingConfig | None = None
    ) -> dict[str, float]:
        """Lifetime emissions at one operating point (the scalar engine row)."""
        return self.evaluate_point(params, config)

    def classify_regime(
        self, params: SessionParams, ci_g_per_kwh: float | None = None
    ) -> Regime:
        """The §2 regime at a carbon intensity (default: the session mean)."""
        ci = self.mean_ci_g_per_kwh(params) if ci_g_per_kwh is None else ci_g_per_kwh
        return classify_ci(ci)

    def optimisation_target(
        self, params: SessionParams, ci_g_per_kwh: float | None = None
    ) -> OptimisationTarget:
        """What the §2 regime says to optimise for."""
        return advice(self.classify_regime(params, ci_g_per_kwh))

    # -- §3/§4: efficiency -------------------------------------------------

    def efficiency(
        self,
        params: SessionParams,
        candidate: OperatingConfig = POST_FREQ_CONFIG,
        baseline: OperatingConfig | None = None,
        app_name: str | None = None,
    ) -> list[BenchmarkComparison]:
        """Tables 3/4-style perf/energy ratios of ``candidate`` vs ``baseline``."""
        baseline = baseline or params.config
        if app_name is not None:
            try:
                app = self.catalogue[app_name]
            except KeyError:
                raise ConfigurationError(
                    f"unknown app {app_name!r}; choose from {sorted(self.catalogue)}"
                ) from None
            return [compare_app(app, candidate, baseline, self.node_model)]
        curated = {
            name: app for name, app in self.catalogue.items() if name in paper_curated_apps()
        }
        return comparison_table(curated, candidate, baseline, self.node_model)

    # -- §5: decisions ------------------------------------------------------

    def advise(
        self, params: SessionParams, priorities: Priorities = ARCHER2_WINTER_2022
    ) -> OperatingPointScore:
        """Recommended operating point for the declared §5 priorities."""
        engine = DecisionEngine(
            mix=self.mix,
            node_model=self.node_model,
            emissions_model=self.emissions_model(params),
            ci_g_per_kwh=self.mean_ci_g_per_kwh(params),
            baseline=params.config,
            runs=self.runs,
        )
        return engine.recommend(priorities)

    # -- sweeps --------------------------------------------------------------

    def default_spec(self, params: SessionParams, **overrides) -> SweepSpec:
        """The session's default grid with spec-field ``overrides`` applied."""
        fields = dict(
            utilisations=(params.utilisation,),
            node_counts=(params.n_nodes,),
            lifetimes_years=(params.lifetime_years,),
            embodied_per_node_tco2e=params.embodied_per_node_tco2e,
            embodied_overhead_tco2e=params.embodied_overhead_tco2e,
            compute_activity=params.compute_activity,
            memory_activity=params.memory_activity,
        )
        fields.update(overrides)
        return SweepSpec(**fields)

    def sweep(
        self,
        params: SessionParams,
        spec: SweepSpec | None = None,
        *,
        chunk_size: int = 4096,
        progress: Callable[[int, int, str], None] | None = None,
        **overrides,
    ) -> SweepResult:
        """Evaluate a scenario grid through the shared cached engine.

        With no arguments, sweeps every frequency × BIOS mode × default CI
        scenario at the session's utilisation, node count and lifetime.
        ``overrides`` are :class:`SweepSpec` fields; pass a full ``spec``
        for complete control (the two are mutually exclusive).
        """
        if spec is not None and overrides:
            raise ConfigurationError("pass either a spec or field overrides, not both")
        if spec is None:
            spec = self.default_spec(params, **overrides)
        return self.runner(
            spec,
            chunk_size=chunk_size,
            store=self.store,
            memory_cache=self.memory_cache,
            progress=progress,
        )

    def invalidate_caches(self) -> None:
        """Drop every cached sweep (memory, and disk when configured)."""
        self.memory_cache.clear()
        if self.store is not None:
            self.store.clear()
