"""Request routing: versioned envelopes → FacilityCore calls → JSON payloads.

One handler per :data:`~repro.service.envelope.METHODS` entry. Handlers are
pure functions of ``(core, request)``: they parse :class:`~repro.service.
core.SessionParams` out of the request's params, call the shared core, and
serialise the answer to a JSON-able payload. The payload builders are
module-level so the parity benchmark can build the *expected* payload from
a direct :class:`~repro.api.FacilitySession` answer through exactly the
same serialisation — byte-identity then tests the service plumbing, not
the formatter.
"""

from __future__ import annotations

import math
from typing import Mapping

from ..core.decision import ARCHER2_WINTER_2022, OperatingPointScore, Priorities
from ..core.efficiency import POST_FREQ_CONFIG, BenchmarkComparison
from ..engine.plan import CIScenario, SweepSpec
from ..engine.runner import SweepResult
from ..errors import ConfigurationError, ServiceError
from ..facility.archer2 import ARCHER2_N_NODES
from ..units import is_number
from .core import FacilityCore, SessionParams, _number, _parse_config
from .envelope import METHODS, ServiceRequest

__all__ = [
    "ServiceRouter",
    "payload_emissions",
    "payload_regime",
    "payload_efficiency",
    "payload_advice",
    "payload_sweep",
]


#: Largest ``sched_compare`` request. The single-flight leader runs it on the
#: event loop, so these caps bound how long every tenant can wait behind it:
#: one week of trace on the whole of ARCHER2.
SCHED_MAX_DAYS = 7.0
SCHED_MAX_NODES = ARCHER2_N_NODES
#: A shorter carbon tick or a longer start slack adds work to every job,
#: so both are capped too; ``offered_load`` is capped at 1, above which the
#: queue grows without bound (the ``repro sched`` help's own advice).
SCHED_MIN_TICK_MINUTES = 5.0
SCHED_MAX_SLACK_HOURS = 24.0


def _sched_param(
    params: Mapping,
    name: str,
    default: float,
    low: float,
    high: float,
    *,
    above_low: bool = False,
    whole: bool = False,
) -> float:
    """``params[name]``, or ``default``, checked against ``[low, high]``.

    ``above_low`` makes the range ``(low, high]``. A bool, a string or any
    other non-number is a :class:`ConfigurationError` (a 400), and so is a
    value outside the range, NaN and ±inf included (every comparison with
    NaN is false), and, with ``whole``, a fraction. The value comes back as
    given, so a large integer seed keeps every digit.
    """
    value = _number(params.get(name, default), name)
    if not (low < value if above_low else low <= value) or not value <= high:
        bracket = "(" if above_low else "["
        raise ConfigurationError(f"{name} must be in {bracket}{low:g}, {high:g}], got {value!r}")
    if whole and value != int(value):
        raise ConfigurationError(f"{name} must be a whole number, got {value!r}")
    return value


#: :class:`SweepSpec` fields a request gives as numbers: the numeric axes
#: (lists) and the scalar model parameters.
_SWEEP_AXES = ("utilisations", "node_counts", "lifetimes_years")
_SWEEP_NUMBERS = (
    "embodied_per_node_tco2e",
    "embodied_overhead_tco2e",
    "compute_activity",
    "memory_activity",
    "ci_average_steps",
)


def _sweep_fields(value: object, where: str) -> dict:
    """A sweep ``spec`` or ``overrides`` mapping, its numeric fields checked.

    The point params' rule: each numeric axis value and numeric field is a
    JSON number, so a numeric string, a bool or a nested list is a
    :class:`ConfigurationError` naming the field.
    """
    if not isinstance(value, Mapping):
        raise ConfigurationError(f"{where} must be a mapping of sweep-spec fields, got {value!r}")
    for name in _SWEEP_AXES:
        axis = value.get(name, ())
        for item in axis if isinstance(axis, (list, tuple)) else (axis,):
            _number(item, f"{where}.{name}")
    for name in _SWEEP_NUMBERS:
        if name in value:
            _number(value[name], f"{where}.{name}")
    return dict(value)


# -- payload builders (shared with the parity benchmark) -----------------------


def payload_emissions(row: Mapping[str, float]) -> dict:
    """The scalar engine row as a plain JSON mapping.

    RFC 8259 has no NaN or infinity, so a cell the row leaves undefined
    (``perf_ratio`` and ``energy_ratio`` with no app, ``crossing_year``
    with no regime crossing) goes out as ``null``.
    """
    return {
        name: float(value) if math.isfinite(value) else None for name, value in row.items()
    }


def payload_regime(regime, target, ci_g_per_kwh: float) -> dict:
    """Regime classification with its optimisation target."""
    return {
        "ci_g_per_kwh": float(ci_g_per_kwh),
        "regime": regime.value,
        "target": target.value,
    }


def payload_efficiency(rows: list[BenchmarkComparison]) -> dict:
    """Tables 3/4-style comparison rows."""
    return {
        "rows": [
            {
                "app_name": row.app_name,
                "nodes": int(row.nodes),
                "perf_ratio": float(row.perf_ratio),
                "energy_ratio": float(row.energy_ratio),
                "paper_perf_ratio": row.paper_perf_ratio,
                "paper_energy_ratio": row.paper_energy_ratio,
            }
            for row in rows
        ]
    }


def payload_advice(score: OperatingPointScore) -> dict:
    """The recommended operating point plus its mix-weighted ratios."""
    return {
        "config": {
            "frequency": score.config.setting.value,
            "bios_mode": score.config.mode.value,
            "label": score.config.label(),
        },
        "mean_perf_ratio": float(score.mean_perf_ratio),
        "mean_energy_ratio": float(score.mean_energy_ratio),
        "mean_power_ratio": float(score.mean_power_ratio),
        "emissions_ratio": float(score.emissions_ratio),
        "cost_ratio": float(score.cost_ratio),
        "score": float(score.score),
        "feasible": bool(score.feasible),
    }


def payload_sweep(result: SweepResult) -> dict:
    """A sweep as its summary plus the full deterministic CSV grid.

    ``csv`` reuses :meth:`SweepResult.to_csv_rows` — floats rendered with
    ``repr`` — so a cache replay that reproduces the same float64 values
    reproduces the same payload bytes.
    """
    return {"summary": result.to_dict(), "csv": result.to_csv_rows()}


# -- routing -------------------------------------------------------------------


class ServiceRouter:
    """Maps envelope methods onto one shared :class:`FacilityCore`."""

    def __init__(self, core: FacilityCore) -> None:
        self.core = core
        self._handlers = {
            "emissions": self._emissions,
            "classify_regime": self._classify_regime,
            "efficiency": self._efficiency,
            "advise": self._advise,
            "sweep": self._sweep,
            "sched_compare": self._sched_compare,
        }
        assert set(self._handlers) == set(METHODS)

    def dispatch(self, request: ServiceRequest) -> dict:
        """Run one request's handler; returns the JSON-able result payload."""
        handler = self._handlers.get(request.method)
        if handler is None:
            raise ServiceError(
                f"unknown method {request.method!r}; choose from {METHODS}",
                code="unknown-method",
            )
        return handler(request.params)

    # -- handlers ----------------------------------------------------------

    def _emissions(self, params: Mapping) -> dict:
        session = SessionParams.from_mapping(params)
        return payload_emissions(self.core.emissions(session))

    def _classify_regime(self, params: Mapping) -> dict:
        session = SessionParams.from_mapping(params)
        ci = params.get("at_ci_g_per_kwh")
        if ci is None:
            ci = self.core.mean_ci_g_per_kwh(session)
        elif not is_number(ci) or not math.isfinite(ci) or ci < 0:
            raise ConfigurationError(
                f"at_ci_g_per_kwh must be a finite, non-negative number, got {ci!r}"
            )
        else:
            ci = float(ci)
        return payload_regime(
            self.core.classify_regime(session, ci),
            self.core.optimisation_target(session, ci),
            ci,
        )

    def _efficiency(self, params: Mapping) -> dict:
        session = SessionParams.from_mapping(params)
        candidate = (
            _parse_config(params["candidate"], "candidate")
            if "candidate" in params
            else POST_FREQ_CONFIG
        )
        baseline = (
            _parse_config(params["baseline"], "baseline")
            if "baseline" in params
            else None
        )
        app_name = params.get("app_name")
        if app_name is not None and not isinstance(app_name, str):
            raise ConfigurationError(f"app_name must be a string, got {app_name!r}")
        return payload_efficiency(
            self.core.efficiency(session, candidate, baseline, app_name)
        )

    def _advise(self, params: Mapping) -> dict:
        session = SessionParams.from_mapping(params)
        priorities = ARCHER2_WINTER_2022
        if "priorities" in params:
            spec = params["priorities"]
            if not isinstance(spec, Mapping):
                raise ConfigurationError(
                    f"priorities must be a mapping of weights, got {spec!r}"
                )
            try:
                priorities = Priorities(**dict(spec))
            except TypeError as exc:
                raise ConfigurationError(f"bad priorities: {exc}") from None
        return payload_advice(self.core.advise(session, priorities))

    def _sweep(self, params: Mapping) -> dict:
        session = SessionParams.from_mapping(params)
        overrides = _sweep_fields(params.get("overrides", {}), "overrides")
        if "spec" in params and overrides:
            raise ConfigurationError("pass either a spec or field overrides, not both")
        # Building the spec only parses and validates the request, so a
        # malformed one (an unknown field, an axis that is not a list) is a 400.
        try:
            if "spec" in params:
                spec = SweepSpec.from_canonical(_sweep_fields(params["spec"], "spec"))
            else:
                if "ci_scenarios" in overrides:
                    overrides["ci_scenarios"] = tuple(
                        ci if isinstance(ci, CIScenario) else CIScenario.from_canonical(ci)
                        for ci in overrides["ci_scenarios"]
                    )
                spec = self.core.default_spec(session, **overrides)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed sweep request: {exc}") from None
        chunk_size = int(_number(params.get("chunk_size", 4096), "chunk_size"))
        return payload_sweep(self.core.sweep(session, spec, chunk_size=chunk_size))

    def _sched_compare(self, params: Mapping) -> dict:
        # Heavy subsystem: import lazily so the service core stays light.
        from ..grid.carbon_intensity import SCENARIOS
        from ..scheduler.backfill import StaticEnvironment
        from ..scheduler.malleable import compare_rigid_malleable, comparison_trace
        from ..units import SECONDS_PER_DAY

        scenario = params.get("scenario", "balanced")
        if not isinstance(scenario, str) or scenario not in SCENARIOS:
            raise ConfigurationError(
                f"unknown CI scenario {scenario!r}; choose from {sorted(SCENARIOS)}"
            )
        days = float(_sched_param(params, "days", 1.0, 0.0, SCHED_MAX_DAYS, above_low=True))
        nodes = int(_sched_param(params, "nodes", 128, 1, SCHED_MAX_NODES, whole=True))
        seed = int(_sched_param(params, "seed", 42, 0, 2**64 - 1, whole=True))
        load = float(_sched_param(params, "offered_load", 0.95, 0.0, 1.0, above_low=True))
        fraction = float(_sched_param(params, "malleable_fraction", 0.5, 0.0, 1.0))
        slack = float(_sched_param(params, "slack_hours", 2.0, 0.0, SCHED_MAX_SLACK_HOURS))
        tick = float(
            _sched_param(params, "tick_minutes", 30.0, SCHED_MIN_TICK_MINUTES, 1440.0)
        )
        jobs, ci = comparison_trace(
            self.core.mix,
            days=days,
            nodes=nodes,
            seed=seed,
            scenario=scenario,
            offered_load=load,
            malleable_fraction=fraction,
            slack_hours=slack,
        )
        comparison = compare_rigid_malleable(
            jobs,
            days * SECONDS_PER_DAY,
            StaticEnvironment(node_model=self.core.node_model),
            ci,
            n_nodes=nodes,
            carbon_tick_interval_s=tick * 60.0,
            seed=seed,
        )
        rigid, malleable = comparison.rigid, comparison.malleable
        return {
            "n_jobs": len(jobs),
            "rigid": {
                "tco2e": float(comparison.rigid_tco2e),
                "energy_kwh": float(rigid.total_energy_kwh()),
                "mean_utilisation": float(rigid.mean_utilisation()),
                "mean_bounded_stretch": float(rigid.mean_bounded_stretch()),
            },
            "malleable": {
                "tco2e": float(comparison.malleable_tco2e),
                "energy_kwh": float(malleable.total_energy_kwh()),
                "mean_utilisation": float(malleable.mean_utilisation()),
                "mean_bounded_stretch": float(malleable.mean_bounded_stretch()),
                "n_shifted": int(malleable.n_shifted),
                "n_shrinks": int(malleable.n_shrinks),
                "n_grows": int(malleable.n_grows),
            },
            "emissions_saving_tco2e": float(comparison.emissions_saving_tco2e),
            "energy_saving_kwh": float(comparison.energy_saving_kwh),
        }
