"""Intervention advisor: turns regime + detected power level into advice.

This closes the paper's operational loop. The §2 regime says *what to
optimise*; the §4 interventions say *what an operator can actually do*
(BIOS Power→Performance Determinism ≈ −210 kW, default-frequency cap to
2.0 GHz ≈ −480 kW); §3's telemetry says *where the facility currently
sits*. The advisor watches the other processors' alerts — regime
transitions and detected level shifts — infers which interventions are
still un-applied from the detected power level, and emits
:class:`~repro.live.alerts.AdviceAlert` records combining the regime's
optimisation target (via :func:`repro.core.regimes.advice`, the single
source of truth) with the pending actions and their estimated kW and
tCO₂e/year effects at the current carbon intensity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..core.regimes import OptimisationTarget, Regime, advice
from ..errors import MonitoringError
from ..facility.archer2 import (
    ARCHER2_BASELINE_CABINET_POWER_KW,
    ARCHER2_POST_BIOS_CABINET_POWER_KW,
    ARCHER2_POST_FREQ_CABINET_POWER_KW,
)
from ..units import SECONDS_PER_YEAR, g_to_tonnes
from .alerts import (
    AdviceAlert,
    Alert,
    ChangePointAlert,
    Recommendation,
    RegimeChangeAlert,
    RollupAlert,
)
from .events import CI_STREAM, POWER_STREAM

__all__ = ["ActionSpec", "PAPER_ACTIONS", "AdvisorConfig", "InterventionAdvisor"]

_HOURS_PER_YEAR = SECONDS_PER_YEAR / 3600.0


@dataclass(frozen=True)
class ActionSpec:
    """An operator action and its expected facility-power effect."""

    key: str
    description: str
    expected_delta_kw: float


#: The paper's §4 interventions in rollout order, with Figures 2/3 deltas.
PAPER_ACTIONS: tuple[ActionSpec, ...] = (
    ActionSpec(
        key="bios-performance-determinism",
        description="switch node BIOS from Power to Performance Determinism (§4.1)",
        expected_delta_kw=ARCHER2_POST_BIOS_CABINET_POWER_KW - ARCHER2_BASELINE_CABINET_POWER_KW,
    ),
    ActionSpec(
        key="frequency-cap-2.0ghz",
        description="cap the default CPU frequency at 2.0 GHz (§4.2)",
        expected_delta_kw=ARCHER2_POST_FREQ_CABINET_POWER_KW - ARCHER2_POST_BIOS_CABINET_POWER_KW,
    ),
)


@dataclass(frozen=True)
class AdvisorConfig:
    """Tuning of the advisor.

    ``baseline_power_kw`` anchors the expected level ladder (baseline, then
    each action's cumulative effect); the detected level is matched to the
    nearest rung to infer which actions remain pending.
    ``level_tolerance_fraction`` bounds how far a detected level may sit
    from a rung before the advisor refuses to attribute it.
    ``degraded_policy`` selects what happens while the supervisor holds the
    advisor in degraded mode (a watched stream is stale): ``"flag"`` keeps
    advising but marks every alert ``confidence="degraded"``; ``"suppress"``
    emits no advice until the inputs are fresh again.
    """

    baseline_power_kw: float = ARCHER2_BASELINE_CABINET_POWER_KW
    actions: tuple[ActionSpec, ...] = PAPER_ACTIONS
    level_tolerance_fraction: float = 0.04
    degraded_policy: str = "flag"

    def __post_init__(self) -> None:
        if self.baseline_power_kw <= 0:
            raise MonitoringError("baseline_power_kw must be positive")
        if not 0 < self.level_tolerance_fraction < 1:
            raise MonitoringError("level_tolerance_fraction must be in (0, 1)")
        if self.degraded_policy not in ("flag", "suppress"):
            raise MonitoringError(
                f"degraded_policy must be 'flag' or 'suppress', "
                f"got {self.degraded_policy!r}"
            )

    def expected_levels_kw(self) -> list[float]:
        """The level ladder: baseline, then cumulative post-action levels."""
        levels = [self.baseline_power_kw]
        for action in self.actions:
            levels.append(levels[-1] + action.expected_delta_kw)
        return levels


@dataclass
class InterventionAdvisor:
    """Stateful observer combining regime, CI and power-level alerts."""

    config: AdvisorConfig = field(default_factory=AdvisorConfig)
    regime: Regime | None = None
    ci_g_per_kwh: float = math.nan
    level_kw: float = math.nan
    degraded: bool = False
    _last_emitted: tuple | None = None

    def set_degraded(self, degraded: bool) -> None:
        """Flip degraded mode (driven by the supervisor's staleness watchdogs).

        While degraded, advice follows ``config.degraded_policy``: it is
        either suppressed entirely or emitted with ``confidence="degraded"``.
        """
        self.degraded = bool(degraded)

    def observe(self, alert: Alert) -> list[AdviceAlert]:
        """Update state from one alert; return any fresh advice."""
        relevant = False
        if isinstance(alert, RegimeChangeAlert):
            self.regime = alert.regime
            self.ci_g_per_kwh = alert.ci_g_per_kwh
            relevant = True
        elif isinstance(alert, ChangePointAlert) and alert.stream == POWER_STREAM:
            self.level_kw = alert.level_after_estimate
            relevant = True
        elif isinstance(alert, RollupAlert):
            # Rollups refresh the state estimates but never trigger advice.
            if alert.stream == POWER_STREAM and not math.isnan(alert.mean):
                self.level_kw = alert.mean
            elif alert.stream == CI_STREAM and not math.isnan(alert.mean):
                self.ci_g_per_kwh = alert.mean
        if not relevant or self.regime is None:
            return []
        return self._advise(alert.time_s)

    def pending_actions(self) -> tuple[ActionSpec, ...]:
        """Actions not yet reflected in the detected power level.

        The detected level is snapped to the nearest rung of the expected
        ladder; everything below that rung is pending. With no level
        detected yet, every action is pending. A level beyond tolerance of
        any rung also returns every action — better to over-advise than to
        silently assume an intervention happened.
        """
        cfg = self.config
        if math.isnan(self.level_kw):
            return cfg.actions
        levels = cfg.expected_levels_kw()
        gaps = [abs(self.level_kw - level) for level in levels]
        nearest = min(range(len(levels)), key=gaps.__getitem__)
        if gaps[nearest] > cfg.level_tolerance_fraction * cfg.baseline_power_kw:
            return cfg.actions
        return cfg.actions[nearest:]

    def _advise(self, time_s: float) -> list[AdviceAlert]:
        if self.degraded and self.config.degraded_policy == "suppress":
            return []
        confidence = "degraded" if self.degraded else "normal"
        target = advice(self.regime)
        pending = self.pending_actions()
        if self.regime is Regime.SCOPE3_DOMINATED:
            recommendations: tuple[Recommendation, ...] = ()
            note = (
                "scope-3 dominated: maximise application performance; "
                "power-saving actions not advised"
            )
        else:
            recommendations = tuple(
                self._recommend(action) for action in pending
            )
            if self.regime is Regime.SCOPE2_DOMINATED:
                note = "scope-2 dominated: maximise energy efficiency"
            else:
                note = "balanced band: weigh energy savings against performance"
        signature = (self.regime, target, tuple(a.key for a in pending), confidence)
        if signature == self._last_emitted:
            return []
        self._last_emitted = signature
        return [
            AdviceAlert(
                time_s=time_s,
                stream="advice",
                regime=self.regime,
                target=target,
                recommendations=recommendations,
                note=note,
                confidence=confidence,
            )
        ]

    # -- persistence -----------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot the advisor's regime/CI/level estimates and dedup state."""
        last = self._last_emitted
        return {
            "regime": self.regime.value if self.regime else None,
            "ci_g_per_kwh": self.ci_g_per_kwh,
            "level_kw": self.level_kw,
            "degraded": self.degraded,
            "last_emitted": (
                [last[0].value, last[1].value, list(last[2]), last[3]]
                if last is not None
                else None
            ),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self.regime = Regime(state["regime"]) if state["regime"] else None
        self.ci_g_per_kwh = state["ci_g_per_kwh"]
        self.level_kw = state["level_kw"]
        self.degraded = state["degraded"]
        last = state["last_emitted"]
        self._last_emitted = (
            (
                Regime(last[0]),
                OptimisationTarget(last[1]),
                tuple(last[2]),
                last[3],
            )
            if last is not None
            else None
        )

    def _recommend(self, action: ActionSpec) -> Recommendation:
        saving_kw = -action.expected_delta_kw
        if math.isnan(self.ci_g_per_kwh):
            tco2e = math.nan
        else:
            grams = saving_kw * _HOURS_PER_YEAR * self.ci_g_per_kwh
            tco2e = g_to_tonnes(grams)
        return Recommendation(
            action=action.key,
            description=action.description,
            expected_delta_kw=action.expected_delta_kw,
            estimated_tco2e_saved_per_year=tco2e,
        )
