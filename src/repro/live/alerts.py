"""Structured alerts and alert sinks for the live monitor.

Every observation the pipeline makes — a closed rollup window, a detected
mean shift, a regime transition, an operating recommendation — is emitted as
a typed, frozen alert record rather than a log line, so downstream consumers
(tests, dashboards, the CLI) can pattern-match on alert classes and fields.

Sinks receive every alert in emission order. :class:`TextAlertSink` renders
one human-readable line per alert to any writable stream (the ``repro
monitor`` CLI's live output); :attr:`MonitorReport.alerts
<repro.live.pipeline.MonitorReport.alerts>` holds them for programmatic use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Protocol

from ..core.regimes import OptimisationTarget, Regime
from ..units import SECONDS_PER_DAY

__all__ = [
    "Alert",
    "RollupAlert",
    "ChangePointAlert",
    "RegimeChangeAlert",
    "Recommendation",
    "AdviceAlert",
    "DataGapAlert",
    "ProcessorCrashAlert",
    "DeadLetterAlert",
    "DegradedModeAlert",
    "AlertSink",
    "TextAlertSink",
    "format_alert",
]


@dataclass(frozen=True)
class Alert:
    """Base alert: something observed at ``time_s`` on ``stream``."""

    time_s: float
    stream: str


@dataclass(frozen=True)
class RollupAlert(Alert):
    """Summary of one closed tumbling window of a stream."""

    window_start_s: float
    window_end_s: float
    n_samples: int
    n_valid: int
    mean: float
    std: float
    minimum: float
    maximum: float
    quantiles: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class ChangePointAlert(Alert):
    """An online CUSUM alarm: the stream's mean level has shifted."""

    onset_time_s: float
    level_before: float
    level_after_estimate: float
    significance: float
    direction: int  # +1 level rose, -1 level fell


@dataclass(frozen=True)
class RegimeChangeAlert(Alert):
    """The carbon-intensity regime tracker committed a transition."""

    previous: Regime | None
    regime: Regime
    ci_g_per_kwh: float


@dataclass(frozen=True)
class Recommendation:
    """One advised operator action with its estimated effect."""

    action: str
    description: str
    expected_delta_kw: float
    estimated_tco2e_saved_per_year: float


@dataclass(frozen=True)
class AdviceAlert(Alert):
    """Operating advice for the current regime and detected power level.

    ``confidence`` is ``"normal"`` while every input stream is fresh and
    ``"degraded"`` while the supervisor has the advisor in degraded mode
    (a watched stream is stale, so the regime/level estimates may be old).
    """

    regime: Regime
    target: OptimisationTarget
    recommendations: tuple[Recommendation, ...]
    note: str
    confidence: str = "normal"


@dataclass(frozen=True)
class DataGapAlert(Alert):
    """A staleness watchdog tripped: ``stream`` has gone quiet.

    ``last_seen_s`` is the stream's last observed timestamp; ``gap_s`` is how
    far the rest of the telemetry has advanced past it when the watchdog
    fired (or, for ``recovered`` alerts, the total span of the gap).
    """

    last_seen_s: float
    gap_s: float
    recovered: bool = False


@dataclass(frozen=True)
class ProcessorCrashAlert(Alert):
    """A processor raised while handling a batch and was crash-isolated.

    The pipeline survives: the supervisor records the failure, schedules a
    restart after an exponential backoff (``retry_at_s``, stream time), and
    after too many crashes quarantines the processor permanently
    (``quarantined=True``, ``retry_at_s=inf``).
    """

    processor: str
    error: str
    crashes: int
    retry_at_s: float
    quarantined: bool


@dataclass(frozen=True)
class DeadLetterAlert(Alert):
    """A batch was rejected at admission and routed to the dead-letter store."""

    reason: str
    n_samples: int
    t_start_s: float
    t_end_s: float


@dataclass(frozen=True)
class DegradedModeAlert(Alert):
    """The advisor entered (or left) degraded mode.

    While degraded, advice is confidence-flagged or suppressed (per
    ``AdvisorConfig.degraded_policy``) because ``stale_streams`` stopped
    producing telemetry.
    """

    entered: bool
    stale_streams: tuple[str, ...]


class AlertSink(Protocol):
    """Anything that can receive emitted alerts."""

    def emit(self, alert: Alert) -> None:
        """Receive one alert, in emission order."""
        ...


class TextAlertSink:
    """Writes one formatted line per alert to a stream."""

    def __init__(self, stream: IO[str]) -> None:
        """Write to ``stream`` (e.g. ``sys.stdout``)."""
        self._stream = stream

    def emit(self, alert: Alert) -> None:
        """Render and write the alert."""
        self._stream.write(format_alert(alert) + "\n")


def _day(time_s: float) -> str:
    return f"day {time_s / SECONDS_PER_DAY:6.2f}"


def format_alert(alert: Alert) -> str:
    """One human-readable line for any alert type."""
    if isinstance(alert, ChangePointAlert):
        arrow = "rose" if alert.direction > 0 else "fell"
        return (
            f"[{_day(alert.time_s)}] CHANGE     {alert.stream}: level {arrow} "
            f"{alert.level_before:,.0f} -> ~{alert.level_after_estimate:,.0f} "
            f"(onset {_day(alert.onset_time_s).strip()}, S={alert.significance:.1f})"
        )
    if isinstance(alert, RegimeChangeAlert):
        previous = alert.previous.value if alert.previous else "start"
        return (
            f"[{_day(alert.time_s)}] REGIME     {previous} -> {alert.regime.value} "
            f"(CI {alert.ci_g_per_kwh:.0f} gCO2/kWh)"
        )
    if isinstance(alert, AdviceAlert):
        if alert.recommendations:
            actions = "; ".join(
                f"{r.action} ({r.expected_delta_kw:+,.0f} kW, "
                f"~{r.estimated_tco2e_saved_per_year:,.0f} tCO2e/yr)"
                for r in alert.recommendations
            )
        else:
            actions = "no power actions advised"
        flag = "" if alert.confidence == "normal" else f" [{alert.confidence.upper()}]"
        return f"[{_day(alert.time_s)}] ADVICE{flag}     {alert.note}: {actions}"
    if isinstance(alert, DataGapAlert):
        state = "recovered after" if alert.recovered else "stale for"
        return (
            f"[{_day(alert.time_s)}] DATA GAP   {alert.stream}: {state} "
            f"{alert.gap_s / 3600.0:.1f} h (last sample {_day(alert.last_seen_s).strip()})"
        )
    if isinstance(alert, ProcessorCrashAlert):
        fate = (
            "QUARANTINED"
            if alert.quarantined
            else f"restart at {_day(alert.retry_at_s).strip()}"
        )
        return (
            f"[{_day(alert.time_s)}] CRASH      {alert.processor}: "
            f"{alert.error} (crash #{alert.crashes}, {fate})"
        )
    if isinstance(alert, DeadLetterAlert):
        return (
            f"[{_day(alert.time_s)}] DEAD LETTER {alert.stream}: "
            f"{alert.n_samples} sample(s) rejected ({alert.reason})"
        )
    if isinstance(alert, DegradedModeAlert):
        verb = "entered" if alert.entered else "left"
        streams = ", ".join(alert.stale_streams) or "none"
        return (
            f"[{_day(alert.time_s)}] DEGRADED   advisor {verb} degraded mode "
            f"(stale: {streams})"
        )
    if isinstance(alert, RollupAlert):
        quantiles = " ".join(f"p{int(q * 100)}={v:,.0f}" for q, v in alert.quantiles)
        return (
            f"[{_day(alert.time_s)}] ROLLUP     {alert.stream}: "
            f"mean={alert.mean:,.1f} std={alert.std:,.1f} {quantiles} "
            f"({alert.n_valid}/{alert.n_samples} valid)"
        )
    return f"[{_day(alert.time_s)}] ALERT      {alert.stream}"
