"""Live carbon-intensity regime tracking with hysteresis and debounce.

The paper's §2 rule partitions operation at 30 and 100 gCO₂/kWh. Applied
naively to a live CI feed, those thresholds *flap*: UK-shaped CI regularly
chatters around a boundary for hours, and each crossing would re-advise the
operator. The tracker therefore commits a transition only when

* the sample classifies into a different regime even after the band
  boundaries are shifted ``hysteresis_g_per_kwh`` *away* from the current
  regime (a sticky band), **and**
* ``min_dwell_samples`` consecutive samples agree (debounce).

Classification itself is delegated to :func:`repro.core.regimes.classify_ci`
with shifted boundaries — the batch rule stays the single source of truth
for boundary semantics (`< low` / `low ≤ ci ≤ high` / `> high`), and with
``hysteresis_g_per_kwh=0`` and ``min_dwell_samples=1`` the tracker's
transition sequence is exactly the batch per-sample sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.regimes import PAPER_HIGH_CI, PAPER_LOW_CI, Regime, classify_ci
from ..errors import MonitoringError
from .alerts import Alert, RegimeChangeAlert
from .events import StreamBatch
from .processors import Processor

__all__ = ["RegimeTrackerConfig", "RegimeTracker"]


@dataclass(frozen=True)
class RegimeTrackerConfig:
    """Tuning of the live regime tracker.

    ``hysteresis_g_per_kwh`` widens the current regime's band on exit;
    ``min_dwell_samples`` is how many consecutive samples must agree before
    a transition commits. Both default to values that suppress boundary
    chatter at UK CI volatility without delaying genuine transitions by
    more than a few samples.
    """

    low_ci_g_per_kwh: float = PAPER_LOW_CI
    high_ci_g_per_kwh: float = PAPER_HIGH_CI
    hysteresis_g_per_kwh: float = 5.0
    min_dwell_samples: int = 3

    def __post_init__(self) -> None:
        if self.low_ci_g_per_kwh >= self.high_ci_g_per_kwh:
            raise MonitoringError("low boundary must be below high boundary")
        half_band = (self.high_ci_g_per_kwh - self.low_ci_g_per_kwh) / 2
        if not 0 <= self.hysteresis_g_per_kwh < half_band:
            raise MonitoringError(
                "hysteresis_g_per_kwh must be in [0, half the band width)"
            )
        if self.min_dwell_samples < 1:
            raise MonitoringError("min_dwell_samples must be at least 1")


class RegimeTracker(Processor):
    """Tracks the §2 regime of a live CI stream without boundary flapping.

    Each batch is classified in one vectorised pass (the same ``< low`` /
    ``≤ high`` / ``> high`` rule as :func:`~repro.core.regimes.classify_ci`)
    and hysteresis plus debounce are applied on the run-length-encoded
    regime sequence. The per-sample loop :meth:`_process_scalar` is kept
    only as the parity oracle for tests: both commit bit-identical
    transitions and ``state_dict`` contents.
    """

    #: classify_ci outcome ↔ integer code used by the vectorised pass.
    _REGIME_OF_CODE = (Regime.SCOPE3_DOMINATED, Regime.BALANCED, Regime.SCOPE2_DOMINATED)

    def __init__(
        self,
        stream: str,
        config: RegimeTrackerConfig | None = None,
    ) -> None:
        """Track regimes on ``stream`` under ``config``."""
        super().__init__(stream)
        self.config = config or RegimeTrackerConfig()
        self.current: Regime | None = None
        self._pending_regime: Regime | None = None
        self._pending_count = 0
        self._pending_time_s = math.nan
        self._pending_ci = math.nan
        self.transitions: list[RegimeChangeAlert] = []
        self.nan_samples = 0

    def _sticky_bounds(self, current: Regime) -> tuple[float, float]:
        """Band boundaries shifted away from the current regime."""
        cfg = self.config
        low, high, h = cfg.low_ci_g_per_kwh, cfg.high_ci_g_per_kwh, cfg.hysteresis_g_per_kwh
        if current is Regime.SCOPE3_DOMINATED:
            return low + h, high + h
        if current is Regime.SCOPE2_DOMINATED:
            return low - h, high - h
        return low - h, high + h

    def _process_scalar(self, batch: StreamBatch) -> list[Alert]:
        """Per-sample oracle for :meth:`process` (reached only from tests)."""
        alerts: list[Alert] = []
        cfg = self.config
        for time_s, ci in zip(batch.times_s.tolist(), batch.values.tolist()):
            if math.isnan(ci):
                self.nan_samples += 1
                continue
            if self.current is None:
                self.current = classify_ci(
                    ci, cfg.low_ci_g_per_kwh, cfg.high_ci_g_per_kwh
                )
                alerts.append(self._commit(None, self.current, time_s, ci))
                continue
            candidate = classify_ci(ci, *self._sticky_bounds(self.current))
            if candidate is self.current:
                self._pending_regime = None
                self._pending_count = 0
                continue
            if candidate is not self._pending_regime:
                self._pending_regime = candidate
                self._pending_count = 1
                self._pending_time_s = time_s
                self._pending_ci = ci
            else:
                self._pending_count += 1
            if self._pending_count >= cfg.min_dwell_samples:
                previous = self.current
                self.current = candidate
                alerts.append(
                    self._commit(
                        previous, candidate, self._pending_time_s, self._pending_ci
                    )
                )
                self._pending_regime = None
                self._pending_count = 0
        return alerts

    # -- vectorised hot path ---------------------------------------------------

    def process(self, batch: StreamBatch) -> list[Alert]:
        """Absorb CI samples; return committed regime transitions.

        Classifies the batch in one pass, then walks the run-length-encoded
        candidate sequence — bit-identical to :meth:`_process_scalar` by
        construction."""
        alerts: list[Alert] = []
        cfg = self.config
        values = batch.values
        nan_mask = np.isnan(values)
        # A negative sample aborts the batch mid-way (classify_ci raises),
        # so only NaNs the scalar loop would have reached are counted.
        negatives = np.flatnonzero(values < 0.0)
        nan_limit = int(negatives[0]) if len(negatives) else len(values)
        self.nan_samples += int(np.count_nonzero(nan_mask[:nan_limit]))
        if nan_mask.any():
            keep = ~nan_mask
            times = batch.times_s[keep]
            values = values[keep]
        else:
            times = batch.times_s
        n = len(values)
        i = 0
        while i < n:
            if self.current is None:
                ci = float(values[i])
                self.current = classify_ci(
                    ci, cfg.low_ci_g_per_kwh, cfg.high_ci_g_per_kwh
                )
                alerts.append(self._commit(None, self.current, float(times[i]), ci))
                i += 1
                continue
            i = self._dwell_span(times, values, i, n, alerts)
        return alerts

    def _dwell_span(
        self,
        times: np.ndarray,
        values: np.ndarray,
        lo: int,
        n: int,
        alerts: list[Alert],
    ) -> int:
        """Apply hysteresis/debounce to ``[lo, n)`` under the current sticky
        band; returns the index processed up to. Stops early on a committed
        transition (the band changes) and re-raises exactly where the
        scalar loop would on a negative CI sample."""
        cfg = self.config
        low, high = self._sticky_bounds(self.current)
        ci = values[lo:n]
        limit = n - lo
        negatives = np.flatnonzero(ci < 0.0)
        if len(negatives):
            limit = int(negatives[0])
            if limit == 0:
                classify_ci(float(ci[0]), low, high)  # raises ConfigurationError
        # classify_ci's boundary rule, vectorised: < low / ≤ high / > high.
        codes = np.where(ci[:limit] < low, 0, np.where(ci[:limit] > high, 2, 1))
        current_code = self._REGIME_OF_CODE.index(self.current)
        run_bounds = (np.flatnonzero(codes[1:] != codes[:-1]) + 1).tolist()
        starts = [0, *run_bounds]
        ends = [*run_bounds, limit]
        for start, end in zip(starts, ends):
            code = int(codes[start])
            if code == current_code:
                self._pending_regime = None
                self._pending_count = 0
                continue
            candidate = self._REGIME_OF_CODE[code]
            if candidate is not self._pending_regime:
                self._pending_regime = candidate
                self._pending_count = 0
                self._pending_time_s = float(times[lo + start])
                self._pending_ci = float(values[lo + start])
            need = cfg.min_dwell_samples - self._pending_count
            if end - start >= need:
                # Dwell satisfied mid-run: commit and rescan the remainder
                # under the new regime's sticky band.
                previous = self.current
                self.current = candidate
                alerts.append(
                    self._commit(
                        previous, candidate, self._pending_time_s, self._pending_ci
                    )
                )
                self._pending_regime = None
                self._pending_count = 0
                return lo + start + need
            self._pending_count += end - start
        if len(negatives):
            classify_ci(float(ci[limit]), low, high)  # raises ConfigurationError
        return n

    def _commit(
        self, previous: Regime | None, regime: Regime, time_s: float, ci: float
    ) -> RegimeChangeAlert:
        alert = RegimeChangeAlert(
            time_s=time_s,
            stream=self.stream,
            previous=previous,
            regime=regime,
            ci_g_per_kwh=ci,
        )
        self.transitions.append(alert)
        return alert

    @property
    def regime_sequence(self) -> list[Regime]:
        """Committed regimes in order (initial classification first)."""
        return [t.regime for t in self.transitions]

    # -- persistence -----------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot the committed regime, debounce state and transitions."""
        return {
            "current": self.current.value if self.current else None,
            "pending_regime": (
                self._pending_regime.value if self._pending_regime else None
            ),
            "pending_count": self._pending_count,
            "pending_time_s": self._pending_time_s,
            "pending_ci": self._pending_ci,
            "transitions": [
                {
                    "time_s": t.time_s,
                    "stream": t.stream,
                    "previous": t.previous.value if t.previous else None,
                    "regime": t.regime.value,
                    "ci_g_per_kwh": t.ci_g_per_kwh,
                }
                for t in self.transitions
            ],
            "nan_samples": self.nan_samples,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self.current = Regime(state["current"]) if state["current"] else None
        self._pending_regime = (
            Regime(state["pending_regime"]) if state["pending_regime"] else None
        )
        self._pending_count = state["pending_count"]
        self._pending_time_s = state["pending_time_s"]
        self._pending_ci = state["pending_ci"]
        self.transitions = [
            RegimeChangeAlert(
                time_s=t["time_s"],
                stream=t["stream"],
                previous=Regime(t["previous"]) if t["previous"] else None,
                regime=Regime(t["regime"]),
                ci_g_per_kwh=t["ci_g_per_kwh"],
            )
            for t in state["transitions"]
        ]
        self.nan_samples = state["nan_samples"]
