"""Online CUSUM mean-shift detection — the streaming counterpart of
:func:`repro.analysis.changepoint.detect_single`.

The batch detector scans a *complete* series for the maximum-likelihood
split. Operationally we need the opposite: a detector that watches samples
arrive and raises an alarm a bounded number of samples after a shift — the
paper's Figures 2/3 steps (−210 kW, −480 kW) observed live rather than in
retrospect.

This is Page's two-sided tabular CUSUM with a drift (reference) parameter
and reset-on-alarm:

* a warm-up window freezes the baseline mean μ̂ and deviation σ̂;
* each sample updates ``S⁺ = max(0, S⁺ + z − k)`` and
  ``S⁻ = max(0, S⁻ − z − k)`` with ``z = (x − μ̂)/σ̂`` and drift ``k``;
* an alarm fires when either statistic exceeds the threshold ``h``; the
  shift onset is estimated as the start of the alarm-side run (the last
  time that statistic was zero), which is the classical change-time
  estimate for CUSUM;
* on alarm the detector *resets*: the run's samples seed a new segment,
  the baseline re-estimates, and detection resumes — so a sequence of
  interventions yields a sequence of alarms and a piecewise-constant
  segmentation equivalent to the batch view.

Because run samples are attributed to the *new* segment, the per-segment
means the detector reports match the batch per-segment means (the paper's
before/after levels) rather than being contaminated by the transition ramp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import MonitoringError
from .alerts import Alert, ChangePointAlert
from .events import StreamBatch
from .processors import Processor

__all__ = ["CusumConfig", "Segment", "OnlineCusum"]

#: IEEE-754 double machine epsilon, used to size the vector scan's
#: certified error envelope.
_EPS = float(np.finfo(float).eps)


def _chain_total(seed: float, values: np.ndarray) -> float:
    """Left-to-right float addition chain over ``values`` seeded at ``seed``.

    ``np.add.accumulate`` applies the ufunc strictly sequentially, so this
    is bit-identical to ``for x in values: seed += x`` — unlike ``np.sum``,
    whose pairwise reduction rounds differently. The vector scan uses it
    to fold whole spans into the scalar accumulators without drift.
    """
    if not len(values):
        return seed
    return float(np.add.accumulate(np.concatenate(((seed,), values)))[-1])


def _chain_total_pair(
    seed_a: float, seed_b: float, values: np.ndarray
) -> tuple[float, float]:
    """Two seeded addition chains in one accumulate: ``values`` and its
    squares. Each row is the same strictly-sequential chain as
    :func:`_chain_total`, so both totals stay bit-identical to the scalar
    per-sample loop — one numpy call instead of two plus a squares temp.
    """
    block = np.empty((2, len(values) + 1))
    block[0, 0] = seed_a
    block[1, 0] = seed_b
    block[0, 1:] = values
    np.multiply(values, values, out=block[1, 1:])
    totals = np.add.accumulate(block, axis=1)[:, -1]
    return float(totals[0]), float(totals[1])


@dataclass(frozen=True)
class CusumConfig:
    """Tuning of the online detector.

    ``threshold_sigma`` (h) sets the alarm level in σ̂ units: larger means
    fewer false alarms and later detection (average run length grows
    roughly exponentially in h). ``drift_sigma`` (k) is the half-magnitude
    of the smallest shift worth detecting, in σ̂ units — shifts smaller than
    2k are absorbed. ``warmup_samples`` sets how many samples estimate the
    baseline before detection arms.
    """

    threshold_sigma: float = 10.0
    drift_sigma: float = 1.0
    warmup_samples: int = 96
    min_sigma: float = 1e-12

    def __post_init__(self) -> None:
        if self.threshold_sigma <= 0:
            raise MonitoringError("threshold_sigma must be positive")
        if self.drift_sigma < 0:
            raise MonitoringError("drift_sigma must be non-negative")
        if self.warmup_samples < 4:
            raise MonitoringError("warmup_samples must be at least 4")
        if self.min_sigma <= 0:
            raise MonitoringError("min_sigma must be positive")


@dataclass(frozen=True)
class Segment:
    """One steady level between detected changes."""

    start_time_s: float
    end_time_s: float
    n: int
    mean: float
    std: float


class _Accumulator:
    """Plain sum/sum-of-squares accumulator (subtractable, unlike Welford)."""

    __slots__ = ("n", "total", "total_sq", "start_time_s", "last_time_s")

    def __init__(self) -> None:
        self.n = 0
        self.total = 0.0
        self.total_sq = 0.0
        self.start_time_s = math.nan
        self.last_time_s = math.nan

    def add(self, time_s: float, value: float) -> None:
        if self.n == 0:
            self.start_time_s = time_s
        self.n += 1
        self.total += value
        self.total_sq += value * value
        self.last_time_s = time_s

    def clear(self) -> None:
        self.n = 0
        self.total = 0.0
        self.total_sq = 0.0
        self.start_time_s = math.nan
        self.last_time_s = math.nan

    def state_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in _Accumulator.__slots__}

    def load_state_dict(self, state: dict) -> None:
        for slot in _Accumulator.__slots__:
            setattr(self, slot, state[slot])

    @classmethod
    def restore(cls, state: dict) -> "_Accumulator":
        out = cls()
        out.load_state_dict(state)
        return out

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else math.nan

    @property
    def std(self) -> float:
        if not self.n:
            return math.nan
        variance = max(0.0, self.total_sq / self.n - self.mean**2)
        return math.sqrt(variance)


class OnlineCusum(Processor):
    """Two-sided CUSUM detector with drift and reset-on-alarm.

    NaN samples (meter dropouts) are skipped and counted, never resurrected
    into the statistics. After the stream ends, :attr:`segments` holds the
    piecewise-constant segmentation (call sites normally get it via the
    pipeline, which invokes :meth:`finish`).

    Batches are processed by a vectorised scan of the cumulative
    statistic (see :meth:`_scan`); only alarm candidates and
    certification-ambiguous spans step through the per-sample recursion.
    The per-sample loop :meth:`_process_scalar` is kept only as the parity
    oracle for tests: both produce bit-identical alerts, segments and
    ``state_dict`` contents.
    """

    #: After a non-alarming candidate the statistic hovers near the
    #: threshold; take this many samples through the scalar loop before
    #: re-attempting a vector scan, so hovering costs O(n) not O(n·m).
    _SCALAR_COOLDOWN = 32

    #: Most samples one vector scan covers. The scan workspace is sized by
    #: this, not by the batch, so a million-sample catch-up slab leaves no
    #: more resident memory behind than a live 4,096-sample batch.
    _SCAN_SPAN = 2048

    def __init__(
        self,
        stream: str,
        config: CusumConfig | None = None,
    ) -> None:
        """Watch ``stream`` for mean shifts under ``config``."""
        super().__init__(stream)
        self.config = config or CusumConfig()
        self._segment = _Accumulator()
        self._run_high = _Accumulator()  # samples while S⁺ > 0
        self._run_low = _Accumulator()  # samples while S⁻ > 0
        self._mu = math.nan
        self._sigma = math.nan
        self._s_high = 0.0
        self._s_low = 0.0
        self._closed: list[Segment] = []
        self._finished = False
        self.nan_samples = 0
        # Reusable scan workspace (seeded chain / chain / clamp blocks of
        # _SCAN_SPAN + 1 columns) — pure cache, never persisted.
        self._scratch: np.ndarray | None = None

    # -- ingest ----------------------------------------------------------------

    def _process_scalar(self, batch: StreamBatch) -> list[Alert]:
        """Per-sample oracle for :meth:`process` (reached only from tests)."""
        alerts: list[Alert] = []
        for time_s, value in zip(batch.times_s.tolist(), batch.values.tolist()):
            if math.isnan(value):
                self.nan_samples += 1
                continue
            self._ingest(time_s, value, alerts)
        return alerts

    def _ingest(self, time_s: float, value: float, alerts: list[Alert]) -> None:
        self._segment.add(time_s, value)
        if math.isnan(self._mu):
            self._maybe_arm()
            return

        # The per-side deltas are rounded before entering the recursion so
        # the scalar chain and the vectorised cumulative scan share one
        # rounding order (and −fl(z + k) == fl(−z − k) exactly).
        k = self.config.drift_sigma
        z = (value - self._mu) / self._sigma
        d_high = z - k
        d_low = -(z + k)
        self._s_high = max(0.0, self._s_high + d_high)
        if self._s_high > 0.0:
            self._run_high.add(time_s, value)
        else:
            self._run_high.clear()
        self._s_low = max(0.0, self._s_low + d_low)
        if self._s_low > 0.0:
            self._run_low.add(time_s, value)
        else:
            self._run_low.clear()

        h = self.config.threshold_sigma
        if self._s_high > h:
            self._alarm(time_s, +1, self._s_high, self._run_high, alerts)
        elif self._s_low > h:
            self._alarm(time_s, -1, self._s_low, self._run_low, alerts)

    # -- vectorised hot path ---------------------------------------------------

    def process(self, batch: StreamBatch) -> list[Alert]:
        """Absorb one batch; return any alarms raised.

        Bulk warm-up, scanned in-control spans of at most
        :attr:`_SCAN_SPAN` samples, and a scalar step only at alarm
        candidates — bit-identical to :meth:`_process_scalar` by
        construction."""
        alerts: list[Alert] = []
        values = batch.values
        nan_mask = np.isnan(values)
        n_nan = int(np.count_nonzero(nan_mask))
        if n_nan:
            self.nan_samples += n_nan
            keep = ~nan_mask
            times = batch.times_s[keep]
            values = values[keep]
        else:
            times = batch.times_s
        n = len(values)
        i = 0
        scalar_until = 0
        while i < n:
            if math.isnan(self._mu):
                # Warming up: detection is off, so the whole stretch up to
                # the arming point folds into the segment in one shot.
                take = min(self.config.warmup_samples - self._segment.n, n - i)
                self._bulk_segment_add(times, values, i, i + take)
                i += take
                self._maybe_arm()
                continue
            if i >= scalar_until:
                hi = min(n, i + self._SCAN_SPAN)
                span, applied = self._scan(times, values, i, hi)
                if not applied:
                    # Rare: the scan could not certify where the statistic
                    # last touched zero — replay the span through the
                    # scalar recursion (correctness never rides on the bound).
                    stop = i + span
                    while i < stop:
                        self._ingest(float(times[i]), float(values[i]), alerts)
                        i += 1
                    continue
                i += span
                if i == hi:
                    continue  # no candidate up to the end of this scan
            # The next sample is an alarm candidate (or inside a cooldown
            # window): take it through the scalar recursion.
            n_closed = len(self._closed)
            self._ingest(float(times[i]), float(values[i]), alerts)
            i += 1
            alarmed = len(self._closed) != n_closed or math.isnan(self._mu)
            if not alarmed and i >= scalar_until:
                scalar_until = i + self._SCALAR_COOLDOWN
        return alerts

    def _scan(
        self, times: np.ndarray, values: np.ndarray, lo: int, hi: int
    ) -> tuple[int, bool]:
        """Scan the armed span ``[lo, hi)`` for the first alarm candidate.

        The clamped CUSUM recursion ``S_t = max(0, S_{t-1} + d_t)`` equals
        the running chain minus its running minimum (reflected-walk
        identity), which vectorises. Exact float equality with the scalar
        chain is then recovered inside a certified error envelope: the
        approximate statistic ``stat`` is within ``eps`` of the scalar
        value, candidates are anything above ``h - eps``, and the last
        certain zero before the candidate re-anchors an exact re-chained
        statistic. Returns ``(span, applied)``: ``span`` samples from
        ``lo`` contain no alarm; if ``applied`` they have been folded into
        the detector state, otherwise the caller must replay them through
        the scalar loop (certification ambiguity).
        """
        cfg = self.config
        k = cfg.drift_sigma
        h = cfg.threshold_sigma
        m = hi - lo
        # Both sides in one (2, m+1) block — seeds in column 0 — so every
        # accumulate/compare below is a single numpy call, served from one
        # fixed-size workspace (three blocks: seeded diffs, chain, clamp).
        # Every cell read below is written first, so reuse cannot leak
        # state between scans. Row arithmetic matches the scalar recursion
        # exactly: fl(z - k) for the high side, and -fl(z + k) for the low
        # side (exact negation of the rounded sum, as `_ingest` computes).
        width = m + 1
        if self._scratch is None:
            self._scratch = np.empty((6, self._SCAN_SPAN + 1))
        seeded = self._scratch[0:2, :width]
        chain_block = self._scratch[2:4, :width]
        clamp_block = self._scratch[4:6, :width]
        seeded[0, 0] = self._s_high
        seeded[1, 0] = self._s_low
        z = seeded[0, 1:]
        np.subtract(values[lo:hi], self._mu, out=z)
        z /= self._sigma
        seeded[1, 1:] = z
        # Forward-error envelope for an m-step addition chain (generous:
        # 4·(m+1)·eps times an upper bound on the magnitude flowing
        # through it — Σ|z| + m·k bounds each side's Σ|d|).
        mag = (
            2.0 * (float(np.abs(z).sum()) + m * k)
            + abs(self._s_high)
            + abs(self._s_low)
            + 1.0
        )
        eps = 4.0 * (m + 1) * _EPS * mag
        seeded[0, 1:] -= k
        seeded[1, 1:] += k
        np.negative(seeded[1, 1:], out=seeded[1, 1:])
        d = seeded[:, 1:]
        chain = np.add.accumulate(seeded, axis=1, out=chain_block)[:, 1:]
        clamp = np.minimum(chain, 0.0, out=clamp_block[:, 1:])
        np.minimum.accumulate(clamp, axis=1, out=clamp)
        stat = np.subtract(chain, clamp, out=clamp)
        hits = np.flatnonzero((stat[0] > h - eps) | (stat[1] > h - eps))
        span = int(hits[0]) if len(hits) else m
        if span == 0:
            return 0, True
        plan_high = self._plan_side(chain[0], stat[0], d[0], span, eps)
        if plan_high is None:
            return span, False
        plan_low = self._plan_side(chain[1], stat[1], d[1], span, eps)
        if plan_low is None:
            return span, False
        self._bulk_segment_add(times, values, lo, lo + span)
        self._s_high = self._commit_side(
            plan_high, d[0], times, values, lo, span, self._run_high
        )
        self._s_low = self._commit_side(
            plan_low, d[1], times, values, lo, span, self._run_low
        )
        return span, True

    def _plan_side(
        self,
        chain: np.ndarray,
        stat: np.ndarray,
        d: np.ndarray,
        span: int,
        eps: float,
    ) -> tuple | None:
        """Certify one side of the scan; ``None`` means ambiguous.

        Either the statistic provably never touched zero in the span
        (``("continue", s)`` — the chain stayed exact, its tail is the new
        statistic) or it provably last touched zero at index *j*
        (``("restart", j)`` — the side's run restarts at ``j + 1``).
        """
        zeros = np.flatnonzero(stat[:span] <= eps)
        if not len(zeros):
            # No clamp anywhere: the chain equals the scalar recursion.
            return ("continue", float(chain[span - 1]))
        j = int(zeros[-1])
        if j == 0:
            # chain[0] is bit-identical to the scalar pre-clamp value, so
            # "did it clamp" is exactly decidable.
            if float(chain[0]) <= 0.0:
                return ("restart", 0)
            return None
        # Certified clamp at j: even at the envelope's edge the pre-clamp
        # value stat[j-1] + d[j] is still below zero.
        if float(stat[j - 1]) + float(d[j]) <= -eps:
            return ("restart", j)
        return None

    def _commit_side(
        self,
        plan: tuple,
        d: np.ndarray,
        times: np.ndarray,
        values: np.ndarray,
        lo: int,
        span: int,
        run: _Accumulator,
    ) -> float:
        """Fold one certified side plan into its run; return the new S."""
        if plan[0] == "continue":
            self._bulk_run_add(run, times, values, lo, lo + span)
            return plan[1]
        j = plan[1]
        start = lo + j + 1
        if start >= lo + span:
            # The statistic was zero on the span's last sample.
            run.clear()
            return 0.0
        # Re-chain exactly from the certified zero: no clamps occur after
        # it, so the plain addition chain is the scalar statistic.
        run.clear()
        self._bulk_run_add(run, times, values, start, lo + span)
        return _chain_total(0.0, d[j + 1 : span])

    def _bulk_segment_add(
        self, times: np.ndarray, values: np.ndarray, lo: int, hi: int
    ) -> None:
        """Fold ``[lo, hi)`` into the open segment, chain-exactly."""
        if hi <= lo:
            return
        seg = self._segment
        if seg.n == 0:
            seg.start_time_s = float(times[lo])
        seg.n += hi - lo
        seg.total, seg.total_sq = _chain_total_pair(
            seg.total, seg.total_sq, values[lo:hi]
        )
        seg.last_time_s = float(times[hi - 1])

    def _bulk_run_add(
        self, run: _Accumulator, times: np.ndarray, values: np.ndarray, lo: int, hi: int
    ) -> None:
        """Extend a run accumulator over ``[lo, hi)``, chain-exactly."""
        if run.n == 0:
            run.start_time_s = float(times[lo])
        run.n += hi - lo
        run.total, run.total_sq = _chain_total_pair(
            run.total, run.total_sq, values[lo:hi]
        )
        run.last_time_s = float(times[hi - 1])

    def _maybe_arm(self) -> None:
        """Freeze the baseline once the current segment has warmed up."""
        if self._segment.n >= self.config.warmup_samples:
            self._mu = self._segment.mean
            self._sigma = max(self._segment.std, self.config.min_sigma)
            self._s_high = self._s_low = 0.0
            self._run_high.clear()
            self._run_low.clear()

    def _alarm(
        self,
        time_s: float,
        direction: int,
        significance: float,
        run: _Accumulator,
        alerts: list[Alert],
    ) -> None:
        before_n = self._segment.n - run.n
        if before_n < 1:
            # Degenerate: the whole segment is inside the run (a shift right
            # at arming time). Re-arm from scratch rather than emit a
            # before-level we cannot estimate.
            self._mu = self._sigma = math.nan
            self._maybe_arm()
            return
        before_total = self._segment.total - run.total
        before_total_sq = self._segment.total_sq - run.total_sq
        before_mean = before_total / before_n
        before_var = max(0.0, before_total_sq / before_n - before_mean**2)
        self._closed.append(
            Segment(
                start_time_s=self._segment.start_time_s,
                end_time_s=run.start_time_s,
                n=before_n,
                mean=before_mean,
                std=math.sqrt(before_var),
            )
        )
        alerts.append(
            ChangePointAlert(
                time_s=time_s,
                stream=self.stream,
                onset_time_s=run.start_time_s,
                level_before=before_mean,
                level_after_estimate=run.mean,
                significance=significance,
                direction=direction,
            )
        )
        # The run's samples belong to the new segment; restart detection.
        new_segment = _Accumulator()
        new_segment.n = run.n
        new_segment.total = run.total
        new_segment.total_sq = run.total_sq
        new_segment.start_time_s = run.start_time_s
        new_segment.last_time_s = run.last_time_s
        self._segment = new_segment
        self._mu = self._sigma = math.nan
        self._s_high = self._s_low = 0.0
        self._run_high.clear()
        self._run_low.clear()
        self._maybe_arm()

    # -- results ---------------------------------------------------------------

    def finish(self) -> list[Alert]:
        """Close the trailing segment; emits no further alerts."""
        if not self._finished and self._segment.n:
            self._closed.append(
                Segment(
                    start_time_s=self._segment.start_time_s,
                    end_time_s=self._segment.last_time_s,
                    n=self._segment.n,
                    mean=self._segment.mean,
                    std=self._segment.std,
                )
            )
            self._finished = True
        return []

    @property
    def segments(self) -> list[Segment]:
        """Closed segments in time order (trailing segment after finish)."""
        return list(self._closed)

    @property
    def armed(self) -> bool:
        """Whether the baseline is frozen and detection is active."""
        return not math.isnan(self._mu)

    # -- persistence -----------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot every detector internal — baseline, statistics, runs,
        closed segments — so a restored detector continues bit-identically."""
        return {
            "segment": self._segment.state_dict(),
            "run_high": self._run_high.state_dict(),
            "run_low": self._run_low.state_dict(),
            "mu": self._mu,
            "sigma": self._sigma,
            "s_high": self._s_high,
            "s_low": self._s_low,
            "closed": [
                {
                    "start_time_s": s.start_time_s,
                    "end_time_s": s.end_time_s,
                    "n": s.n,
                    "mean": s.mean,
                    "std": s.std,
                }
                for s in self._closed
            ],
            "finished": self._finished,
            "nan_samples": self.nan_samples,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self._segment = _Accumulator.restore(state["segment"])
        self._run_high = _Accumulator.restore(state["run_high"])
        self._run_low = _Accumulator.restore(state["run_low"])
        self._mu = state["mu"]
        self._sigma = state["sigma"]
        self._s_high = state["s_high"]
        self._s_low = state["s_low"]
        self._closed = [Segment(**s) for s in state["closed"]]
        self._finished = state["finished"]
        self.nan_samples = state["nan_samples"]
