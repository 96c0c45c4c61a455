"""Stochastic job-stream generation.

Produces synthetic batch workloads with the statistical texture of a busy
national service: lognormal job sizes anchored on each app's typical node
count, lognormal runtimes, and Poisson arrivals whose rate is set from a
target *offered load* so the scheduler can hold >90 % utilisation (the
operating point all of the paper's measurements assume).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..node.pstates import FrequencySetting
from ..units import SECONDS_PER_DAY, ensure_nonnegative, ensure_positive
from .jobs import Job
from .mix import WorkloadMix

__all__ = ["JobStreamConfig", "JobStreamGenerator"]


@dataclass(frozen=True)
class JobStreamConfig:
    """Statistical parameters of the generated stream.

    ``offered_load`` is the *peak weekday* ratio of requested node-seconds
    per wall second to facility capacity; values slightly above 1 keep a
    persistent backlog so achieved utilisation is scheduler-limited (>90 %),
    matching §3.2. Arrivals are a non-homogeneous Poisson process with
    diurnal, weekend and holiday modulation — the texture visible in the
    paper's Figure 1 (including the Christmas dip).

    ``malleable_fraction`` of jobs declare an elastic shape — they can shrink
    to ``n_nodes / malleable_span`` nodes at runtime and tolerate a start
    delay drawn exponentially with mean ``shift_slack_mean_s`` — which is
    what the carbon-aware malleable scheduler exploits.
    """

    n_facility_nodes: int
    offered_load: float = 1.04
    mean_runtime_s: float = 12.0 * 3600.0
    runtime_sigma: float = 0.6
    nodes_sigma: float = 0.8
    max_job_nodes: int = 2048
    user_override_fraction: float = 0.0
    override_setting: FrequencySetting = FrequencySetting.GHZ_2_25_TURBO
    diurnal_amplitude: float = 0.12
    weekend_factor: float = 0.85
    holiday_factor: float = 0.35
    holiday_windows_s: tuple[tuple[float, float], ...] = ()
    malleable_fraction: float = 0.0
    malleable_span: float = 4.0
    shift_slack_mean_s: float = 0.0

    def __post_init__(self) -> None:
        if self.n_facility_nodes <= 0:
            raise ConfigurationError("n_facility_nodes must be positive")
        ensure_positive(self.offered_load, "offered_load")
        ensure_positive(self.mean_runtime_s, "mean_runtime_s")
        ensure_positive(self.runtime_sigma, "runtime_sigma")
        ensure_positive(self.nodes_sigma, "nodes_sigma")
        if self.max_job_nodes <= 0 or self.max_job_nodes > self.n_facility_nodes:
            raise ConfigurationError(
                "max_job_nodes must be in [1, n_facility_nodes]"
            )
        if not 0.0 <= self.user_override_fraction <= 1.0:
            raise ConfigurationError("user_override_fraction must be in [0, 1]")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ConfigurationError("diurnal_amplitude must be in [0, 1)")
        for name, factor in (
            ("weekend_factor", self.weekend_factor),
            ("holiday_factor", self.holiday_factor),
        ):
            if not 0.0 < factor <= 1.0:
                raise ConfigurationError(f"{name} must be in (0, 1]")
        for start, end in self.holiday_windows_s:
            if end <= start:
                raise ConfigurationError("holiday window end must exceed start")
        if not 0.0 <= self.malleable_fraction <= 1.0:
            raise ConfigurationError("malleable_fraction must be in [0, 1]")
        if self.malleable_span < 1.0:
            raise ConfigurationError("malleable_span must be at least 1")
        ensure_nonnegative(self.shift_slack_mean_s, "shift_slack_mean_s")


class JobStreamGenerator:
    """Draws :class:`Job` streams from a mix under a stream configuration."""

    def __init__(
        self,
        mix: WorkloadMix,
        config: JobStreamConfig,
        rng: np.random.Generator,
    ) -> None:
        self.mix = mix
        self.config = config
        self.rng = rng
        self._next_id = 0

    # -- statistical draws ---------------------------------------------------

    def _draw_nodes(self, typical: int) -> int:
        """Lognormal node count anchored on the app's typical size."""
        cfg = self.config
        raw = self.rng.lognormal(mean=np.log(typical), sigma=cfg.nodes_sigma)
        return int(np.clip(round(raw), 1, cfg.max_job_nodes))

    def _draw_runtime_s(self) -> float:
        """Lognormal runtime with the configured mean.

        The lognormal's ``mu`` is shifted by ``-σ²/2`` so the distribution's
        arithmetic mean equals ``mean_runtime_s`` exactly.
        """
        cfg = self.config
        mu = np.log(cfg.mean_runtime_s) - 0.5 * cfg.runtime_sigma**2
        return float(self.rng.lognormal(mean=mu, sigma=cfg.runtime_sigma))

    def _draw_override(self) -> FrequencySetting | None:
        """User frequency override (None = accept facility default)."""
        if self.rng.random() < self.config.user_override_fraction:
            return self.config.override_setting
        return None

    def _draw_shape(self, n_nodes: int) -> tuple[int | None, int | None, float]:
        """Elastic-shape draw: (min_nodes, max_nodes, shift_slack_s).

        Rigid jobs (the ``1 - malleable_fraction`` majority) get
        ``(None, None, 0.0)``. Malleable jobs can shrink down to
        ``n_nodes / malleable_span`` (at least 1 node) and carry an
        exponentially distributed start slack with the configured mean.
        No draws are consumed when ``malleable_fraction`` is zero, so
        existing seeded streams are unchanged.
        """
        cfg = self.config
        if cfg.malleable_fraction <= 0.0:
            return None, None, 0.0
        if self.rng.random() >= cfg.malleable_fraction:
            return None, None, 0.0
        min_nodes = max(1, int(round(n_nodes / cfg.malleable_span)))
        slack_s = 0.0
        if cfg.shift_slack_mean_s > 0.0:
            slack_s = float(self.rng.exponential(cfg.shift_slack_mean_s))
        return min_nodes, n_nodes, slack_s

    def mean_job_node_seconds(self) -> float:
        """Expected node-seconds per job under the current configuration.

        Used to convert offered load into an arrival rate. The lognormal
        node draw has mean ``typical·exp(σ²/2)`` before clipping; clipping
        bias is small for facility-scale caps, and the arrival-rate feedback
        through ``offered_load`` tolerates it.
        """
        cfg = self.config
        node_inflation = float(np.exp(cfg.nodes_sigma**2 / 2.0))
        mean_nodes = sum(
            w * a.typical_nodes * node_inflation
            for a, w in zip(self.mix.apps, self.mix.weights)
        )
        return mean_nodes * cfg.mean_runtime_s

    def arrival_rate_per_s(self) -> float:
        """Peak-weekday Poisson arrival rate for the configured offered load."""
        cfg = self.config
        capacity_node_seconds_per_s = float(cfg.n_facility_nodes)
        return cfg.offered_load * capacity_node_seconds_per_s / self.mean_job_node_seconds()

    def rate_modulation(self, time_s: float) -> float:
        """Relative arrival intensity at ``time_s`` ∈ (0, 1 + diurnal_amplitude].

        Combines a diurnal cycle peaking mid-afternoon, a weekend slowdown
        (days 5 and 6 of each 7-day week) and any configured holiday windows.
        """
        cfg = self.config
        day_index = int(time_s // SECONDS_PER_DAY) % 7
        factor = cfg.weekend_factor if day_index >= 5 else 1.0
        for start, end in cfg.holiday_windows_s:
            if start <= time_s < end:
                factor = min(factor, cfg.holiday_factor)
                break
        hour = (time_s % SECONDS_PER_DAY) / 3600.0
        diurnal = 1.0 + cfg.diurnal_amplitude * np.cos(2 * np.pi * (hour - 15.0) / 24.0)
        return factor * diurnal

    # -- generation ------------------------------------------------------------

    def generate_until(self, t_end_s: float, t_start_s: float = 0.0) -> list[Job]:
        """All jobs submitted in ``[t_start_s, t_end_s)``, submit-time ordered.

        Uses Lewis–Shedler thinning for the non-homogeneous Poisson process:
        draw candidate arrivals at the peak rate, accept each with
        probability ``rate(t)/rate_peak``. Both bounds must be finite: the
        loop stops only once an arrival passes ``t_end_s``.
        """
        if not (np.isfinite(t_start_s) and np.isfinite(t_end_s)):
            raise ConfigurationError(
                f"window bounds must be finite, got [{t_start_s}, {t_end_s})"
            )
        if t_end_s <= t_start_s:
            raise ConfigurationError("t_end_s must exceed t_start_s")
        base_rate = self.arrival_rate_per_s()
        peak = 1.0 + self.config.diurnal_amplitude
        jobs: list[Job] = []
        t = t_start_s
        while True:
            t += float(self.rng.exponential(1.0 / (base_rate * peak)))
            if t >= t_end_s:
                break
            if self.rng.random() < self.rate_modulation(t) / peak:
                jobs.append(self._make_job(t))
        return jobs

    def generate(self, n_jobs: int, t_start_s: float = 0.0) -> list[Job]:
        """Exactly ``n_jobs`` jobs with Poisson arrivals starting at ``t_start_s``."""
        if n_jobs <= 0:
            raise ConfigurationError("n_jobs must be positive")
        rate = self.arrival_rate_per_s()
        gaps = self.rng.exponential(1.0 / rate, size=n_jobs)
        times = t_start_s + np.cumsum(gaps)
        return [self._make_job(float(t)) for t in times]

    def _make_job(self, submit_time_s: float) -> Job:
        app = self.mix.sample_app(self.rng)
        n_nodes = self._draw_nodes(app.typical_nodes)
        min_nodes, max_nodes, slack_s = self._draw_shape(n_nodes)
        job = Job(
            job_id=self._next_id,
            app=app,
            n_nodes=n_nodes,
            submit_time_s=submit_time_s,
            reference_runtime_s=self._draw_runtime_s(),
            frequency_override=self._draw_override(),
            min_nodes=min_nodes,
            max_nodes=max_nodes,
            shift_slack_s=slack_s,
        )
        self._next_id += 1
        return job
