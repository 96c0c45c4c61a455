"""Roofline-style two-component execution model.

The paper's central performance observation (§4.2) is that frequency scaling
hurts compute-bound applications far more than memory-bound ones: LAMMPS
loses 26 % at 2.0 GHz while VASP CdTe loses only 5 %. A two-component model
captures exactly this:

``t(f) = T_c · (f₀ / f) + T_m``

where ``T_c`` is time in core-rate-limited execution (scales inversely with
frequency) and ``T_m`` is time limited by memory transfers (frequency
invariant). The single shape parameter is the **compute fraction at the
reference frequency** ``φ = T_c / (T_c + T_m)`` evaluated at ``f₀``.

Given a measured performance ratio between two frequencies, φ is recoverable
in closed form (:func:`compute_fraction_from_perf_ratio`) — that inversion is
how the application catalogue is calibrated from the paper's Table 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..units import ensure_fraction, ensure_positive

__all__ = [
    "ExecutionProfile",
    "RooflineModel",
    "compute_fraction_from_perf_ratio",
]


@dataclass(frozen=True)
class ExecutionProfile:
    """Resolved execution behaviour at one frequency."""

    frequency_ghz: float
    time_ratio: float  # wall time relative to the reference frequency
    compute_activity: float  # α_c: fraction of wall time core-rate limited
    memory_activity: float  # α_m: fraction of wall time memory limited


@dataclass(frozen=True)
class RooflineModel:
    """Two-component execution model for one application workload.

    Parameters
    ----------
    compute_fraction:
        φ ∈ [0, 1]: fraction of runtime that is core-rate limited when
        running at ``reference_ghz``. 1 = perfectly compute bound,
        0 = perfectly memory bound.
    reference_ghz:
        The frequency at which φ is defined — for ARCHER2 calibration this
        is the ~2.8 GHz turbo operating point.
    """

    compute_fraction: float
    reference_ghz: float = 2.8

    def __post_init__(self) -> None:
        ensure_fraction(self.compute_fraction, "compute_fraction")
        ensure_positive(self.reference_ghz, "reference_ghz")

    def time_ratio(self, frequency_ghz: float | np.ndarray) -> float | np.ndarray:
        """Wall time at ``frequency_ghz`` relative to the reference frequency.

        Monotonically decreasing in frequency; equals 1 at the reference.
        """
        f = np.asarray(frequency_ghz, dtype=float)
        if np.any(f <= 0):
            raise ConfigurationError("frequency must be positive")
        phi = self.compute_fraction
        ratio = phi * (self.reference_ghz / f) + (1.0 - phi)
        return float(ratio) if ratio.ndim == 0 else ratio

    def perf_ratio(self, frequency_ghz: float, baseline_ghz: float | None = None) -> float:
        """Performance at ``frequency_ghz`` relative to ``baseline_ghz``.

        Defaults the baseline to the reference frequency; this is the
        "Perf. ratio" column of the paper's Tables 3 and 4.
        """
        base = self.reference_ghz if baseline_ghz is None else baseline_ghz
        return float(self.time_ratio(base)) / float(self.time_ratio(frequency_ghz))

    def at(self, frequency_ghz: float) -> ExecutionProfile:
        """Full execution profile (time ratio and activities) at a frequency."""
        t = float(self.time_ratio(frequency_ghz))
        compute_time = self.compute_fraction * (self.reference_ghz / frequency_ghz)
        alpha_c = compute_time / t
        alpha_m = (1.0 - self.compute_fraction) / t
        return ExecutionProfile(
            frequency_ghz=float(frequency_ghz),
            time_ratio=t,
            compute_activity=alpha_c,
            memory_activity=alpha_m,
        )

    def frequency_for_perf_target(self, perf_ratio_target: float) -> float:
        """Lowest frequency keeping performance ≥ ``perf_ratio_target``.

        Inverts the time-ratio relation; returns ``inf``-safe values: a
        target of 1 (or higher) requires the reference frequency, while a
        target at or below the memory-bound floor is achievable at any
        frequency (returns 0 to signal "unconstrained").
        """
        ensure_positive(perf_ratio_target, "perf_ratio_target")
        phi = self.compute_fraction
        if perf_ratio_target >= 1.0:
            return self.reference_ghz
        if phi == 0.0:  # lint: exact-float -- memory-bound sentinel; continuous as phi->0
            return 0.0
        # time_ratio allowed = 1 / target; solve φ·(f0/f) + (1-φ) = 1/target
        allowed = 1.0 / perf_ratio_target
        denom = allowed - (1.0 - phi)
        if denom <= 0:
            return 0.0
        return phi * self.reference_ghz / denom


def compute_fraction_from_perf_ratio(
    perf_ratio: float, low_ghz: float, reference_ghz: float
) -> float:
    """Recover φ from a measured performance ratio between two frequencies.

    ``perf_ratio`` is performance at ``low_ghz`` relative to ``reference_ghz``
    (< 1 when lowering frequency hurts). Closed form:

    ``φ = (1/r − 1) / (f₀/f_low − 1)``

    Raises if the measured ratio is outside what the model can express —
    e.g. a ratio below ``f_low/f₀`` would need φ > 1.
    """
    ensure_positive(perf_ratio, "perf_ratio")
    ensure_positive(low_ghz, "low_ghz")
    ensure_positive(reference_ghz, "reference_ghz")
    if low_ghz >= reference_ghz:
        raise ConfigurationError("low_ghz must be below reference_ghz")
    if perf_ratio > 1.0:
        raise ConfigurationError(
            f"perf ratio {perf_ratio} > 1 at a lower frequency is unphysical here"
        )
    phi = (1.0 / perf_ratio - 1.0) / (reference_ghz / low_ghz - 1.0)
    if phi > 1.0 + 1e-9:
        raise ConfigurationError(
            f"perf ratio {perf_ratio} below the compute-bound floor "
            f"{low_ghz / reference_ghz:.3f}; no φ <= 1 reproduces it"
        )
    return min(float(phi), 1.0)

