"""AMD Power vs Performance Determinism BIOS modes.

AMD EPYC™ processors offer two determinism modes (see the AMD technical
report cited as [4] in the paper):

* **Power Determinism** — every part runs up to the full rated power
  envelope; identical power draw across parts, but per-part *performance*
  varies with silicon quality (better parts clock slightly higher).
* **Performance Determinism** — every part delivers the same (worst-case
  guaranteed) performance; better parts then draw *less* power than the
  envelope, so fleet-average power falls.

On ARCHER2 the switch from Power to Performance Determinism cut compute
cabinet power by ~7 % with a ≤1 % performance effect (paper §4.1, Table 3,
Figure 2). The model captures this with two calibrated factors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import ConfigurationError
from ..units import ensure_fraction, ensure_positive

__all__ = ["DeterminismMode", "DeterminismModel"]


class DeterminismMode(enum.Enum):
    """BIOS determinism setting."""

    POWER = "power-determinism"
    PERFORMANCE = "performance-determinism"


@dataclass(frozen=True)
class DeterminismModel:
    """Quantitative effect of the determinism BIOS setting.

    Parameters
    ----------
    performance_power_derate:
        Multiplier on *dynamic* (activity-driven) node power in Performance
        Determinism mode. Calibrated so fleet power drops ~7 % (paper §4.1).
    performance_boost_derate:
        Multiplier on the achieved boost frequency in Performance Determinism
        mode — the worst-case-part guarantee costs ~1 % peak performance.
    """

    performance_power_derate: float = 0.85
    performance_boost_derate: float = 0.99

    def __post_init__(self) -> None:
        ensure_fraction(self.performance_power_derate, "performance_power_derate")
        ensure_positive(self.performance_boost_derate, "performance_boost_derate")
        if self.performance_boost_derate > 1.0:
            raise ConfigurationError("performance_boost_derate cannot exceed 1")

    def dynamic_power_factor(self, mode: DeterminismMode) -> float:
        """Multiplier applied to dynamic node power for the given mode."""
        if mode is DeterminismMode.POWER:
            return 1.0
        return self.performance_power_derate

    def boost_factor(self, mode: DeterminismMode) -> float:
        """Multiplier applied to the turbo boost frequency for the given mode."""
        if mode is DeterminismMode.POWER:
            return 1.0
        return self.performance_boost_derate
