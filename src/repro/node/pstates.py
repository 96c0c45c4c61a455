"""CPU P-states and the voltage/frequency curve.

The AMD EPYC™ processors on ARCHER2 expose three user-selectable frequency
settings — 1.5 GHz, 2.0 GHz and 2.25 GHz — where the highest setting also
enables turbo boost. The paper found that under turbo, applications typically
run "closer to 2.8 GHz", which is why capping at 2.0 GHz has a much larger
effect than the nominal 2.25→2.0 step suggests (§4.2).

Dynamic CPU power scales as ``C·V(f)²·f``; the linear voltage/frequency curve
here gives the canonical DVFS scaling used by :mod:`repro.node.node_power`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..units import ensure_positive

__all__ = [
    "VoltageFrequencyCurve",
    "PState",
    "PStateTable",
    "FrequencySetting",
    "archer2_pstates",
    "ARCHER2_TURBO_GHZ",
]

#: Effective frequency applications reach under turbo on ARCHER2 (paper §4.2).
ARCHER2_TURBO_GHZ = 2.8


class FrequencySetting(enum.Enum):
    """User-selectable CPU frequency settings on ARCHER2 (paper §4.2)."""

    GHZ_1_5 = "1.5GHz"
    GHZ_2_0 = "2.0GHz"
    GHZ_2_25_TURBO = "2.25GHz+turbo"


@dataclass(frozen=True)
class VoltageFrequencyCurve:
    """Linear V(f) model: ``V = v_intercept + v_slope · f``.

    Defaults are chosen for an EPYC-7742-class part: ~0.98 V at 2.0 GHz and
    ~1.18 V at the 2.8 GHz boost point.
    """

    v_intercept: float = 0.48
    v_slope_per_ghz: float = 0.25

    def voltage_v(self, frequency_ghz: float | np.ndarray) -> float | np.ndarray:
        """Core voltage at a frequency, volts."""
        f = np.asarray(frequency_ghz, dtype=float)
        if np.any(f <= 0):
            raise ConfigurationError("frequency must be positive")
        v = self.v_intercept + self.v_slope_per_ghz * f
        return float(v) if np.isscalar(frequency_ghz) or v.ndim == 0 else v

    def dynamic_scale(
        self, frequency_ghz: float | np.ndarray, reference_ghz: float
    ) -> float | np.ndarray:
        """DVFS dynamic-power scale ``V(f)²·f / (V(f_ref)²·f_ref)``.

        Equals 1 at the reference frequency; ≈0.49 at 2.0 GHz against a
        2.8 GHz reference — the mechanism behind the §4.2 power savings.
        """
        ensure_positive(reference_ghz, "reference_ghz")
        v = self.voltage_v(frequency_ghz)
        v_ref = self.voltage_v(reference_ghz)
        f = np.asarray(frequency_ghz, dtype=float)
        scale = (np.asarray(v) ** 2 * f) / (v_ref**2 * reference_ghz)
        return float(scale) if scale.ndim == 0 else scale


@dataclass(frozen=True)
class PState:
    """One selectable operating point.

    ``max_boost_ghz`` is the frequency actually reached under load when
    ``turbo`` is enabled; without turbo it equals ``frequency_ghz``.
    """

    setting: FrequencySetting
    frequency_ghz: float
    turbo: bool = False
    max_boost_ghz: float | None = None

    def __post_init__(self) -> None:
        ensure_positive(self.frequency_ghz, "frequency_ghz")
        if self.turbo:
            if self.max_boost_ghz is None or self.max_boost_ghz < self.frequency_ghz:
                raise ConfigurationError(
                    f"turbo P-state {self.setting} needs max_boost_ghz >= base frequency"
                )
        elif self.max_boost_ghz is not None and self.max_boost_ghz != self.frequency_ghz:
            raise ConfigurationError(
                f"non-turbo P-state {self.setting} cannot boost above base"
            )

    @property
    def effective_ghz(self) -> float:
        """Frequency reached under sustained load (boost target if turbo)."""
        return self.max_boost_ghz if self.turbo and self.max_boost_ghz else self.frequency_ghz


class PStateTable:
    """The set of P-states a CPU exposes, keyed by :class:`FrequencySetting`."""

    def __init__(self, states: list[PState]) -> None:
        if not states:
            raise ConfigurationError("PStateTable needs at least one state")
        self._by_setting: dict[FrequencySetting, PState] = {}
        for st in states:
            if st.setting in self._by_setting:
                raise ConfigurationError(f"duplicate P-state for {st.setting}")
            self._by_setting[st.setting] = st

    def __iter__(self):
        return iter(self._by_setting.values())

    def __eq__(self, other: object) -> bool:
        # By value, so node models built alike compare equal.
        if not isinstance(other, PStateTable):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def get(self, setting: FrequencySetting) -> PState:
        """The P-state for a frequency setting."""
        try:
            return self._by_setting[setting]
        except KeyError:
            raise ConfigurationError(f"CPU does not expose setting {setting}") from None

    @property
    def settings(self) -> list[FrequencySetting]:
        """Available settings in registration order."""
        return list(self._by_setting)

    @property
    def max_effective_ghz(self) -> float:
        """Highest frequency any state reaches under load (DVFS reference point)."""
        return max(st.effective_ghz for st in self)


def archer2_pstates(turbo_ghz: float = ARCHER2_TURBO_GHZ) -> PStateTable:
    """The three ARCHER2 frequency settings (§4.2): 1.5, 2.0, 2.25+turbo."""
    return PStateTable(
        [
            PState(FrequencySetting.GHZ_1_5, 1.5),
            PState(FrequencySetting.GHZ_2_0, 2.0),
            PState(FrequencySetting.GHZ_2_25_TURBO, 2.25, turbo=True, max_boost_ghz=turbo_ghz),
        ]
    )
