"""Research-area job mix.

ARCHER2 supports 3000+ users whose major research areas the paper lists as
materials science, climate/ocean modelling, biomolecular modelling,
engineering, mineral physics, seismology and plasma physics (§1.1). The mix
assigns node-hour weights to application profiles so synthetic job streams
reproduce a facility-realistic blend of compute- and memory-bound work —
which is what determines the facility-level response to the §4 interventions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from .applications import AppProfile, full_catalogue

__all__ = ["WorkloadMix", "archer2_mix"]

#: Default node-hour weights approximating ARCHER2 usage by research area.
#: Materials science codes (VASP, CASTEP, CP2K, LAMMPS, ONETEP) dominate,
#: followed by climate/ocean work — consistent with §1.1 and the HPC-JEEP
#: usage reports the paper cites.
_ARCHER2_WEIGHTS: dict[str, float] = {
    "VASP CdTe": 0.17,
    "CASTEP Al Slab": 0.11,
    "CP2K H2O 2048": 0.09,
    "LAMMPS Ethanol": 0.07,
    "ONETEP hBN-BP-hBN": 0.04,
    "GROMACS 1400k": 0.10,
    "Nektar++ TGV 128DoF": 0.04,
    "OpenSBLI TGV 1024^3": 0.05,
    "Climate/Ocean archetype": 0.18,
    "Seismology archetype": 0.05,
    "Plasma archetype": 0.06,
    "Mineral physics archetype": 0.04,
}


@dataclass(frozen=True)
class WorkloadMix:
    """Node-hour-weighted mixture over application profiles."""

    apps: tuple[AppProfile, ...]
    weights: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.apps:
            raise ConfigurationError("mix needs at least one application")
        weights = self.weights or tuple(1.0 / len(self.apps) for _ in self.apps)
        if len(weights) != len(self.apps):
            raise ConfigurationError("weights and apps must have equal length")
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ConfigurationError("weights must be non-negative and sum > 0")
        total = sum(weights)
        object.__setattr__(self, "weights", tuple(w / total for w in weights))

    def sample_app(self, rng: np.random.Generator) -> AppProfile:
        """Draw one application, weighted by node-hour share."""
        idx = rng.choice(len(self.apps), p=np.asarray(self.weights))
        return self.apps[int(idx)]

    def mean_compute_fraction(self) -> float:
        """Node-hour-weighted mean roofline compute fraction of the mix."""
        return float(
            sum(w * a.compute_fraction for a, w in zip(self.apps, self.weights))
        )

    def reweighted(self, scale: dict[str, float]) -> "WorkloadMix":
        """A new mix with some apps' weights multiplied (for ablations)."""
        new_weights = [
            w * scale.get(a.name, 1.0) for a, w in zip(self.apps, self.weights)
        ]
        return WorkloadMix(apps=self.apps, weights=tuple(new_weights))


def archer2_mix() -> WorkloadMix:
    """The default ARCHER2-like workload mix over the full catalogue."""
    catalogue = full_catalogue()
    apps: list[AppProfile] = []
    weights: list[float] = []
    for name, weight in _ARCHER2_WEIGHTS.items():
        if name not in catalogue:
            raise ConfigurationError(f"mix references unknown app {name!r}")
        apps.append(catalogue[name])
        weights.append(weight)
    return WorkloadMix(apps=tuple(apps), weights=tuple(weights))
