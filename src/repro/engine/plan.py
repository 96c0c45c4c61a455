"""Declarative sweep plans: axes, canonical serialisation, stable hashing.

A :class:`SweepSpec` names the grid the §5 decision guidance sweeps over —
CPU frequency setting, BIOS determinism mode, grid carbon-intensity
trajectory, node utilisation, node count and service lifetime — plus the
scalar model parameters every scenario shares. Axes combine either as a
full cartesian product or zipped position-by-position.

The spec serialises to a *canonical* JSON form (sorted keys, compact
separators, enum values, resolved defaults) whose SHA-256 digest is the
**spec hash**: the content address under which the cache layer files sweep
results. Any field change — an axis value, an embodied constant, the
activity split — changes the hash and therefore invalidates the cache.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field, fields
from typing import Iterator, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..grid.trajectory import DecarbonisationTrajectory
from ..node.determinism import DeterminismMode
from ..node.pstates import FrequencySetting
from ..units import ensure_fraction, ensure_nonnegative, ensure_positive, is_number

__all__ = [
    "ENGINE_VERSION",
    "CIScenario",
    "SweepSpec",
    "Scenario",
    "default_ci_scenarios",
]

#: Version of the evaluation semantics. Bumping it invalidates every cached
#: sweep result: the on-disk store keys entries by spec hash *and* this tag.
ENGINE_VERSION = "1"

#: Default floor for decarbonising trajectories, gCO₂/kWh (residual gas
#: peaking plus the embodied emissions of renewables themselves).
_DEFAULT_FLOOR = 15.0
#: Largest node count: the sweep engine holds node counts as int64.
_INT64_MAX = int(np.iinfo(np.int64).max)

#: Axis fields of a spec, in canonical (and cartesian nesting) order.
AXIS_FIELDS = (
    "frequencies",
    "bios_modes",
    "ci_scenarios",
    "utilisations",
    "node_counts",
    "lifetimes_years",
)


@dataclass(frozen=True)
class CIScenario:
    """One carbon-intensity axis value: a named grid trajectory.

    ``annual_reduction = 0`` makes the trajectory flat (a snapshot grid);
    a positive rate models exponential decarbonisation down to
    ``floor_ci_g_per_kwh`` (defaulting to min(start, 15)).
    """

    name: str
    start_ci_g_per_kwh: float
    annual_reduction: float = 0.0
    floor_ci_g_per_kwh: float | None = None

    def __post_init__(self) -> None:
        name = self.name
        if not isinstance(name, str) or not name or any(c in name for c in ",\n\r"):
            raise ConfigurationError(
                "CI scenario name must be a non-empty string without commas/newlines, "
                f"got {self.name!r}"
            )
        for field_name in ("start_ci_g_per_kwh", "annual_reduction", "floor_ci_g_per_kwh"):
            value = getattr(self, field_name)
            if value is None and field_name == "floor_ci_g_per_kwh":
                continue
            if not is_number(value):
                raise ConfigurationError(
                    f"CI scenario {field_name} must be a number, got {value!r}"
                )
        # Normalise the floor default eagerly so equal scenarios compare equal
        # regardless of whether they came from a constructor or canonical JSON.
        object.__setattr__(self, "floor_ci_g_per_kwh", self.resolved_floor)
        self.trajectory()  # validates the numeric fields eagerly

    @property
    def resolved_floor(self) -> float:
        """The floor actually used (default resolved)."""
        if self.floor_ci_g_per_kwh is not None:
            return float(self.floor_ci_g_per_kwh)
        return min(float(self.start_ci_g_per_kwh), _DEFAULT_FLOOR)

    def trajectory(self) -> DecarbonisationTrajectory:
        """The equivalent :class:`~repro.grid.trajectory.DecarbonisationTrajectory`."""
        return DecarbonisationTrajectory(
            start_ci_g_per_kwh=float(self.start_ci_g_per_kwh),
            annual_reduction=float(self.annual_reduction),
            floor_g_per_kwh=self.resolved_floor,
        )

    @classmethod
    def flat(cls, ci_g_per_kwh: float, name: str | None = None) -> "CIScenario":
        """A constant-CI scenario (snapshot grid)."""
        return cls(
            name=name or f"flat-{ci_g_per_kwh:g}",
            start_ci_g_per_kwh=float(ci_g_per_kwh),
        )

    @classmethod
    def decarbonising(
        cls,
        start_ci_g_per_kwh: float,
        annual_reduction: float,
        floor_ci_g_per_kwh: float = _DEFAULT_FLOOR,
        name: str | None = None,
    ) -> "CIScenario":
        """An exponentially decarbonising grid scenario."""
        return cls(
            name=name or f"decarb-{start_ci_g_per_kwh:g}-{annual_reduction:g}",
            start_ci_g_per_kwh=float(start_ci_g_per_kwh),
            annual_reduction=float(annual_reduction),
            floor_ci_g_per_kwh=float(floor_ci_g_per_kwh),
        )

    def to_canonical(self) -> dict:
        """Canonical mapping with the floor default resolved."""
        return {
            "name": self.name,
            "start_ci_g_per_kwh": float(self.start_ci_g_per_kwh),
            "annual_reduction": float(self.annual_reduction),
            "floor_ci_g_per_kwh": self.resolved_floor,
        }

    @classmethod
    def from_canonical(cls, data: dict) -> "CIScenario":
        """Rebuild from :meth:`to_canonical` output.

        A ``data`` that is not a mapping holding the four keys is a
        :class:`ConfigurationError`.
        """
        try:
            name, start, reduction, floor = (
                data["name"],
                data["start_ci_g_per_kwh"],
                data["annual_reduction"],
                data["floor_ci_g_per_kwh"],
            )
        except (KeyError, TypeError):
            raise ConfigurationError(
                "a CI scenario is a mapping of name, start_ci_g_per_kwh, "
                f"annual_reduction and floor_ci_g_per_kwh, got {data!r}"
            ) from None
        return cls(
            name=name,
            start_ci_g_per_kwh=start,
            annual_reduction=reduction,
            floor_ci_g_per_kwh=floor,
        )


def default_ci_scenarios() -> tuple[CIScenario, ...]:
    """The paper-flavoured CI axis: one scenario per §2 regime plus the
    decarbonising UK grid arc."""
    return (
        CIScenario.flat(25.0, name="low-carbon"),
        CIScenario.flat(55.0, name="balanced-band"),
        CIScenario.flat(190.0, name="uk-2022"),
        CIScenario.decarbonising(190.0, 0.07, name="uk-decarbonising"),
    )


@dataclass(frozen=True)
class Scenario:
    """One fully resolved grid point (the scalar path evaluates these)."""

    index: int
    frequency: FrequencySetting
    bios_mode: DeterminismMode
    ci: CIScenario
    utilisation: float
    n_nodes: int
    lifetime_years: float


def _as_tuple(value: Sequence) -> tuple:
    if isinstance(value, (str, bytes)):
        raise ConfigurationError(f"axis must be a sequence of values, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class SweepSpec:
    """A declarative scenario grid plus the shared model parameters.

    Axes (``frequencies`` … ``lifetimes_years``) combine according to
    ``combine``: ``"cartesian"`` takes the full product (last axis fastest),
    ``"zip"`` pairs values position-by-position (length-1 axes broadcast).

    The embodied total of a scenario is
    ``embodied_overhead_tco2e + embodied_per_node_tco2e · n_nodes`` — the
    per-node manufacture share plus the fabric/storage/plant overhead.
    ``compute_activity`` / ``memory_activity`` describe the mix-average
    workload the busy-node power is evaluated at; ``app_name`` optionally
    names a catalogue application for per-scenario perf/energy ratios
    against the paper's baseline configuration.
    """

    frequencies: tuple[FrequencySetting, ...] = (
        FrequencySetting.GHZ_1_5,
        FrequencySetting.GHZ_2_0,
        FrequencySetting.GHZ_2_25_TURBO,
    )
    bios_modes: tuple[DeterminismMode, ...] = (
        DeterminismMode.POWER,
        DeterminismMode.PERFORMANCE,
    )
    ci_scenarios: tuple[CIScenario, ...] = field(default_factory=default_ci_scenarios)
    utilisations: tuple[float, ...] = (0.9,)
    node_counts: tuple[int, ...] = (5860,)
    lifetimes_years: tuple[float, ...] = (6.0,)
    combine: str = "cartesian"
    embodied_per_node_tco2e: float = 1.5
    embodied_overhead_tco2e: float = 1210.0
    compute_activity: float = 0.3
    memory_activity: float = 0.7
    app_name: str | None = None
    ci_average_steps: int = 1000

    def __post_init__(self) -> None:
        # Coerce axis sequences to tuples (and strings to enum members) so
        # specs built from JSON or CLI flags canonicalise identically.
        object.__setattr__(
            self,
            "frequencies",
            tuple(
                f if isinstance(f, FrequencySetting) else FrequencySetting(f)
                for f in _as_tuple(self.frequencies)
            ),
        )
        object.__setattr__(
            self,
            "bios_modes",
            tuple(
                m if isinstance(m, DeterminismMode) else DeterminismMode(m)
                for m in _as_tuple(self.bios_modes)
            ),
        )
        object.__setattr__(self, "ci_scenarios", _as_tuple(self.ci_scenarios))
        object.__setattr__(
            self, "utilisations", tuple(float(u) for u in _as_tuple(self.utilisations))
        )
        object.__setattr__(
            self, "node_counts", tuple(int(n) for n in _as_tuple(self.node_counts))
        )
        object.__setattr__(
            self,
            "lifetimes_years",
            tuple(float(y) for y in _as_tuple(self.lifetimes_years)),
        )

        for name in AXIS_FIELDS:
            values = getattr(self, name)
            if not values:
                raise ConfigurationError(f"axis {name!r} must be non-empty")
            if len(set(values)) != len(values):
                raise ConfigurationError(f"axis {name!r} contains duplicate values")
        for ci in self.ci_scenarios:
            if not isinstance(ci, CIScenario):
                raise ConfigurationError(
                    f"ci_scenarios must hold CIScenario values, got {ci!r}"
                )
        for u in self.utilisations:
            ensure_fraction(u, "utilisation")
        for n in self.node_counts:
            if not 0 < n <= _INT64_MAX:
                raise ConfigurationError(
                    f"node count must be positive and fit int64 (at most {_INT64_MAX}), got {n}"
                )
        for y in self.lifetimes_years:
            ensure_positive(y, "lifetime_years")
        if self.combine not in ("cartesian", "zip"):
            raise ConfigurationError(
                f"combine must be 'cartesian' or 'zip', got {self.combine!r}"
            )
        if self.combine == "zip":
            lengths = {len(getattr(self, name)) for name in AXIS_FIELDS}
            lengths.discard(1)
            if len(lengths) > 1:
                raise ConfigurationError(
                    "zipped axes must share one length (or be length-1), got "
                    + ", ".join(
                        f"{name}={len(getattr(self, name))}" for name in AXIS_FIELDS
                    )
                )
        ensure_nonnegative(self.embodied_per_node_tco2e, "embodied_per_node_tco2e")
        ensure_nonnegative(self.embodied_overhead_tco2e, "embodied_overhead_tco2e")
        if self.embodied_per_node_tco2e == 0 and self.embodied_overhead_tco2e == 0:
            raise ConfigurationError("embodied emissions must not be identically zero")
        ensure_fraction(self.compute_activity, "compute_activity")
        ensure_fraction(self.memory_activity, "memory_activity")
        if self.compute_activity + self.memory_activity > 1.0 + 1e-9:
            raise ConfigurationError("compute_activity + memory_activity must be <= 1")
        if self.app_name is not None and not isinstance(self.app_name, str):
            raise ConfigurationError("app_name must be a string or None")
        if self.ci_average_steps < 2:
            raise ConfigurationError("ci_average_steps must be at least 2")

    # -- shape ---------------------------------------------------------------

    @property
    def axis_lengths(self) -> tuple[int, ...]:
        """Length of each axis, in :data:`AXIS_FIELDS` order."""
        return tuple(len(getattr(self, name)) for name in AXIS_FIELDS)

    @property
    def n_scenarios(self) -> int:
        """Total number of grid points."""
        if self.combine == "cartesian":
            return int(math.prod(self.axis_lengths))
        return max(self.axis_lengths)

    def axis_index_arrays(self, lo: int, hi: int) -> tuple[np.ndarray, ...]:
        """Per-axis index arrays for the flat scenario range ``[lo, hi)``."""
        if not 0 <= lo <= hi <= self.n_scenarios:
            raise ConfigurationError(
                f"range [{lo}, {hi}) outside [0, {self.n_scenarios})"
            )
        flat = np.arange(lo, hi, dtype=np.int64)
        if self.combine == "cartesian":
            return tuple(
                idx.astype(np.int64)
                for idx in np.unravel_index(flat, self.axis_lengths)
            )
        return tuple(
            flat if length > 1 else np.zeros_like(flat)
            for length in self.axis_lengths
        )

    def scenario(self, index: int) -> Scenario:
        """The fully resolved grid point at a flat index."""
        idx = self.axis_index_arrays(index, index + 1)
        (i_f,), (i_m,), (i_c,), (i_u,), (i_n,), (i_l,) = idx
        return Scenario(
            index=index,
            frequency=self.frequencies[i_f],
            bios_mode=self.bios_modes[i_m],
            ci=self.ci_scenarios[i_c],
            utilisation=self.utilisations[i_u],
            n_nodes=self.node_counts[i_n],
            lifetime_years=self.lifetimes_years[i_l],
        )

    def scenarios(self) -> Iterator[Scenario]:
        """Iterate every grid point in flat order (the scalar path)."""
        if self.combine == "cartesian":
            iterator = itertools.product(
                *(enumerate(getattr(self, name)) for name in AXIS_FIELDS)
            )
            for index, axes in enumerate(iterator):
                (_, f), (_, m), (_, c), (_, u), (_, n), (_, l) = axes
                yield Scenario(index, f, m, c, u, n, l)
        else:
            for index in range(self.n_scenarios):
                yield self.scenario(index)

    # -- canonical form ------------------------------------------------------

    def to_canonical(self) -> dict:
        """Canonical mapping: enum values, resolved defaults, plain types."""
        return {
            "kind": "sweep-spec",
            "frequencies": [f.value for f in self.frequencies],
            "bios_modes": [m.value for m in self.bios_modes],
            "ci_scenarios": [c.to_canonical() for c in self.ci_scenarios],
            "utilisations": list(self.utilisations),
            "node_counts": list(self.node_counts),
            "lifetimes_years": list(self.lifetimes_years),
            "combine": self.combine,
            "embodied_per_node_tco2e": float(self.embodied_per_node_tco2e),
            "embodied_overhead_tco2e": float(self.embodied_overhead_tco2e),
            "compute_activity": float(self.compute_activity),
            "memory_activity": float(self.memory_activity),
            "app_name": self.app_name,
            "ci_average_steps": int(self.ci_average_steps),
        }

    def canonical_json(self) -> str:
        """Deterministic JSON serialisation (sorted keys, compact)."""
        return json.dumps(self.to_canonical(), sort_keys=True, separators=(",", ":"))

    @property
    def spec_hash(self) -> str:
        """SHA-256 content address of the canonical form.

        Computed on first read and kept on the instance: the spec is frozen,
        and a sweep reads its hash once per chunk access.
        """
        digest: str | None = self.__dict__.get("_spec_hash")
        if digest is None:
            digest = hashlib.sha256(self.canonical_json().encode()).hexdigest()
            object.__setattr__(self, "_spec_hash", digest)
        return digest

    @classmethod
    def from_canonical(cls, data: dict) -> "SweepSpec":
        """Rebuild a spec from :meth:`to_canonical` / JSON output."""
        if data.get("kind") != "sweep-spec":
            raise ConfigurationError(f"not a sweep-spec mapping: kind={data.get('kind')!r}")
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in known}
        kwargs["ci_scenarios"] = tuple(
            CIScenario.from_canonical(c) for c in data["ci_scenarios"]
        )
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        """Rebuild a spec from :meth:`canonical_json` output."""
        return cls.from_canonical(json.loads(text))
