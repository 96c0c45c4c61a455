"""Sweep evaluation: vectorized chunked runner with a scalar regression path.

Two evaluation backends produce the same columns for a
:class:`~repro.engine.plan.SweepSpec`:

* :func:`run_sweep` — the production path. Scenario rows are evaluated in
  numpy-chunked batches through vectorized adapters onto the scalar models
  in :mod:`repro.core.emissions`, :mod:`repro.core.efficiency`,
  :mod:`repro.core.regimes` and :mod:`repro.grid.trajectory`. Small
  categorical axes (operating points, CI trajectories × lifetimes) are
  resolved once through the scalar oracle's own helpers, or read from a
  :class:`PointTables` that holds them, and broadcast; the per-row
  arithmetic mirrors the scalar expressions operation-for-operation, so
  both backends agree to ≤1e-9 on every scenario (and in practice
  bit-for-bit on all broadcast quantities).
* :func:`run_sweep_scalar` — the naive loop over
  :func:`evaluate_scenario`, walking the plain ``core.*`` object paths one
  scenario at a time. It exists as the exact-match regression oracle (and
  as the baseline ``benchmarks/bench_sweep.py`` measures against).

Results are :class:`SweepResult` objects implementing the library-wide
:class:`repro.results.Result` protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping

import numpy as np

from ..core.efficiency import BASELINE_CONFIG, OperatingConfig, compare_app
from ..core.emissions import EmbodiedProfile, EmissionsModel
from ..core.regimes import (
    PAPER_HIGH_CI,
    PAPER_LOW_CI,
    OptimisationTarget,
    Regime,
    advice,
    classify_ci,
)
from ..core.reporting import render_table
from ..errors import ConfigurationError
from ..grid.trajectory import lifetime_average_ci, regime_crossing_year
from ..node.calibration import build_node_model
from ..node.determinism import DeterminismMode
from ..node.node_power import NodePowerModel
from ..node.pstates import FrequencySetting
from ..units import SECONDS_PER_YEAR, g_to_tonnes
from .plan import ENGINE_VERSION, CIScenario, Scenario, SweepSpec
from .cache import LRUCache, SweepStore

__all__ = [
    "COLUMNS",
    "PointTables",
    "SweepMeta",
    "SweepResult",
    "evaluate_scenario",
    "run_sweep",
    "run_sweep_scalar",
]

#: Regimes in code order: ``regime_code`` column values index this tuple.
REGIME_ORDER: tuple[Regime, ...] = (
    Regime.SCOPE3_DOMINATED,
    Regime.BALANCED,
    Regime.SCOPE2_DOMINATED,
)

#: Column names and dtypes of every sweep result, in output order.
COLUMN_DTYPES: dict[str, np.dtype] = {
    "frequency_idx": np.dtype(np.int64),
    "bios_mode_idx": np.dtype(np.int64),
    "ci_idx": np.dtype(np.int64),
    "utilisation": np.dtype(np.float64),
    "n_nodes": np.dtype(np.int64),
    "lifetime_years": np.dtype(np.float64),
    "effective_ghz": np.dtype(np.float64),
    "busy_node_w": np.dtype(np.float64),
    "mean_power_kw": np.dtype(np.float64),
    "annual_energy_kwh": np.dtype(np.float64),
    "mean_ci_g_per_kwh": np.dtype(np.float64),
    "scope2_tco2e": np.dtype(np.float64),
    "scope3_tco2e": np.dtype(np.float64),
    "total_tco2e": np.dtype(np.float64),
    "scope2_share": np.dtype(np.float64),
    "crossover_ci_g_per_kwh": np.dtype(np.float64),
    "regime_code": np.dtype(np.int64),
    "perf_ratio": np.dtype(np.float64),
    "energy_ratio": np.dtype(np.float64),
    "crossing_year": np.dtype(np.float64),
}

COLUMNS: tuple[str, ...] = tuple(COLUMN_DTYPES)

#: Columns holding category codes; exports render them as labels.
_CODE_COLUMNS = ("frequency_idx", "bios_mode_idx", "ci_idx", "regime_code")

#: Default rows per vectorized batch.
DEFAULT_CHUNK_SIZE = 4096

#: Entries each :class:`PointTables` map holds before it evicts.
POINT_TABLE_CAPACITY = 1024


# -- evaluation context --------------------------------------------------------


@dataclass(frozen=True)
class _Context:
    """Precomputed per-spec lookup tables for the vectorized path.

    Every entry is produced by the helpers the scalar oracle resolves its
    own inputs with, so broadcasting from these tables cannot diverge from it.
    """

    spec: SweepSpec
    idle_w: float
    busy_map: np.ndarray  # (n_freq, n_mode) busy-node watts
    eff_map: np.ndarray  # (n_freq, n_mode) effective GHz
    perf_map: np.ndarray  # (n_freq, n_mode) perf ratio vs baseline (nan without app)
    energy_map: np.ndarray  # (n_freq, n_mode) energy ratio vs baseline
    mean_ci_map: np.ndarray  # (n_ci, n_lifetime) lifetime-average CI
    ci_start: np.ndarray  # (n_ci,)
    ci_rate: np.ndarray  # (n_ci,)
    ci_floor: np.ndarray  # (n_ci,)


def _resolve_app(spec: SweepSpec):
    if spec.app_name is None:
        return None
    from ..workload.applications import full_catalogue

    catalogue = full_catalogue()
    try:
        return catalogue[spec.app_name]
    except KeyError:
        raise ConfigurationError(
            f"unknown app {spec.app_name!r}; choose from {sorted(catalogue)}"
        ) from None


def _build_context(
    spec: SweepSpec,
    node_model: NodePowerModel | None = None,
    tables: PointTables | None = None,
) -> _Context:
    """The lookup tables of one spec.

    Each (frequency, BIOS mode) pair resolves through :func:`_operating_point`
    and each (CI scenario, lifetime) pair through :func:`_lifetime_ci`, the
    helpers of the scalar oracle: read through ``tables`` when given, whose
    node model is then the one evaluated, and resolved afresh when not.
    """
    if tables is None:
        node_model = node_model or build_node_model()
        operating_point = partial(_operating_point, node_model)
        lifetime_ci = _lifetime_ci
    else:
        node_model = tables.node_model
        operating_point = tables.operating_point
        lifetime_ci = tables.lifetime_ci
    app = _resolve_app(spec)
    n_f, n_m = len(spec.frequencies), len(spec.bios_modes)
    busy = np.empty((n_f, n_m))
    eff = np.empty((n_f, n_m))
    perf = np.full((n_f, n_m), np.nan)
    energy = np.full((n_f, n_m), np.nan)
    for i_f, setting in enumerate(spec.frequencies):
        for i_m, mode in enumerate(spec.bios_modes):
            eff[i_f, i_m], busy[i_f, i_m] = operating_point(
                setting, mode, spec.compute_activity, spec.memory_activity
            )
            if app is not None:
                row = compare_app(
                    app, OperatingConfig(setting, mode), BASELINE_CONFIG, node_model
                )
                perf[i_f, i_m] = row.perf_ratio
                energy[i_f, i_m] = row.energy_ratio

    n_c, n_l = len(spec.ci_scenarios), len(spec.lifetimes_years)
    mean_ci = np.empty((n_c, n_l))
    for i_c, ci in enumerate(spec.ci_scenarios):
        for i_l, lifetime in enumerate(spec.lifetimes_years):
            mean_ci[i_c, i_l] = lifetime_ci(ci, lifetime, spec.ci_average_steps)
    return _Context(
        spec=spec,
        idle_w=node_model.idle_power_w,
        busy_map=busy,
        eff_map=eff,
        perf_map=perf,
        energy_map=energy,
        mean_ci_map=mean_ci,
        ci_start=np.array([c.start_ci_g_per_kwh for c in spec.ci_scenarios], dtype=float),
        ci_rate=np.array([c.annual_reduction for c in spec.ci_scenarios], dtype=float),
        ci_floor=np.array([c.resolved_floor for c in spec.ci_scenarios], dtype=float),
    )


# -- vectorized chunk evaluation ----------------------------------------------


def _evaluate_chunk(ctx: _Context, lo: int, hi: int) -> dict[str, np.ndarray]:
    """Evaluate scenario rows ``[lo, hi)`` as one vectorized batch."""
    spec = ctx.spec
    i_f, i_m, i_c, i_u, i_n, i_l = spec.axis_index_arrays(lo, hi)
    util = np.asarray(spec.utilisations, dtype=np.float64)[i_u]
    nodes = np.asarray(spec.node_counts, dtype=np.int64)[i_n]
    lifetime = np.asarray(spec.lifetimes_years, dtype=np.float64)[i_l]
    nodes_f = nodes.astype(np.float64)

    busy_w = ctx.busy_map[i_f, i_m]
    # Mirrors the scalar expressions in evaluate_scenario term-for-term.
    mean_power_kw = nodes_f * (util * busy_w + (1.0 - util) * ctx.idle_w) / 1e3
    annual_energy_kwh = mean_power_kw * SECONDS_PER_YEAR / 3600.0
    embodied_total = (
        spec.embodied_overhead_tco2e + spec.embodied_per_node_tco2e * nodes_f
    )
    mean_ci = ctx.mean_ci_map[i_c, i_l]
    scope2 = g_to_tonnes(annual_energy_kwh * mean_ci) * lifetime
    scope3 = embodied_total.copy()
    total = scope2 + scope3
    annual_rate = embodied_total / lifetime
    crossover = annual_rate * 1e6 / annual_energy_kwh

    regime_code = np.where(
        mean_ci < PAPER_LOW_CI, 0, np.where(mean_ci <= PAPER_HIGH_CI, 1, 2)
    ).astype(np.int64)

    # regime_crossing_year, vectorized with the scalar branch precedence:
    # crossover >= start -> 0, crossover < floor -> inf, rate == 0 -> inf.
    start = ctx.ci_start[i_c]
    rate = ctx.ci_rate[i_c]
    floor = ctx.ci_floor[i_c]
    with np.errstate(divide="ignore", invalid="ignore"):
        years = np.log(crossover / start) / np.log(1.0 - rate)
    # lint: exact-float -- mirrors the scalar config sentinel bit-for-bit
    years = np.where(rate == 0.0, np.inf, years)
    years = np.where(crossover < floor, np.inf, years)
    years = np.where(crossover >= start, 0.0, years)
    crossing_year = np.where(np.isinf(years) | (years > lifetime), np.nan, years)

    return {
        "frequency_idx": i_f,
        "bios_mode_idx": i_m,
        "ci_idx": i_c,
        "utilisation": util,
        "n_nodes": nodes,
        "lifetime_years": lifetime,
        "effective_ghz": ctx.eff_map[i_f, i_m],
        "busy_node_w": busy_w,
        "mean_power_kw": mean_power_kw,
        "annual_energy_kwh": annual_energy_kwh,
        "mean_ci_g_per_kwh": mean_ci,
        "scope2_tco2e": scope2,
        "scope3_tco2e": scope3,
        "total_tco2e": total,
        "scope2_share": scope2 / total,
        "crossover_ci_g_per_kwh": crossover,
        "regime_code": regime_code,
        "perf_ratio": ctx.perf_map[i_f, i_m],
        "energy_ratio": ctx.energy_map[i_f, i_m],
        "crossing_year": crossing_year,
    }


# -- scalar reference path -----------------------------------------------------


def _operating_point(
    node_model: NodePowerModel,
    setting: FrequencySetting,
    mode: DeterminismMode,
    compute_activity: float,
    memory_activity: float,
) -> tuple[float, float]:
    """(effective GHz, busy-node W) at one operating point and activity split."""
    point = node_model.cpu.operating_point(setting, mode)
    busy_w = float(node_model.busy_power_w(point, compute_activity, memory_activity))
    return point.effective_ghz, busy_w


def _lifetime_ci(ci: CIScenario, lifetime_years: float, steps: int) -> float:
    """Lifetime-average carbon intensity of one CI scenario."""
    return lifetime_average_ci(ci.trajectory(), lifetime_years, steps=steps)


def _kept(table: LRUCache, key: tuple, resolve: Callable[..., object]):
    """``resolve(*key)``, read from ``table`` when it holds ``key``, kept there when not.

    A key with an unhashable field is resolved afresh and not kept: session
    params reach ``lifetime_ci`` unvalidated, and a CI mapping from the
    wire may name its scenario with a list.
    """
    try:
        value = table.get(key)
    except TypeError:
        return resolve(*key)
    if value is None:
        value = resolve(*key)
        table.put(key, value)
    return value


class PointTables:
    """Categorical inputs of point evaluations and sweeps, resolved once and kept.

    * ``operating``: (frequency setting, BIOS mode, compute activity,
      memory activity) → (effective GHz, busy-node W);
    * ``mean_ci``: (:class:`CIScenario`, lifetime, averaging steps) →
      lifetime-average CI.

    Each value is what the scalar core functions return for its key, so a
    row evaluated through the tables is the same floats as one resolved
    afresh. :func:`evaluate_scenario` and :func:`run_sweep` both read and
    fill them. The keys hold client-supplied floats, so each map is an
    :class:`LRUCache` bounded at :data:`POINT_TABLE_CAPACITY` entries. The
    operating points belong to ``node_model`` alone. The maps are not
    locked: use them from one thread.
    """

    def __init__(self, node_model: NodePowerModel) -> None:
        self.node_model = node_model
        self.operating = LRUCache(POINT_TABLE_CAPACITY)
        self.mean_ci = LRUCache(POINT_TABLE_CAPACITY)

    def operating_point(
        self,
        setting: FrequencySetting,
        mode: DeterminismMode,
        compute_activity: float,
        memory_activity: float,
    ) -> tuple[float, float]:
        """(effective GHz, busy-node W), as :meth:`NodePowerModel.busy_power_w` gives it."""
        return _kept(
            self.operating,
            (setting, mode, compute_activity, memory_activity),
            partial(_operating_point, self.node_model),
        )

    def lifetime_ci(self, ci: CIScenario, lifetime_years: float, steps: int) -> float:
        """Lifetime-average CI, as :func:`lifetime_average_ci` gives it."""
        return _kept(self.mean_ci, (ci, lifetime_years, steps), _lifetime_ci)


def evaluate_scenario(
    spec: SweepSpec,
    scenario: Scenario,
    node_model: NodePowerModel | None = None,
    tables: PointTables | None = None,
) -> dict[str, float]:
    """Evaluate one scenario through the plain scalar ``core.*`` paths.

    This is the regression oracle the vectorized runner is held to: one
    operating-point resolution, one :class:`EmissionsModel`, one trajectory
    average, one regime classification — no batching anywhere.

    Without ``tables`` every input is resolved afresh. With them, the
    operating point and the lifetime-average CI are read from the tables
    when they hold them and kept there when not; the row is the same
    floats either way. The tables must belong to ``node_model``.
    """
    node_model = node_model or build_node_model()
    point_key = (
        scenario.frequency,
        scenario.bios_mode,
        spec.compute_activity,
        spec.memory_activity,
    )
    ci_key = (scenario.ci, scenario.lifetime_years, spec.ci_average_steps)
    if tables is None:
        effective_ghz, busy_w = _operating_point(node_model, *point_key)
        mean_ci = _lifetime_ci(*ci_key)
    elif tables.node_model is not node_model:
        raise ConfigurationError("point tables belong to another node model")
    else:
        effective_ghz, busy_w = tables.operating_point(*point_key)
        mean_ci = tables.lifetime_ci(*ci_key)
    idle_w = node_model.idle_power_w
    n = scenario.n_nodes
    u = scenario.utilisation
    mean_power_kw = n * (u * busy_w + (1.0 - u) * idle_w) / 1e3
    embodied_total = spec.embodied_overhead_tco2e + spec.embodied_per_node_tco2e * n
    model = EmissionsModel(
        embodied=EmbodiedProfile(
            total_tco2e=embodied_total, lifetime_years=scenario.lifetime_years
        ),
        mean_power_kw=mean_power_kw,
    )
    breakdown = model.lifetime_breakdown(mean_ci)
    crossover = model.crossover_ci_g_per_kwh()
    regime = classify_ci(mean_ci)
    crossing = regime_crossing_year(
        scenario.ci.trajectory(), crossover, scenario.lifetime_years
    )

    perf_ratio = energy_ratio = float("nan")
    app = _resolve_app(spec)
    if app is not None:
        row = compare_app(
            app,
            OperatingConfig(scenario.frequency, scenario.bios_mode),
            BASELINE_CONFIG,
            node_model,
        )
        perf_ratio, energy_ratio = row.perf_ratio, row.energy_ratio

    return {
        "frequency_idx": spec.frequencies.index(scenario.frequency),
        "bios_mode_idx": spec.bios_modes.index(scenario.bios_mode),
        "ci_idx": spec.ci_scenarios.index(scenario.ci),
        "utilisation": u,
        "n_nodes": n,
        "lifetime_years": scenario.lifetime_years,
        "effective_ghz": effective_ghz,
        "busy_node_w": busy_w,
        "mean_power_kw": mean_power_kw,
        "annual_energy_kwh": model.annual_energy_kwh(),
        "mean_ci_g_per_kwh": mean_ci,
        "scope2_tco2e": breakdown.scope2_tco2e,
        "scope3_tco2e": breakdown.scope3_tco2e,
        "total_tco2e": breakdown.total_tco2e,
        "scope2_share": breakdown.scope2_share,
        "crossover_ci_g_per_kwh": crossover,
        "regime_code": REGIME_ORDER.index(regime),
        "perf_ratio": perf_ratio,
        "energy_ratio": energy_ratio,
        "crossing_year": float("nan") if crossing is None else crossing,
    }


# -- results -------------------------------------------------------------------


@dataclass(frozen=True)
class SweepMeta:
    """How a sweep result was produced (never part of the cache key)."""

    backend: str
    engine_version: str = ENGINE_VERSION
    chunk_size: int = DEFAULT_CHUNK_SIZE
    n_chunks: int = 1
    memory_hit: bool = False
    disk_hits: int = 0
    computed_chunks: int = 0


@dataclass(frozen=True)
class SweepResult:
    """A fully evaluated sweep: the spec plus one column array per quantity.

    Implements the :class:`repro.results.Result` protocol, so the generic
    exporter and the CLI can render it like any experiment artefact.
    """

    spec: SweepSpec
    columns: Mapping[str, np.ndarray]
    meta: SweepMeta = field(default_factory=lambda: SweepMeta(backend="vectorized"))

    def __post_init__(self) -> None:
        missing = set(COLUMNS) - set(self.columns)
        if missing:
            raise ConfigurationError(f"sweep result missing columns: {sorted(missing)}")
        n = self.spec.n_scenarios
        for name in COLUMNS:
            if len(self.columns[name]) != n:
                raise ConfigurationError(
                    f"column {name!r} has {len(self.columns[name])} rows, expected {n}"
                )

    def __len__(self) -> int:
        return self.spec.n_scenarios

    @property
    def result_id(self) -> str:
        """Stable identifier derived from the spec content hash."""
        return f"SWEEP-{self.spec.spec_hash[:12]}"

    # -- decoding ----------------------------------------------------------

    def regime(self, index: int) -> Regime:
        """Decoded regime of one scenario row."""
        return REGIME_ORDER[int(self.columns["regime_code"][index])]

    def target(self, index: int) -> OptimisationTarget:
        """Decoded optimisation target of one scenario row."""
        return advice(self.regime(index))

    def row(self, index: int) -> dict:
        """One scenario row with categorical codes decoded to labels."""
        cols = self.columns
        out: dict = {"scenario": index}
        out["frequency"] = self.spec.frequencies[int(cols["frequency_idx"][index])].value
        out["bios_mode"] = self.spec.bios_modes[int(cols["bios_mode_idx"][index])].value
        out["ci_scenario"] = self.spec.ci_scenarios[int(cols["ci_idx"][index])].name
        for name in COLUMNS:
            if name in _CODE_COLUMNS:
                continue
            value = cols[name][index]
            out[name] = int(value) if name == "n_nodes" else float(value)
        out["regime"] = self.regime(index).value
        out["target"] = self.target(index).value
        return out

    def argsort(self, by: str = "total_tco2e", descending: bool = False) -> np.ndarray:
        """Scenario indices ordered by one column (stable sort)."""
        if by not in self.columns:
            raise ConfigurationError(f"unknown column {by!r}")
        order = np.argsort(self.columns[by], kind="stable")
        return order[::-1] if descending else order

    # -- Result protocol ----------------------------------------------------

    def to_dict(self) -> dict:
        """Summary mapping: spec, shape, provenance and headline extremes."""
        total = self.columns["total_tco2e"]
        best = int(np.argmin(total))
        return {
            "result_id": self.result_id,
            "kind": "sweep",
            "n_scenarios": len(self),
            "engine_version": self.meta.engine_version,
            "backend": self.meta.backend,
            "spec": self.spec.to_canonical(),
            "headline": {
                "min_total_tco2e": float(total.min()),
                "max_total_tco2e": float(total.max()),
                "best_scenario": best,
                "best_total_tco2e": float(total[best]),
            },
        }

    def to_table(self, max_rows: int = 12) -> str:
        """Rendered table of the lowest-emission scenarios."""
        headers = [
            "#",
            "frequency",
            "BIOS mode",
            "CI scenario",
            "util",
            "nodes",
            "life/y",
            "mean kW",
            "mean CI",
            "tCO2e",
            "s2 share",
            "regime",
        ]
        order = self.argsort("total_tco2e")
        rows = []
        for index in order[:max_rows]:
            row = self.row(int(index))
            rows.append(
                [
                    row["scenario"],
                    row["frequency"],
                    row["bios_mode"],
                    row["ci_scenario"],
                    f"{row['utilisation']:.2f}",
                    f"{row['n_nodes']:,}",
                    f"{row['lifetime_years']:g}",
                    f"{row['mean_power_kw']:,.0f}",
                    f"{row['mean_ci_g_per_kwh']:.1f}",
                    f"{row['total_tco2e']:,.0f}",
                    f"{row['scope2_share']:.2f}",
                    row["regime"],
                ]
            )
        title = (
            f"[{self.result_id}] scenario sweep — {len(self)} scenarios, "
            f"best {min(max_rows, len(self))} by lifetime tCO2e "
            f"({self.meta.backend}, engine v{self.meta.engine_version})"
        )
        table = render_table(headers, rows, title=title)
        if len(self) > max_rows:
            table += f"\n… {len(self) - max_rows} more scenario(s); export for the full grid"
        return table

    def to_csv_rows(self) -> dict[str, list[list[str]]]:
        """One CSV ("scenarios") with every row, deterministically formatted.

        Floats are rendered with ``repr`` (shortest round-trip form), so a
        cache replay that reproduces the same float64 values reproduces the
        same bytes. A result whose columns are a memory-cache entry of its
        own spec renders them once: the entry keeps the rows, and every
        result served from it returns those same lists, which are shared
        and read-only, like the columns.
        """
        cols = self.columns
        if not isinstance(cols, _CachedColumns) or cols.spec_hash != self.spec.spec_hash:
            return {"scenarios": self._render_csv()}
        if cols.csv_rows is None:
            cols.csv_rows = self._render_csv()
        return {"scenarios": cols.csv_rows}

    def _render_csv(self) -> list[list[str]]:
        """The CSV rows: each column rendered once, then zipped into rows."""
        cols = self.columns
        value_names = [name for name in COLUMNS if name not in _CODE_COLUMNS]
        header = [
            "scenario",
            "frequency",
            "bios_mode",
            "ci_scenario",
            "regime",
            "target",
            *value_names,
        ]
        freq_labels = [f.value for f in self.spec.frequencies]
        mode_labels = [m.value for m in self.spec.bios_modes]
        ci_labels = [c.name for c in self.spec.ci_scenarios]
        regime_labels = [r.value for r in REGIME_ORDER]
        target_labels = [advice(r).value for r in REGIME_ORDER]
        codes = cols["regime_code"].tolist()
        rendered = [
            [str(i) for i in range(len(self))],
            [freq_labels[i] for i in cols["frequency_idx"].tolist()],
            [mode_labels[i] for i in cols["bios_mode_idx"].tolist()],
            [ci_labels[i] for i in cols["ci_idx"].tolist()],
            [regime_labels[code] for code in codes],
            [target_labels[code] for code in codes],
        ]
        for name in value_names:
            render = str if name == "n_nodes" else repr
            rendered.append([render(value) for value in cols[name].tolist()])
        return [header, *(list(row) for row in zip(*rendered))]


# -- runners -------------------------------------------------------------------


def _chunk_ranges(n: int, chunk_size: int) -> list[tuple[int, int]]:
    if chunk_size <= 0:
        raise ConfigurationError("chunk_size must be positive")
    return [(lo, min(lo + chunk_size, n)) for lo in range(0, n, chunk_size)]


class _Slices(dict):
    """Rows ``[lo, hi)`` of each result column, sliced when a reader asks
    for the column, so looking up a chunk that is not stored builds no view."""

    __slots__ = ("columns", "rows")

    def __init__(self, columns: dict[str, np.ndarray], lo: int, hi: int) -> None:
        super().__init__()
        self.columns = columns
        self.rows = slice(lo, hi)

    def __missing__(self, name: str) -> np.ndarray:
        return self.columns[name][self.rows]


def _freeze(columns: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    for arr in columns.values():
        arr.setflags(write=False)
    return columns


class _CachedColumns(dict):
    """A sweep's frozen columns as the memory cache keeps them: tagged with
    the spec hash they answer, with a slot that :meth:`SweepResult.to_csv_rows`
    fills with their rendered rows."""

    __slots__ = ("spec_hash", "csv_rows")

    def __init__(self, columns: dict[str, np.ndarray], spec_hash: str) -> None:
        super().__init__(columns)
        self.spec_hash = spec_hash
        self.csv_rows: list[list[str]] | None = None


def run_sweep(
    spec: SweepSpec,
    *,
    node_model: NodePowerModel | None = None,
    tables: PointTables | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    store: SweepStore | None = None,
    memory_cache: LRUCache | None = None,
    progress: Callable[[int, int, str], None] | None = None,
) -> SweepResult:
    """Evaluate a sweep with the vectorized backend.

    ``tables`` lets a sweep read its operating points and lifetime-average
    CIs from :class:`PointTables` kept elsewhere (and keep the ones it
    resolves there); their node model is then the one evaluated, so passing
    ``node_model`` as well is refused. ``store`` enables the on-disk chunk
    cache (hits skip evaluation and are byte-identical to a fresh run; a
    partially populated entry resumes from the completed chunks).
    ``memory_cache`` short-circuits whole repeated sweeps within a session;
    its entry also keeps the sweep's CSV rows once rendered. ``progress``
    is called after each chunk as ``progress(done, total, source)`` with
    source ``"disk"`` or ``"computed"``.

    A custom node model, given directly or through ``tables``, is not
    covered by the spec hash, so caching is refused in that case rather
    than served wrong.
    """
    if node_model is not None and tables is not None:
        raise ConfigurationError(
            "pass node_model or tables, not both: the tables' node model is evaluated"
        )
    if (store is not None or memory_cache is not None) and (
        node_model is not None
        or (tables is not None and tables.node_model != build_node_model())
    ):
        raise ConfigurationError(
            "caching is keyed by the spec hash only; evaluate the default "
            "calibration (node_model=None, or tables of it) when using a cache"
        )
    memory_key = f"{spec.spec_hash}-v{ENGINE_VERSION}"
    if memory_cache is not None:
        cached = memory_cache.get(memory_key)
        if cached is not None:
            meta = SweepMeta(
                backend="vectorized",
                chunk_size=chunk_size,
                n_chunks=0,
                memory_hit=True,
            )
            return SweepResult(spec=spec, columns=cached, meta=meta)

    n = spec.n_scenarios
    ranges = _chunk_ranges(n, chunk_size)
    # np.empty touches no page: each chunk fills its slice as it lands.
    assembled = {name: np.empty(n, dtype) for name, dtype in COLUMN_DTYPES.items()}
    missing: list[tuple[int, int]] = []
    disk_hits = 0
    for lo, hi in ranges:
        if store and store.get_chunk(
            spec.spec_hash, lo, hi, COLUMNS, out=_Slices(assembled, lo, hi)
        ) is not None:
            disk_hits += 1
            if progress:
                progress(disk_hits, len(ranges), "disk")
        else:
            missing.append((lo, hi))

    if missing:
        ctx = _build_context(spec, node_model, tables)
        for done, (lo, hi) in enumerate(missing, start=disk_hits + 1):
            columns = _evaluate_chunk(ctx, lo, hi)
            for name, col in assembled.items():
                col[lo:hi] = columns[name]
            if store:
                store.put_chunk(spec, lo, hi, columns)
            if progress:
                progress(done, len(ranges), "computed")

    assembled = _freeze(assembled)
    if memory_cache is not None:
        assembled = _CachedColumns(assembled, spec.spec_hash)
        memory_cache.put(memory_key, assembled)
    meta = SweepMeta(
        backend="vectorized",
        chunk_size=chunk_size,
        n_chunks=len(ranges),
        disk_hits=disk_hits,
        computed_chunks=len(missing),
    )
    return SweepResult(spec=spec, columns=assembled, meta=meta)


def run_sweep_scalar(
    spec: SweepSpec, node_model: NodePowerModel | None = None
) -> SweepResult:
    """Evaluate a sweep with the naive scalar loop (the regression oracle)."""
    node_model = node_model or build_node_model()
    rows = [evaluate_scenario(spec, s, node_model) for s in spec.scenarios()]
    columns = {
        name: np.array([r[name] for r in rows], dtype=COLUMN_DTYPES[name])
        for name in COLUMNS
    }
    meta = SweepMeta(
        backend="scalar", chunk_size=spec.n_scenarios, n_chunks=1,
        computed_chunks=1,
    )
    return SweepResult(spec=spec, columns=_freeze(columns), meta=meta)
