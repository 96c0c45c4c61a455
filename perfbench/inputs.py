"""Seeded inputs for every workload, generated before any timing starts.

Each function here is a pure function of the seed: the same seed gives
byte-identical inputs (:func:`fingerprint` hashes them), and the program
under test receives only what these functions return.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from repro.engine.plan import CIScenario, SweepSpec
from repro.grid.carbon_intensity import CarbonIntensityModel
from repro.telemetry.series import TimeSeries
from repro.units import SECONDS_PER_DAY
from repro.workload.generator import JobStreamConfig, JobStreamGenerator
from repro.workload.mix import archer2_mix

__all__ = [
    "ServiceInputs",
    "MonitorInputs",
    "SchedInputs",
    "service_inputs",
    "sweep_inputs",
    "monitor_inputs",
    "sched_inputs",
    "fingerprint",
]

# -- service-mix ---------------------------------------------------------------

N_TENANTS = 8
N_SERVICE_REQUESTS = 60_000
#: Sweep variants: more than the core's 8-entry LRUCache holds.
N_SWEEP_VARIANTS = 24
#: Requests of each method in every block of 200 (the point methods are 90 %).
#: Each block is shuffled by the seed, so every stretch of a few hundred
#: requests has the same mix and a run's timed window does too.
SERVICE_MIX = (
    ("emissions", 90),
    ("classify_regime", 90),
    ("advise", 4),
    ("efficiency", 5),
    ("sweep", 9),
    ("malformed", 2),
)
EFFICIENCY_APPS = (None, "CASTEP Al Slab", "CP2K H2O 2048", "GROMACS 1400k", "LAMMPS Ethanol")

#: Malformed request bodies and the structured error code each must get.
MALFORMED = (
    (b'{"v": 1, "method": "emissions", "params": ', "bad-request"),
    (b'{"v": 1, "params": {}, "tenant": "tenant-0"}', "bad-request"),
    (b'{"v": 99, "method": "emissions", "params": {}}', "unsupported-version"),
    (b'{"v": 1, "method": "no_such_method", "params": {}}', "unknown-method"),
)


@dataclass(frozen=True)
class ServiceInputs:
    """The closed loop's request sequence plus what each answer must be.

    ``bodies[i]`` is the exact POST body of request ``i``; ``expect[i]`` is
    ``("ok", k)`` when its payload must equal the direct answer to
    ``questions[k]`` = ``(method, params)``, or ``("error", code)`` when it
    must come back as a structured 400 with that code.
    """

    bodies: tuple[bytes, ...]
    methods: tuple[str, ...]
    expect: tuple[tuple[str, object], ...]
    questions: tuple[tuple[str, dict], ...]


def _sweep_variants() -> list[dict]:
    variants = []
    for i in range(N_SWEEP_VARIANTS):
        variants.append(
            {
                "overrides": {
                    "utilisations": [0.5 + 0.01 * i, 0.9],
                    "node_counts": [1024 + 256 * (i % 6)],
                },
                "chunk_size": 256,
            }
        )
    return variants


def _service_question(method: str, rng: np.random.Generator, sweeps: list[dict]) -> dict:
    if method == "emissions":
        return {
            "n_nodes": int(rng.choice([1024, 2048, 4096, 5860])),
            "utilisation": float(rng.choice([0.7, 0.8, 0.9])),
            "ci_g_per_kwh": float(rng.choice([25.0, 55.0, 190.0])),
        }
    if method == "classify_regime":
        if rng.random() < 0.5:
            return {"at_ci_g_per_kwh": float(10 + 20 * int(rng.integers(0, 20)))}
        return {"ci_g_per_kwh": float(rng.choice([25.0, 55.0, 190.0, 300.0]))}
    if method == "advise":
        return {"ci_g_per_kwh": float(rng.choice([25.0, 55.0, 190.0, 300.0]))}
    if method == "efficiency":
        app = EFFICIENCY_APPS[int(rng.integers(0, len(EFFICIENCY_APPS)))]
        return {} if app is None else {"app_name": app}
    # Zipf-like skew over more sweep variants than the LRU holds.
    weights = 1.0 / np.arange(1, N_SWEEP_VARIANTS + 1)
    return sweeps[int(rng.choice(N_SWEEP_VARIANTS, p=weights / weights.sum()))]


def service_inputs(seed: int, n_requests: int = N_SERVICE_REQUESTS) -> ServiceInputs:
    """The seeded request sequence of the service-mix workload."""
    rng = np.random.default_rng([seed, 1])
    block = [name for name, count in SERVICE_MIX for _ in range(count)]
    n_blocks = -(-n_requests // len(block))
    drawn = [block[k] for _ in range(n_blocks) for k in rng.permutation(len(block))][:n_requests]
    sweeps = _sweep_variants()
    bodies: list[bytes] = []
    methods: list[str] = []
    expect: list[tuple[str, object]] = []
    index: dict[str, int] = {}
    questions: list[tuple[str, dict]] = []
    for i, method in enumerate(drawn):
        if method == "malformed":
            body, code = MALFORMED[i % len(MALFORMED)]
            bodies.append(body)
            methods.append(method)
            expect.append(("error", code))
            continue
        params = _service_question(method, rng, sweeps)
        envelope = {
            "v": 1,
            "method": method,
            "params": params,
            "tenant": f"tenant-{int(rng.integers(0, N_TENANTS))}",
        }
        key = json.dumps([method, params], sort_keys=True)
        if key not in index:
            index[key] = len(questions)
            questions.append((method, params))
        bodies.append(json.dumps(envelope, sort_keys=True).encode())
        methods.append(method)
        expect.append(("ok", index[key]))
    return ServiceInputs(tuple(bodies), tuple(methods), tuple(expect), tuple(questions))


# -- sweep-grid ----------------------------------------------------------------

#: Axis lengths: 3 frequencies x 2 BIOS modes x 16 CI x 40 util x 17 nodes x 4
#: lifetimes = 261,120 rows, 64 chunks of 4096.
SWEEP_AXES = (16, 40, 17, 4)
SWEEP_ORACLE_ROWS = 64


def sweep_inputs(seed: int) -> tuple[SweepSpec, tuple[int, ...]]:
    """One large seeded sweep spec and the rows checked against the oracle."""
    rng = np.random.default_rng([seed, 2])
    n_ci, n_util, n_nodes, n_life = SWEEP_AXES
    starts = np.sort(rng.choice(np.arange(20, 400), size=n_ci, replace=False))
    cis = tuple(
        CIScenario.decarbonising(float(s), float(np.round(rng.uniform(0.0, 0.1), 4)), name=f"ci-{i}")
        for i, s in enumerate(starts)
    )
    utils = np.sort(rng.choice(np.arange(300, 1000), size=n_util, replace=False)) / 1000.0
    nodes = np.sort(rng.choice(np.arange(256, 8192, 16), size=n_nodes, replace=False))
    lifetimes = np.sort(rng.choice(np.arange(8, 41), size=n_life, replace=False)) / 4.0
    spec = SweepSpec(
        ci_scenarios=cis,
        utilisations=tuple(float(u) for u in utils),
        node_counts=tuple(int(n) for n in nodes),
        lifetimes_years=tuple(float(y) for y in lifetimes),
    )
    rows = tuple(int(r) for r in np.sort(rng.choice(spec.n_scenarios, SWEEP_ORACLE_ROWS, replace=False)))
    return spec, rows


# -- monitor-replay ------------------------------------------------------------

MONITOR_DAYS = 3.0
MONITOR_CADENCE_S = 0.0864
MONITOR_LEVELS_KW = (3220.0, 3010.0, 2530.0)
MONITOR_NOISE_KW = 32.0
MONITOR_DROPOUT = 0.002


@dataclass(frozen=True)
class MonitorInputs:
    """Cabinet power with the paper's two steps, plus half-hourly CI."""

    power: TimeSeries
    ci: TimeSeries
    step_times_s: tuple[float, ...]
    levels_kw: tuple[float, ...]


def monitor_inputs(seed: int) -> MonitorInputs:
    """Several days of ~86 ms power (-210, -480 kW steps) and crossing CI."""
    rng = np.random.default_rng([seed, 3])
    duration_s = MONITOR_DAYS * SECONDS_PER_DAY
    n = int(round(duration_s / MONITOR_CADENCE_S))
    times = np.arange(n) * MONITOR_CADENCE_S
    steps = tuple(
        float(round((day + rng.uniform(-0.1, 0.1)) * SECONDS_PER_DAY))
        for day in (MONITOR_DAYS / 3, 2 * MONITOR_DAYS / 3)
    )
    truth = np.full(n, MONITOR_LEVELS_KW[0])
    for step, level in zip(steps, MONITOR_LEVELS_KW[1:]):
        truth[times >= step] = level
    values = truth + MONITOR_NOISE_KW * rng.standard_normal(n)
    values[rng.random(n) < MONITOR_DROPOUT] = np.nan
    power = TimeSeries(times, values, "perfbench-power-kw")

    ci_times = np.arange(0.0, duration_s, 1800.0)
    phase = rng.uniform(0.0, 2 * np.pi)
    ci_values = 65.0 + 75.0 * np.sin(2 * np.pi * ci_times / SECONDS_PER_DAY + phase)
    ci_values = np.maximum(ci_values + rng.normal(0.0, 3.0, len(ci_times)), 5.0)
    ci = TimeSeries(ci_times, ci_values, "perfbench-ci")
    return MonitorInputs(power, ci, steps, MONITOR_LEVELS_KW)


# -- sched-trace ---------------------------------------------------------------

SCHED_NODES = 256
SCHED_DAYS = 21.0
SCHED_MTBF_HOURS = 4380.0
SCHED_MTTR_HOURS = 12.0


@dataclass(frozen=True)
class SchedInputs:
    """A multi-week ARCHER2-mix trace and its 'balanced' CI series."""

    jobs: tuple
    t_end_s: float
    ci: TimeSeries
    fault_seed: int


def sched_inputs(seed: int) -> SchedInputs:
    """Several weeks of jobs: 50 % malleable, offered load 0.95."""
    rng = np.random.default_rng([seed, 4])
    config = JobStreamConfig(
        n_facility_nodes=SCHED_NODES,
        offered_load=0.95,
        mean_runtime_s=3600.0,
        max_job_nodes=SCHED_NODES // 4,
        malleable_fraction=0.5,
        shift_slack_mean_s=2.0 * 3600.0,
    )
    horizon_s = SCHED_DAYS * SECONDS_PER_DAY
    jobs = JobStreamGenerator(archer2_mix(), config, rng).generate_until(horizon_s)
    t_end_s = horizon_s + 6.0 * 3600.0
    ci = CarbonIntensityModel.from_scenario("balanced").series(
        0.0, t_end_s + SECONDS_PER_DAY, 1800.0, rng
    )
    return SchedInputs(tuple(jobs), t_end_s, ci, fault_seed=int(rng.integers(0, 2**31)))


# -- identity ------------------------------------------------------------------


def _series_bytes(series: TimeSeries) -> bytes:
    return series.times_s.tobytes() + series.values.tobytes()


def fingerprint(workload: str, seed: int) -> str:
    """SHA-256 over the canonical bytes of one workload's generated inputs."""
    h = hashlib.sha256()
    if workload == "service-mix":
        inputs = service_inputs(seed)
        for body in inputs.bodies:
            h.update(body)
        h.update(json.dumps(inputs.questions, sort_keys=True).encode())
    elif workload == "sweep-grid":
        spec, rows = sweep_inputs(seed)
        h.update(spec.canonical_json().encode())
        h.update(json.dumps(rows).encode())
    elif workload == "monitor-replay":
        inputs = monitor_inputs(seed)
        h.update(_series_bytes(inputs.power) + _series_bytes(inputs.ci))
        h.update(json.dumps(inputs.step_times_s).encode())
    elif workload == "sched-trace":
        inputs = sched_inputs(seed)
        h.update(repr(inputs.jobs).encode())
        h.update(_series_bytes(inputs.ci))
        h.update(repr((inputs.t_end_s, inputs.fault_seed)).encode())
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return h.hexdigest()
