"""Shared fixtures for the hpcem test suite."""

from __future__ import annotations

import signal

import numpy as np
import pytest

from repro.core.campaign import CampaignConfig, run_campaign
from repro.core.interventions import (
    BiosDeterminismChange,
    DefaultFrequencyChange,
    InterventionSchedule,
    OperatingState,
)
from repro.facility.archer2 import archer2_inventory, scaled_inventory
from repro.node.app_energy import AppRunPoint
from repro.node.calibration import build_node_model
from repro.node.determinism import DeterminismMode
from repro.scheduler.frequency_policy import FrequencyPolicy
from repro.units import SECONDS_PER_DAY
from repro.workload.applications import paper_curated_apps
from repro.workload.generator import JobStreamConfig
from repro.workload.mix import archer2_mix


@pytest.fixture
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def time_limit():
    """Fail the test with ``TimeoutError`` once it has run 5 s.

    ``SIGALRM`` interrupts a pure-Python loop, so a request that never
    returns fails its test instead of hanging the run.
    """

    def expire(signum, frame):
        raise TimeoutError("test ran past its 5 s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def node_model():
    """The default ARCHER2-calibrated node power model."""
    return build_node_model()


@pytest.fixture(scope="session")
def inventory():
    """The full ARCHER2 inventory."""
    return archer2_inventory()


@pytest.fixture(scope="session")
def small_inventory():
    """A 5 %-scale ARCHER2-proportioned facility for fast simulations."""
    return scaled_inventory(0.05)


@pytest.fixture(scope="session")
def mix():
    """The default ARCHER2 workload mix."""
    return archer2_mix()


def _per_app_run(app, setting, mode, node_model) -> AppRunPoint:
    point = node_model.cpu.operating_point(setting, mode)
    profile = app.roofline.at(point.effective_ghz)
    power = node_model.busy_power_w(
        point, profile.compute_activity, profile.memory_activity
    )
    return AppRunPoint(
        app_name=app.name,
        point=point,
        time_ratio=profile.time_ratio,
        node_power_w=float(power),
    )


@pytest.fixture(scope="session")
def per_app_run():
    """Reference for ``evaluate_apps``: one app at one operating point, via
    its roofline profile and one scalar ``busy_power_w`` call."""
    return _per_app_run


def _small_campaign_config(
    duration_days: float,
    schedule: InterventionSchedule,
    seed: int,
) -> CampaignConfig:
    inv = scaled_inventory(0.05)
    return CampaignConfig(
        duration_s=duration_days * SECONDS_PER_DAY,
        schedule=schedule,
        inventory=inv,
        node_model=build_node_model(),
        mix=archer2_mix(),
        stream=JobStreamConfig(n_facility_nodes=inv.n_nodes, max_job_nodes=128),
        seed=seed,
        warmup_s=5 * SECONDS_PER_DAY,
    )


@pytest.fixture(scope="session")
def baseline_campaign():
    """A 20-day baseline campaign on the small facility (session-cached)."""
    schedule = InterventionSchedule(OperatingState())
    return run_campaign(_small_campaign_config(20, schedule, seed=1))


@pytest.fixture(scope="session")
def intervention_campaign():
    """A 30-day campaign with both interventions on the small facility."""
    initial = OperatingState(
        mode=DeterminismMode.POWER,
        policy=FrequencyPolicy(curated_apps=paper_curated_apps()),
    )
    schedule = InterventionSchedule(
        initial,
        [
            BiosDeterminismChange(time_s=10 * SECONDS_PER_DAY),
            DefaultFrequencyChange(time_s=20 * SECONDS_PER_DAY),
        ],
    )
    return run_campaign(_small_campaign_config(30, schedule, seed=2))
