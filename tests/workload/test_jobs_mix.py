"""Job, JobRecord and WorkloadMix tests."""

import pytest

from repro.errors import ConfigurationError
from repro.node.pstates import FrequencySetting
from repro.workload.applications import full_catalogue
from repro.workload.jobs import Job, JobRecord
from repro.workload.mix import WorkloadMix, archer2_mix


@pytest.fixture(scope="module")
def vasp():
    return full_catalogue()["VASP CdTe"]


def weight_of(mix, name):
    """The mix's normalised weight of one application."""
    return dict(zip((app.name for app in mix.apps), mix.weights))[name]


def make_job(vasp, **kwargs):
    defaults = dict(
        job_id=1, app=vasp, n_nodes=8, submit_time_s=0.0, reference_runtime_s=3600.0
    )
    defaults.update(kwargs)
    return Job(**defaults)


class TestJob:
    def test_negative_submit_time_allowed_for_warmup(self, vasp):
        job = make_job(vasp, submit_time_s=-100.0)
        assert job.submit_time_s == -100.0

    def test_zero_nodes_rejected(self, vasp):
        with pytest.raises(ConfigurationError):
            make_job(vasp, n_nodes=0)

    def test_zero_runtime_rejected(self, vasp):
        with pytest.raises(Exception):
            make_job(vasp, reference_runtime_s=0.0)


class TestJobRecord:
    def make_record(self, vasp, **kwargs):
        defaults = dict(
            job=make_job(vasp),
            start_time_s=100.0,
            end_time_s=3700.0,
            setting=FrequencySetting.GHZ_2_25_TURBO,
            effective_ghz=2.8,
            node_power_w=450.0,
        )
        defaults.update(kwargs)
        return JobRecord(**defaults)

    def test_derived_quantities(self, vasp):
        record = self.make_record(vasp)
        assert record.runtime_s == 3600.0
        assert record.wait_s == 100.0
        assert record.node_seconds == 8 * 3600.0
        assert record.node_hours == pytest.approx(8.0)

    def test_end_before_start_rejected(self, vasp):
        with pytest.raises(ConfigurationError):
            self.make_record(vasp, end_time_s=50.0)

    def test_start_before_submit_rejected(self, vasp):
        with pytest.raises(ConfigurationError):
            self.make_record(vasp, start_time_s=-1.0)


class TestWorkloadMix:
    def test_weights_normalised(self):
        apps = tuple(full_catalogue().values())[:3]
        mix = WorkloadMix(apps=apps, weights=(2.0, 2.0, 4.0))
        assert sum(mix.weights) == pytest.approx(1.0)
        assert mix.weights[2] == pytest.approx(0.5)

    def test_default_uniform_weights(self):
        apps = tuple(full_catalogue().values())[:4]
        mix = WorkloadMix(apps=apps)
        assert all(w == pytest.approx(0.25) for w in mix.weights)

    def test_empty_mix_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadMix(apps=())

    def test_weight_length_mismatch_rejected(self):
        apps = tuple(full_catalogue().values())[:3]
        with pytest.raises(ConfigurationError):
            WorkloadMix(apps=apps, weights=(1.0, 1.0))

    def test_weight_lookup(self, mix):
        assert weight_of(mix, "VASP CdTe") > weight_of(mix, "ONETEP hBN-BP-hBN")

    def test_sampling_follows_weights(self, mix, rng):
        names = [mix.sample_app(rng).name for _ in range(4000)]
        vasp_share = names.count("VASP CdTe") / len(names)
        assert vasp_share == pytest.approx(weight_of(mix, "VASP CdTe"), abs=0.03)

    def test_mean_compute_fraction_in_range(self, mix):
        phi = mix.mean_compute_fraction()
        assert 0.15 < phi < 0.45  # a memory-leaning national mix

    def test_reweighted_shifts_balance(self, mix):
        heavier = mix.reweighted({"LAMMPS Ethanol": 5.0})
        assert heavier.mean_compute_fraction() > mix.mean_compute_fraction()
        # Original untouched.
        assert weight_of(mix, "LAMMPS Ethanol") < weight_of(heavier, "LAMMPS Ethanol")

    def test_archer2_mix_names(self):
        mix = archer2_mix()
        names = [app.name for app in mix.apps]
        assert "VASP CdTe" in names
        assert len(names) >= 10
