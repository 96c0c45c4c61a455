"""Elastic job-shape tests."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.scheduler.shapes import JobShape
from repro.workload.applications import full_catalogue
from repro.workload.jobs import Job


def make_job(n_nodes=8, min_nodes=None, max_nodes=None):
    return Job(
        job_id=0,
        app=full_catalogue()["VASP CdTe"],
        n_nodes=n_nodes,
        submit_time_s=0.0,
        reference_runtime_s=3600.0,
        min_nodes=min_nodes,
        max_nodes=max_nodes,
    )


class TestConstruction:
    def test_from_elastic_job(self):
        shape = JobShape.from_job(make_job(8, min_nodes=2, max_nodes=8))
        assert shape.min_nodes == 2
        assert shape.max_nodes == 8
        assert shape.preferred_nodes == 8
        assert shape.is_elastic

    def test_from_rigid_job(self):
        shape = JobShape.from_job(make_job(8))
        assert shape.min_nodes == shape.max_nodes == shape.preferred_nodes == 8
        assert not shape.is_elastic

    def test_inverted_envelope_rejected(self):
        with pytest.raises(ConfigurationError):
            JobShape(
                job_id=1,
                min_nodes=8,
                max_nodes=4,
                preferred_nodes=8,
            )

    def test_preferred_outside_envelope_rejected(self):
        with pytest.raises(ConfigurationError):
            JobShape(
                job_id=1,
                min_nodes=2,
                max_nodes=4,
                preferred_nodes=8,
            )


class TestStretch:
    @pytest.fixture
    def shape(self):
        return JobShape.from_job(make_job(8, min_nodes=2, max_nodes=16))

    def test_unity_at_preferred(self, shape):
        assert shape.stretch(8) == 1.0

    def test_shrinking_stretches_runtime(self, shape):
        assert shape.stretch(2) > shape.stretch(4) > shape.stretch(8)

    def test_matches_scaling_model_ratio(self, shape):
        """The strong-scaling law t(n) = t1 (s + (1 - s)/n + c ln n), s = 0.02, c = 0.01."""
        s, c = 0.02, 0.01

        def t(n):
            return s + (1.0 - s) / n + c * math.log(n)

        assert shape.stretch(2) == pytest.approx(t(2) / t(8), rel=1e-12)

    def test_shrinking_reduces_node_seconds(self, shape):
        # n·t(n) is monotone increasing, so narrow allocations are more
        # node-second efficient — the property the carbon policy exploits.
        def node_seconds_factor(n):
            return n * shape.stretch(n) / shape.preferred_nodes

        assert node_seconds_factor(2) < node_seconds_factor(4) < 1.0
        assert node_seconds_factor(16) > 1.0

    def test_out_of_envelope_allocation_rejected(self, shape):
        with pytest.raises(ConfigurationError):
            shape.stretch(1)
        with pytest.raises(ConfigurationError):
            shape.stretch(32)

    def test_rate_inverse_of_stretched_runtime(self, shape):
        rate = shape.rate_per_s(4, preferred_runtime_s=7200.0)
        assert rate == pytest.approx(1.0 / (7200.0 * shape.stretch(4)), rel=1e-12)

    def test_rate_rejects_nonpositive_runtime(self, shape):
        with pytest.raises(ConfigurationError):
            shape.rate_per_s(4, preferred_runtime_s=0.0)
