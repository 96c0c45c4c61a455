"""Toolchain (compiler/library) model tests."""

import pytest

from repro.errors import ConfigurationError
from repro.workload.applications import paper_frequency_benchmarks
from repro.workload.toolchain import (
    REFERENCE_TOOLCHAINS,
    Toolchain,
    apply_toolchain,
)


def impact_at_2ghz(app):
    """Performance lost at 2.0 GHz against the reference frequency."""
    return 1.0 - app.roofline.perf_ratio(2.0)


@pytest.fixture(scope="module")
def lammps():
    return paper_frequency_benchmarks()["LAMMPS Ethanol"]


@pytest.fixture(scope="module")
def vasp():
    return paper_frequency_benchmarks()["VASP CdTe"]


class TestToolchain:
    def test_reference_toolchains_valid(self):
        assert "baseline-gnu" in REFERENCE_TOOLCHAINS
        for tc in REFERENCE_TOOLCHAINS.values():
            assert tc.compute_speedup >= 1.0

    def test_extreme_speedup_rejected(self):
        with pytest.raises(ConfigurationError):
            Toolchain(name="magic", compute_speedup=10.0)

    def test_nonpositive_speedup_rejected(self):
        with pytest.raises(Exception):
            Toolchain(name="broken", memory_speedup=0.0)

    def test_label(self):
        label = REFERENCE_TOOLCHAINS["vendor-tuned"].overall_label
        assert "vendor-tuned" in label


class TestApplyToolchain:
    def test_identity_toolchain_is_noop_on_shape(self, lammps):
        same = apply_toolchain(lammps, Toolchain(name="id"))
        assert same.compute_fraction == pytest.approx(lammps.compute_fraction)
        assert same.baseline_runtime_s == pytest.approx(lammps.baseline_runtime_s)

    def test_compute_speedup_reduces_compute_fraction(self, lammps):
        faster = apply_toolchain(
            lammps, Toolchain(name="vec", compute_speedup=1.3)
        )
        assert faster.compute_fraction < lammps.compute_fraction
        assert faster.baseline_runtime_s < lammps.baseline_runtime_s

    def test_memory_speedup_raises_compute_fraction(self, vasp):
        faster = apply_toolchain(
            vasp, Toolchain(name="mem", memory_speedup=1.2)
        )
        assert faster.compute_fraction > vasp.compute_fraction

    def test_paper_ratios_dropped(self, lammps):
        rebuilt = apply_toolchain(lammps, REFERENCE_TOOLCHAINS["vendor-tuned"])
        assert rebuilt.paper_perf_ratio is None
        assert rebuilt.assumed

    def test_runtime_product_of_components(self, lammps):
        """Speeding both components by the same factor keeps the shape but
        shortens the runtime by exactly that factor."""
        both = apply_toolchain(
            lammps, Toolchain(name="both", compute_speedup=1.25, memory_speedup=1.25)
        )
        assert both.compute_fraction == pytest.approx(lammps.compute_fraction)
        assert both.baseline_runtime_s == pytest.approx(
            lammps.baseline_runtime_s / 1.25
        )


class TestFrequencySensitivityShift:
    def test_vectorising_compiler_reduces_sensitivity(self, lammps):
        """The future-work interaction: better vectorisation makes the
        2.0 GHz cap cheaper."""
        rebuilt = apply_toolchain(lammps, REFERENCE_TOOLCHAINS["vector-aggressive"])
        assert impact_at_2ghz(rebuilt) < impact_at_2ghz(lammps)

    def test_memory_optimisation_increases_sensitivity(self, vasp):
        rebuilt = apply_toolchain(vasp, REFERENCE_TOOLCHAINS["memory-optimised"])
        assert impact_at_2ghz(rebuilt) > impact_at_2ghz(vasp)

    def test_can_move_app_across_reset_threshold(self):
        """A borderline app (~11 % impact) drops under the §4.2 threshold
        with an aggressive vectorising toolchain."""
        from repro.workload.applications import AppProfile

        borderline = AppProfile(
            name="borderline",
            research_area="x",
            compute_fraction=0.31,  # ~11 % impact at 2.0 vs 2.8
            typical_nodes=4,
        )
        assert impact_at_2ghz(borderline) > 0.10
        rebuilt = apply_toolchain(
            borderline, REFERENCE_TOOLCHAINS["vector-aggressive"]
        )
        assert impact_at_2ghz(rebuilt) < 0.10
