"""Public-API contract: everything advertised in ``__all__`` must resolve."""

import importlib

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.facility",
    "repro.node",
    "repro.workload",
    "repro.scheduler",
    "repro.telemetry",
    "repro.grid",
    "repro.core",
    "repro.analysis",
    "repro.live",
    "repro.experiments",
    "repro.api",
    "repro.engine",
    "repro.engine.cli",
    "repro.lint",
    "repro.service",
]


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        assert hasattr(module, "__all__"), f"{package} has no __all__"
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.{name} advertised but missing"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_unique(self, package):
        module = importlib.import_module(package)
        assert len(module.__all__) == len(set(module.__all__))

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    def test_top_level_convenience_path(self):
        """The README quickstart names must live at top level."""
        for name in (
            "archer2_inventory",
            "run_campaign",
            "CampaignConfig",
            "build_node_model",
            "archer2_mix",
            "classify_ci",
            "DecisionEngine",
            "FacilitySession",
            "SweepSpec",
            "run_sweep",
        ):
            assert hasattr(repro, name), name

    def test_facade_covers_quickstart_without_deep_imports(self):
        """`from repro.api import FacilitySession` answers §2–§5 end-to-end."""
        from repro.api import FacilitySession

        session = FacilitySession(ci_g_per_kwh=190.0)
        emissions = session.emissions()
        assert emissions["total_tco2e"] > 0
        assert session.classify_regime().value == "scope2-dominated"
        assert session.advise().config.label() == "2.0GHz / performance-determinism"
        result = session.sweep(utilisations=(0.9,), node_counts=(1000,))
        assert len(result) > 0
        assert "SWEEP-" in result.to_table()

    def test_docstrings_on_public_callables(self):
        """Every advertised public object carries a docstring."""
        for package in PACKAGES:
            module = importlib.import_module(package)
            for name in module.__all__:
                obj = getattr(module, name)
                if callable(obj) and not isinstance(obj, type(repro)):
                    assert obj.__doc__, f"{package}.{name} lacks a docstring"
