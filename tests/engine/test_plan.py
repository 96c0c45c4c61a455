"""SweepSpec: canonical serialisation, hashing, grid semantics, validation."""

import dataclasses
import pickle

import pytest

from repro.engine.cache import LRUCache, SweepStore
from repro.engine.plan import CIScenario, SweepSpec, default_ci_scenarios
from repro.engine.runner import run_sweep
from repro.errors import ConfigurationError, HpcemError
from repro.node.determinism import DeterminismMode
from repro.node.pstates import FrequencySetting


def small_spec(**overrides):
    fields = dict(
        frequencies=(FrequencySetting.GHZ_2_0, FrequencySetting.GHZ_2_25_TURBO),
        bios_modes=(DeterminismMode.POWER,),
        ci_scenarios=(CIScenario.flat(25.0), CIScenario.decarbonising(190.0, 0.07)),
        utilisations=(0.5, 0.9),
        node_counts=(1000,),
        lifetimes_years=(6.0,),
    )
    fields.update(overrides)
    return SweepSpec(**fields)


class TestCIScenario:
    def test_flat_has_zero_rate_and_auto_name(self):
        ci = CIScenario.flat(190.0)
        assert ci.annual_reduction == 0.0
        assert ci.name == "flat-190"

    def test_trajectory_round_trips_values(self):
        ci = CIScenario.decarbonising(190.0, 0.07, floor_ci_g_per_kwh=20.0)
        traj = ci.trajectory()
        assert traj.ci_at(0.0) == pytest.approx(190.0)
        assert traj.ci_at(1.0) == pytest.approx(190.0 * 0.93)

    def test_name_rejects_separator_characters(self):
        with pytest.raises(ConfigurationError):
            CIScenario.flat(25.0, name="bad,name")

    def test_canonical_round_trip(self):
        ci = CIScenario.decarbonising(190.0, 0.07)
        assert CIScenario.from_canonical(ci.to_canonical()) == ci


class TestGridSemantics:
    def test_cartesian_counts_product(self):
        assert small_spec().n_scenarios == 2 * 1 * 2 * 2 * 1 * 1

    def test_zip_counts_longest_axis(self):
        spec = small_spec(
            combine="zip",
            frequencies=(FrequencySetting.GHZ_2_0,),
            ci_scenarios=(CIScenario.flat(25.0),),
        )
        assert spec.n_scenarios == 2

    def test_zip_rejects_mismatched_axis_lengths(self):
        with pytest.raises(ConfigurationError):
            small_spec(combine="zip", node_counts=(1000, 2000, 3000))

    def test_scenarios_match_scenario_by_index(self):
        spec = small_spec()
        listed = list(spec.scenarios())
        assert len(listed) == spec.n_scenarios
        for i, scenario in enumerate(listed):
            assert spec.scenario(i) == scenario

    def test_axis_index_arrays_match_scenarios(self):
        spec = small_spec()
        i_f, i_m, i_c, i_u, i_n, i_l = spec.axis_index_arrays(0, spec.n_scenarios)
        for i, scenario in enumerate(spec.scenarios()):
            assert spec.frequencies[i_f[i]] == scenario.frequency
            assert spec.ci_scenarios[i_c[i]] == scenario.ci
            assert spec.utilisations[i_u[i]] == scenario.utilisation


class TestHashing:
    def test_hash_is_stable_across_instances(self):
        assert small_spec().spec_hash == small_spec().spec_hash

    def test_json_round_trip_preserves_hash(self):
        spec = small_spec()
        clone = SweepSpec.from_json(spec.canonical_json())
        assert clone == spec
        assert clone.spec_hash == spec.spec_hash

    @pytest.mark.parametrize(
        "overrides",
        [
            {"frequencies": (FrequencySetting.GHZ_1_5,)},
            {"bios_modes": (DeterminismMode.PERFORMANCE,)},
            {"ci_scenarios": (CIScenario.flat(26.0),)},
            {"utilisations": (0.75,)},
            {"node_counts": (2048,)},
            {"lifetimes_years": (8.0,)},
            {"combine": "zip", "utilisations": (0.5,)},
            {"embodied_per_node_tco2e": 2.0},
            {"embodied_overhead_tco2e": 0.0},
            {"compute_activity": 0.2},
            {"memory_activity": 0.5},
            {"app_name": "VASP TiO2"},
            {"ci_average_steps": 500},
        ],
    )
    def test_every_field_change_changes_hash(self, overrides):
        assert small_spec().spec_hash != small_spec(**overrides).spec_hash

    def test_hash_is_a_plain_property(self):
        assert type(SweepSpec.__dict__["spec_hash"]) is property

    def test_sweep_serialises_the_spec_at_most_twice(self, tmp_path, monkeypatch):
        """The digest is computed once per spec object: a cold 64-chunk run
        serialises the spec for the hash and for ``spec.json`` only, and a
        warm run of the same object not at all."""
        calls = []
        canonical_json = SweepSpec.canonical_json

        def counting(spec):
            calls.append(spec)
            return canonical_json(spec)

        monkeypatch.setattr(SweepSpec, "canonical_json", counting)
        spec = small_spec(node_counts=tuple(range(1000, 1008)))
        cold = run_sweep(
            spec, chunk_size=1, store=SweepStore(tmp_path), memory_cache=LRUCache()
        )
        assert cold.meta.computed_chunks == 64
        assert len(calls) <= 2
        calls.clear()
        warm = run_sweep(
            spec, chunk_size=1, store=SweepStore(tmp_path), memory_cache=LRUCache()
        )
        assert warm.meta.disk_hits == 64
        assert calls == []

    def test_replace_with_a_changed_field_rehashes(self):
        spec = small_spec()
        before = spec.spec_hash
        changed = dataclasses.replace(spec, utilisations=(0.75,))
        assert changed.spec_hash != before
        assert changed.spec_hash == small_spec(utilisations=(0.75,)).spec_hash
        assert spec.spec_hash == before

    @pytest.mark.parametrize("hashed_before_pickling", [False, True])
    def test_pickled_spec_keeps_its_digest(self, hashed_before_pickling):
        spec = small_spec()
        if hashed_before_pickling:
            assert spec.spec_hash
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.spec_hash == small_spec().spec_hash

    def test_default_spec_fields_all_covered_by_canonical_form(self):
        """New spec fields must not silently escape the cache key."""
        canonical = SweepSpec().to_canonical()
        for field in dataclasses.fields(SweepSpec):
            assert field.name in canonical, f"{field.name} missing from canonical form"


class TestValidation:
    def test_rejects_empty_axis(self):
        with pytest.raises(ConfigurationError):
            small_spec(utilisations=())

    def test_rejects_duplicate_axis_values(self):
        with pytest.raises(ConfigurationError):
            small_spec(node_counts=(1000, 1000))

    def test_rejects_bad_fraction(self):
        with pytest.raises(HpcemError):
            small_spec(utilisations=(1.5,))

    def test_rejects_unknown_combine(self):
        with pytest.raises(ConfigurationError):
            small_spec(combine="outer")

    def test_coerces_string_enums(self):
        spec = small_spec(
            frequencies=("2.0GHz",), bios_modes=("performance-determinism",)
        )
        assert spec.frequencies == (FrequencySetting.GHZ_2_0,)
        assert spec.bios_modes == (DeterminismMode.PERFORMANCE,)

    def test_default_ci_scenarios_cover_all_regimes(self):
        names = [c.name for c in default_ci_scenarios()]
        assert len(names) == len(set(names))
        starts = [c.start_ci_g_per_kwh for c in default_ci_scenarios()]
        assert min(starts) < 30.0 < max(starts)
