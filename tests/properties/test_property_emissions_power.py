"""Property-based tests: emissions accounting and node power physics."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.emissions import EmbodiedProfile, EmissionsModel
from repro.node.calibration import build_node_model
from repro.node.determinism import DeterminismMode
from repro.node.pstates import FrequencySetting

power_kw = st.floats(min_value=10.0, max_value=50_000.0, allow_nan=False)
embodied = st.floats(min_value=100.0, max_value=1e6, allow_nan=False)
lifetime = st.floats(min_value=1.0, max_value=20.0, allow_nan=False)
ci = st.floats(min_value=0.0, max_value=2000.0, allow_nan=False)

_MODEL = build_node_model()


def _busy_power_at(setting, mode, compute_activity, memory_activity):
    point = _MODEL.cpu.operating_point(setting, mode)
    return _MODEL.busy_power_w(point, compute_activity, memory_activity)


class TestEmissionsProperties:
    @given(power_kw, embodied, lifetime, ci)
    @settings(max_examples=100)
    def test_shares_partition(self, p, e, life, intensity):
        model = EmissionsModel(
            embodied=EmbodiedProfile(total_tco2e=e, lifetime_years=life),
            mean_power_kw=p,
        )
        breakdown = model.annual_breakdown(intensity)
        assert 0.0 <= breakdown.scope2_share <= 1.0
        assert breakdown.total_tco2e >= breakdown.scope3_tco2e

    @given(power_kw, embodied, lifetime)
    @settings(max_examples=100)
    def test_crossover_balances(self, p, e, life):
        model = EmissionsModel(
            embodied=EmbodiedProfile(total_tco2e=e, lifetime_years=life),
            mean_power_kw=p,
        )
        crossover = model.crossover_ci_g_per_kwh()
        breakdown = model.annual_breakdown(crossover)
        assert abs(breakdown.scope2_share - 0.5) < 1e-9

    @given(power_kw, embodied, lifetime, ci, ci)
    @settings(max_examples=100)
    def test_scope2_monotone_in_ci(self, p, e, life, c1, c2):
        model = EmissionsModel(
            embodied=EmbodiedProfile(total_tco2e=e, lifetime_years=life),
            mean_power_kw=p,
        )
        lo, hi = min(c1, c2), max(c1, c2)
        assert model.scope2_tco2e_per_year(lo) <= model.scope2_tco2e_per_year(hi)

    @given(power_kw, embodied, lifetime)
    @settings(max_examples=100)
    def test_lifetime_breakdown_scales_annual(self, p, e, life):
        model = EmissionsModel(
            embodied=EmbodiedProfile(total_tco2e=e, lifetime_years=life),
            mean_power_kw=p,
        )
        annual = model.annual_breakdown(100.0)
        lifetime_bd = model.lifetime_breakdown(100.0)
        assert lifetime_bd.scope2_tco2e == annual.scope2_tco2e * life or abs(
            lifetime_bd.scope2_tco2e - annual.scope2_tco2e * life
        ) < 1e-6 * lifetime_bd.scope2_tco2e


activity_pairs = st.tuples(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
).filter(lambda pair: pair[0] + pair[1] <= 1.0)


class TestNodePowerProperties:
    @given(activity_pairs)
    @settings(max_examples=100)
    def test_power_at_least_idle(self, activities):
        a_c, a_m = activities
        for setting in FrequencySetting:
            for mode in DeterminismMode:
                power = _busy_power_at(setting, mode, a_c, a_m)
                assert power >= _MODEL.idle_power_w - 1e-9

    @given(activity_pairs)
    @settings(max_examples=100)
    def test_performance_determinism_never_draws_more(self, activities):
        a_c, a_m = activities
        for setting in FrequencySetting:
            power = _busy_power_at(setting, DeterminismMode.POWER, a_c, a_m)
            perf = _busy_power_at(
                setting, DeterminismMode.PERFORMANCE, a_c, a_m
            )
            assert perf <= power + 1e-9

    @given(activity_pairs)
    @settings(max_examples=100)
    def test_frequency_monotone(self, activities):
        a_c, a_m = activities
        p15 = _busy_power_at(FrequencySetting.GHZ_1_5, DeterminismMode.POWER, a_c, a_m)
        p20 = _busy_power_at(FrequencySetting.GHZ_2_0, DeterminismMode.POWER, a_c, a_m)
        p28 = _busy_power_at(
            FrequencySetting.GHZ_2_25_TURBO, DeterminismMode.POWER, a_c, a_m
        )
        assert p15 <= p20 + 1e-9
        assert p20 <= p28 + 1e-9

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=100)
    def test_compute_activity_dominates_memory(self, x):
        """Swapping memory activity for compute activity cannot reduce power."""
        within = min(x, 1.0)
        compute_heavy = _busy_power_at(
            FrequencySetting.GHZ_2_25_TURBO, DeterminismMode.POWER, within, 0.0
        )
        memory_heavy = _busy_power_at(
            FrequencySetting.GHZ_2_25_TURBO, DeterminismMode.POWER, 0.0, within
        )
        assert compute_heavy >= memory_heavy - 1e-9
