"""Unit conversion tests."""

import pytest

from repro import units
from repro.errors import UnitError


class TestEnergyConversions:
    def test_j_to_kwh_roundtrip(self):
        assert units.j_to_kwh(123.4 * units.JOULES_PER_KWH) == pytest.approx(123.4)

    def test_one_kw_for_one_hour_is_one_kwh(self):
        assert units.j_to_kwh(1000.0 * units.SECONDS_PER_HOUR) == pytest.approx(1.0)


class TestTimeConversions:
    def test_month_is_mean_gregorian(self):
        assert 12.0 * units.SECONDS_PER_MONTH == pytest.approx(units.SECONDS_PER_YEAR)

    def test_year_length(self):
        assert units.SECONDS_PER_YEAR == pytest.approx(365.2425 * 86_400.0)


class TestEmissionsConversions:
    def test_tonnes(self):
        assert units.g_to_tonnes(2e6) == 2.0

    def test_emissions_g_formula(self):
        # 1 kWh at 100 g/kWh -> 100 g.
        assert units.emissions_g(units.JOULES_PER_KWH, 100.0) == pytest.approx(100.0)


class TestValidation:
    def test_nonnegative_accepts_zero(self):
        assert units.ensure_nonnegative(0.0, "x") == 0.0

    def test_nonnegative_rejects_negative(self):
        with pytest.raises(UnitError, match="x"):
            units.ensure_nonnegative(-1.0, "x")

    def test_nonnegative_rejects_nan(self):
        with pytest.raises(UnitError):
            units.ensure_nonnegative(float("nan"), "x")

    def test_positive_rejects_zero(self):
        with pytest.raises(UnitError):
            units.ensure_positive(0.0, "x")

    def test_positive_rejects_inf(self):
        with pytest.raises(UnitError):
            units.ensure_positive(float("inf"), "x")

    def test_fraction_bounds(self):
        assert units.ensure_fraction(0.0, "f") == 0.0
        assert units.ensure_fraction(1.0, "f") == 1.0
        with pytest.raises(UnitError):
            units.ensure_fraction(1.0001, "f")
        with pytest.raises(UnitError):
            units.ensure_fraction(-0.0001, "f")
