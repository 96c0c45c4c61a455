"""Whole-life cost and emissions: the paper's §1 economic claim, quantified.

"Historically, the cost of large scale HPC systems was dominated by the
capital cost with the operational electricity costs a small component. This
is no longer true, with lifetime electricity costs now matching or even
exceeding the capital costs" (§1). This module models the whole-life
position of a facility — capital, electricity, and both emissions scopes —
so that claim, and the value of the §4 interventions, can be computed
rather than asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..units import SECONDS_PER_YEAR, ensure_nonnegative, ensure_positive
from .emissions import EmbodiedProfile, EmissionsModel

__all__ = ["LifetimeCostModel", "LifetimePosition"]


@dataclass(frozen=True)
class LifetimePosition:
    """Whole-life totals for one operating posture."""

    capital_gbp: float
    electricity_gbp: float
    scope2_tco2e: float
    scope3_tco2e: float

    @property
    def total_cost_gbp(self) -> float:
        """Capital plus lifetime electricity."""
        return self.capital_gbp + self.electricity_gbp

    @property
    def electricity_share(self) -> float:
        """Electricity as a fraction of whole-life cost — the §1 claim is
        that this now reaches or exceeds 0.5."""
        total = self.total_cost_gbp
        return self.electricity_gbp / total if total else 0.0


@dataclass(frozen=True)
class LifetimeCostModel:
    """Whole-life model of a facility investment.

    Defaults describe an ARCHER2-class procurement: ~£80M capital, 6-year
    service life, ~10 ktCO₂e embodied.
    """

    capital_gbp: float = 80e6
    lifetime_years: float = 6.0
    embodied_tco2e: float = 10_000.0
    overhead_factor: float = 1.1  # facility power / compute-cabinet power

    def __post_init__(self) -> None:
        ensure_positive(self.capital_gbp, "capital_gbp")
        ensure_positive(self.lifetime_years, "lifetime_years")
        ensure_positive(self.embodied_tco2e, "embodied_tco2e")
        if self.overhead_factor < 1.0:
            raise ValueError("overhead_factor must be >= 1")

    def position(
        self,
        mean_cabinet_power_kw: float,
        electricity_gbp_per_kwh: float,
        ci_g_per_kwh: float,
    ) -> LifetimePosition:
        """Whole-life totals at an operating point and market conditions."""
        ensure_positive(mean_cabinet_power_kw, "mean_cabinet_power_kw")
        ensure_nonnegative(electricity_gbp_per_kwh, "electricity_gbp_per_kwh")
        ensure_nonnegative(ci_g_per_kwh, "ci_g_per_kwh")
        facility_kw = mean_cabinet_power_kw * self.overhead_factor
        lifetime_kwh = facility_kw * self.lifetime_years * SECONDS_PER_YEAR / 3600.0
        emissions = EmissionsModel(
            embodied=EmbodiedProfile(
                total_tco2e=self.embodied_tco2e, lifetime_years=self.lifetime_years
            ),
            mean_power_kw=facility_kw,
        )
        return LifetimePosition(
            capital_gbp=self.capital_gbp,
            electricity_gbp=lifetime_kwh * electricity_gbp_per_kwh,
            scope2_tco2e=emissions.lifetime_breakdown(ci_g_per_kwh).scope2_tco2e,
            scope3_tco2e=self.embodied_tco2e,
        )

    def intervention_value(
        self,
        baseline_kw: float,
        reduced_kw: float,
        electricity_gbp_per_kwh: float,
        ci_g_per_kwh: float,
    ) -> dict[str, float]:
        """Whole-life worth of a power-draw reduction.

        The paper's 690 kW saving, priced over the remaining service life —
        the business case that made the §4 changes uncontroversial.
        """
        before = self.position(baseline_kw, electricity_gbp_per_kwh, ci_g_per_kwh)
        after = self.position(reduced_kw, electricity_gbp_per_kwh, ci_g_per_kwh)
        return {
            "cost_saving_gbp": before.electricity_gbp - after.electricity_gbp,
            "scope2_saving_tco2e": before.scope2_tco2e - after.scope2_tco2e,
            "electricity_share_before": before.electricity_share,
            "electricity_share_after": after.electricity_share,
        }
