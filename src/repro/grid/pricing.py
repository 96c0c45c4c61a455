"""Wholesale electricity price model.

The paper's §1/§3 motivation includes cost: "lifetime electricity costs now
matching or even exceeding the capital costs". Price in a gas-marginal grid
correlates strongly with carbon intensity (both peak when gas/coal set the
marginal unit), so the model derives price from a CI series plus an
independent volatility term — enough structure for the cost-efficiency
benches without pretending to be a market simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..telemetry.series import TimeSeries
from ..units import ensure_nonnegative

__all__ = ["PricingModel", "energy_cost_gbp"]


@dataclass(frozen=True)
class PricingModel:
    """Affine-in-CI price with multiplicative volatility.

    price(t) = base + slope·CI(t), perturbed by lognormal noise. Defaults
    approximate the UK winter-2022 market the paper's initiatives responded
    to: ~£0.10/kWh floor, spiking well above £0.30/kWh when CI is high.
    """

    base_gbp_per_kwh: float = 0.08
    slope_gbp_per_kwh_per_ci: float = 0.0011
    volatility: float = 0.15

    def __post_init__(self) -> None:
        ensure_nonnegative(self.base_gbp_per_kwh, "base_gbp_per_kwh")
        ensure_nonnegative(self.slope_gbp_per_kwh_per_ci, "slope_gbp_per_kwh_per_ci")
        if not 0.0 <= self.volatility < 1.0:
            raise ConfigurationError("volatility must be in [0, 1)")

    def price_from_ci(
        self, ci_series: TimeSeries, rng: np.random.Generator | None = None
    ) -> TimeSeries:
        """Price series aligned with a carbon-intensity series, £/kWh."""
        prices = self.base_gbp_per_kwh + self.slope_gbp_per_kwh_per_ci * ci_series.values
        if rng is not None and self.volatility > 0:
            sigma = np.sqrt(np.log(1.0 + self.volatility**2))
            prices = prices * rng.lognormal(-sigma**2 / 2.0, sigma, size=prices.shape)
        return TimeSeries(ci_series.times_s, prices, "electricity-price")


def energy_cost_gbp(
    power_series_w: TimeSeries, price_series: TimeSeries
) -> float:
    """Integrate power × price over aligned series, in GBP.

    Both series must share timestamps; each sample holds until the next.
    """
    if len(power_series_w) != len(price_series) or not np.array_equal(
        power_series_w.times_s, price_series.times_s
    ):
        raise ConfigurationError("power and price series must share timestamps")
    times = power_series_w.times_s
    if len(times) < 2:
        raise ConfigurationError("need at least two samples to integrate cost")
    durations = np.diff(np.append(times, times[-1] + (times[-1] - times[-2])))
    kwh = np.nan_to_num(power_series_w.values) / 1e3 * durations / 3600.0
    return float(np.dot(kwh, np.nan_to_num(price_series.values)))
