"""Grid substrate: carbon intensity, pricing, demand-response events."""

from .carbon_intensity import (
    SCENARIOS,
    CarbonIntensityModel,
    GridScenario,
    scenario,
)
from .events import GridStressEvent, GridStressGenerator, demand_response_summary
from .forecast import (
    FeedOutage,
    ForecastFeed,
    ForecastIndex,
    ForecastWindow,
    sample_feed_outages,
)
from .pricing import PricingModel, energy_cost_gbp
from .trajectory import (
    DecarbonisationTrajectory,
    lifetime_average_ci,
    regime_crossing_year,
)

__all__ = [
    "CarbonIntensityModel",
    "GridScenario",
    "SCENARIOS",
    "scenario",
    "PricingModel",
    "energy_cost_gbp",
    "GridStressEvent",
    "GridStressGenerator",
    "demand_response_summary",
    "ForecastWindow",
    "ForecastIndex",
    "FeedOutage",
    "ForecastFeed",
    "sample_feed_outages",
    "DecarbonisationTrajectory",
    "lifetime_average_ci",
    "regime_crossing_year",
]
