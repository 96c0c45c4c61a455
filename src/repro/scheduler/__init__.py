"""Scheduler substrate: discrete-event engine, node pool, EASY backfill."""

from .accounting import (
    FaultAccounting,
    PowerTrace,
    SimulationResult,
    TraceBuilder,
    bounded_stretches,
    trace_emissions_tco2e,
)
from .backfill import (
    BackfillScheduler,
    ExecutionEnvironment,
    ResolvedExecution,
    StaticEnvironment,
    validate_jobs,
)
from .demand_response import DemandResponseEnvironment, response_latency_estimate
from .engine import Event, EventKind, EventQueue
from .frequency_policy import FrequencyPolicy
from .partition import NodePool
from .shapes import JobShape

# Imported last: malleable pulls in repro.grid, which must not re-enter a
# half-initialised scheduler package.
from .malleable import (
    CarbonAwareEnvironment,
    ElasticRecord,
    MalleableScheduler,
    MalleableSimulation,
    MalleableSimulationResult,
    RigidMalleableComparison,
    compare_rigid_malleable,
    comparison_trace,
)

__all__ = [
    "Event",
    "EventKind",
    "EventQueue",
    "NodePool",
    "FrequencyPolicy",
    "ResolvedExecution",
    "ExecutionEnvironment",
    "StaticEnvironment",
    "BackfillScheduler",
    "DemandResponseEnvironment",
    "response_latency_estimate",
    "FaultAccounting",
    "PowerTrace",
    "TraceBuilder",
    "SimulationResult",
    "trace_emissions_tco2e",
    "bounded_stretches",
    "validate_jobs",
    "JobShape",
    "CarbonAwareEnvironment",
    "ElasticRecord",
    "MalleableScheduler",
    "MalleableSimulation",
    "MalleableSimulationResult",
    "RigidMalleableComparison",
    "compare_rigid_malleable",
    "comparison_trace",
]
