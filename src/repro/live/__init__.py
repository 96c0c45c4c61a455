"""Live facility operations: online monitoring of the paper's §2–§5 loop.

Where :mod:`repro.analysis` answers questions about *complete* telemetry
series, this package runs the paper's operational loop continuously over
*arriving* telemetry:

* :mod:`~repro.live.events` — interleaved, time-ordered stream batches;
* :mod:`~repro.live.processors` — windowed statistics rollups;
* :mod:`~repro.live.cusum` — online CUSUM mean-shift detection with drift
  and reset-on-alarm (the streaming counterpart of
  :func:`repro.analysis.changepoint.detect_single`);
* :mod:`~repro.live.regime` — §2 regime tracking with hysteresis/debounce;
* :mod:`~repro.live.advisor` — §4/§5 intervention advice from regime +
  detected power level;
* :mod:`~repro.live.pipeline` — the run loop tying them together;
* :mod:`~repro.live.faults` — seeded chaos injection (dropouts, stalls,
  duplicates, reordering, clock skew, spikes, truncation) for resilience
  testing;
* :mod:`~repro.live.supervisor` / :mod:`~repro.live.checkpoint` — the
  one pipeline, fault-tolerant: dead-lettering, crash isolation with
  backoff and quarantine, staleness watchdogs with degraded-mode advice,
  and bit-identical checkpoint/resume;
* :mod:`~repro.live.replay` / :mod:`~repro.live.monitor` — Figure 1–3
  style scenarios and the ``repro monitor`` CLI.
"""

from .advisor import PAPER_ACTIONS, ActionSpec, AdvisorConfig, InterventionAdvisor
from .alerts import (
    AdviceAlert,
    Alert,
    AlertSink,
    ChangePointAlert,
    DataGapAlert,
    DeadLetterAlert,
    DegradedModeAlert,
    ProcessorCrashAlert,
    Recommendation,
    RegimeChangeAlert,
    RollupAlert,
    TextAlertSink,
    format_alert,
)
from .checkpoint import (
    CHECKPOINT_VERSION,
    LoadedCheckpoint,
    alert_from_dict,
    alert_to_dict,
    checkpoint_slots,
    load_checkpoint,
    read_checkpoint,
    save_checkpoint,
)
from .cusum import CusumConfig, OnlineCusum, Segment
from .events import (
    CI_STREAM,
    POWER_STREAM,
    StreamBatch,
    merge_batches,
    series_batches,
)
from .faults import (
    FAULT_NAMES,
    ClockSkewInjector,
    DropoutInjector,
    DuplicateInjector,
    FaultInjector,
    ReorderInjector,
    SpikeInjector,
    StallInjector,
    TruncateInjector,
    apply_faults,
    chaos_chain,
)
from .monitor import MonitorOutcome, build_monitor, monitor_main, run_monitor
from .pipeline import MonitorPipeline, MonitorReport, PipelineMetrics
from .processors import Processor, WindowedRollup
from .regime import RegimeTracker, RegimeTrackerConfig
from .replay import (
    SCENARIO_BUILDERS,
    MonitorScenario,
    build_scenario,
    combined_scenario,
    figure2_scenario,
    figure3_scenario,
    piecewise_power_scenario,
    regime_sweep_scenario,
    scenario_sources,
)
from .supervisor import DeadLetterStore, SupervisedPipeline, SupervisorConfig

__all__ = [
    # events
    "POWER_STREAM",
    "CI_STREAM",
    "StreamBatch",
    "series_batches",
    "merge_batches",
    # alerts
    "Alert",
    "RollupAlert",
    "ChangePointAlert",
    "RegimeChangeAlert",
    "Recommendation",
    "AdviceAlert",
    "DataGapAlert",
    "ProcessorCrashAlert",
    "DeadLetterAlert",
    "DegradedModeAlert",
    "AlertSink",
    "TextAlertSink",
    "format_alert",
    # processors
    "Processor",
    "WindowedRollup",
    # cusum
    "CusumConfig",
    "OnlineCusum",
    "Segment",
    # regime
    "RegimeTrackerConfig",
    "RegimeTracker",
    # advisor
    "ActionSpec",
    "PAPER_ACTIONS",
    "AdvisorConfig",
    "InterventionAdvisor",
    # pipeline
    "MonitorPipeline",
    "MonitorReport",
    "PipelineMetrics",
    # faults
    "FaultInjector",
    "DropoutInjector",
    "StallInjector",
    "DuplicateInjector",
    "ReorderInjector",
    "ClockSkewInjector",
    "SpikeInjector",
    "TruncateInjector",
    "FAULT_NAMES",
    "apply_faults",
    "chaos_chain",
    # checkpoint
    "CHECKPOINT_VERSION",
    "LoadedCheckpoint",
    "alert_to_dict",
    "alert_from_dict",
    "checkpoint_slots",
    "save_checkpoint",
    "load_checkpoint",
    "read_checkpoint",
    # supervisor
    "SupervisorConfig",
    "DeadLetterStore",
    "SupervisedPipeline",
    # replay
    "MonitorScenario",
    "piecewise_power_scenario",
    "figure2_scenario",
    "figure3_scenario",
    "combined_scenario",
    "regime_sweep_scenario",
    "SCENARIO_BUILDERS",
    "build_scenario",
    "scenario_sources",
    # monitor
    "MonitorOutcome",
    "build_monitor",
    "run_monitor",
    "monitor_main",
]
