"""Core abstractions: operating points, events, simulation time, and the
cross-layer coordinator assembling the full UniServer node."""

from .clock import SimClock
from .coordinator import EnergyReport, UniServerNode
from .eop import (
    CharacterizedPoint,
    EOPTable,
    GuardBandBreakdown,
    NOMINAL_REFRESH_INTERVAL_S,
    OperatingPoint,
    dvfs_ladder,
    refresh_ladder,
    voltage_sweep,
)
from .events import (
    AnomalyEvent,
    ConfigChangeEvent,
    CorrectableErrorEvent,
    CrashEvent,
    Event,
    EventBus,
    MarginUpdateEvent,
    SensorEvent,
    UncorrectableErrorEvent,
)
from .exceptions import (
    CheckpointError,
    ConfigurationError,
    HardwareFault,
    IsolationError,
    MachineCrash,
    MigrationError,
    OperatingPointError,
    PredictionError,
    SchedulingError,
    StressTestError,
    UniServerError,
)
from .lifetime import (
    EpochReport,
    LifetimeResult,
    LifetimeSimulator,
    MONTH_S,
)

from .interfaces import (
    AccessDenied,
    GuestTelemetry,
    MonitoringInterface,
    NodeStatus,
    Scope,
)

from .runtime import (
    HistogramStats,
    MetricsRegistry,
    NodeRuntime,
    spawn_runtimes,
)

__all__ = [
    "AccessDenied", "GuestTelemetry", "MonitoringInterface", "NodeStatus", "Scope",
    "EpochReport", "LifetimeResult", "LifetimeSimulator", "MONTH_S",
    "SimClock",
    "EnergyReport", "UniServerNode",
    "CharacterizedPoint", "EOPTable", "GuardBandBreakdown",
    "NOMINAL_REFRESH_INTERVAL_S", "OperatingPoint", "dvfs_ladder",
    "refresh_ladder", "voltage_sweep",
    "HistogramStats", "MetricsRegistry", "NodeRuntime", "spawn_runtimes",
    "AnomalyEvent", "ConfigChangeEvent", "CorrectableErrorEvent",
    "CrashEvent", "Event", "EventBus",
    "MarginUpdateEvent", "SensorEvent", "UncorrectableErrorEvent",
    "CheckpointError", "ConfigurationError", "HardwareFault",
    "IsolationError", "MachineCrash", "MigrationError",
    "OperatingPointError", "PredictionError", "SchedulingError",
    "StressTestError", "UniServerError",
]
