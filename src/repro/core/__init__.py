"""Core abstractions: operating points, events, simulation time, and the
cross-layer coordinator assembling the full UniServer node."""

import importlib
from typing import TYPE_CHECKING

from .clock import SimClock
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
from .runtime import (
    HistogramStats,
    MetricsRegistry,
    NodeRuntime,
    spawn_runtimes,
)

if TYPE_CHECKING:
    from .coordinator import EnergyReport, UniServerNode
    from .interfaces import (
        AccessDenied,
        GuestTelemetry,
        MonitoringInterface,
        NodeStatus,
        Scope,
    )
    from .lifetime import (
        EpochReport,
        LifetimeResult,
        LifetimeSimulator,
        MONTH_S,
    )

#: Names imported on first use: their modules load the hardware stack
#: and scipy, which ``import repro.fleet`` never needs.
_LAZY = {
    "EnergyReport": ".coordinator", "UniServerNode": ".coordinator",
    "AccessDenied": ".interfaces", "GuestTelemetry": ".interfaces",
    "MonitoringInterface": ".interfaces", "NodeStatus": ".interfaces",
    "Scope": ".interfaces",
    "EpochReport": ".lifetime", "LifetimeResult": ".lifetime",
    "LifetimeSimulator": ".lifetime", "MONTH_S": ".lifetime",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_LAZY[name], __name__), name)
    globals()[name] = value
    return value


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
