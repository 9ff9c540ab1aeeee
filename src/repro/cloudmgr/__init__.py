"""OpenStack-like resource management layer (paper Section 4.B).

Rack-level orchestration with UniServer's additions: a node reliability
metric next to availability/utilization/energy, node-local health
telemetry, reliability-aware filter/weigh scheduling, integrated node
failure prediction and proactive live migration.
"""

from .cloud import CloudController, ControllerStats
from .failure_prediction import (
    DomainRisk,
    HARVEST_FEATURES,
    HORIZONS,
    HorizonRisk,
    HorizonRiskReport,
    MultiHorizonPredictor,
    NODE_FEATURES,
    ThresholdFailurePredictor,
    node_features,
    predictor_from_state,
    predictor_state,
    sample_features,
    score_harvest,
    train_from_observations,
)
from .migration import MigrationCostModel, MigrationManager, MigrationRecord
from .node import ComputeNode, NodeMetrics, build_rack
from .prediction_ab import run_prediction_ab, storm_plan
from .scheduler import (
    DEFAULT_FILTERS,
    DEFAULT_WEIGHERS,
    FilterScheduler,
    Placement,
    RISK_AWARE_WEIGHERS,
    RoundRobinScheduler,
    WeigherSpec,
    balance_weigher,
    capacity_filter,
    energy_weigher,
    reliability_weigher,
    risk_aware_weigher,
    sla_performance_filter,
    sla_reliability_filter,
)
from .sla import (
    BRONZE,
    DEFAULT_TIERS,
    GOLD,
    SILVER,
    SLA,
    SLARecord,
    SLATracker,
)
from .telemetry import NodeSample, TelemetryService

from .simulation import (
    RackExperiment,
    SimulationStats,
    TIER_MAP,
    TraceDrivenSimulation,
    run_rack_experiment,
)

__all__ = [
    "RackExperiment", "SimulationStats", "TIER_MAP",
    "TraceDrivenSimulation", "run_rack_experiment",
    "CloudController", "ControllerStats",
    "DomainRisk", "HARVEST_FEATURES", "HORIZONS", "HorizonRisk",
    "HorizonRiskReport", "MultiHorizonPredictor", "NODE_FEATURES",
    "ThresholdFailurePredictor", "node_features", "predictor_from_state",
    "predictor_state", "sample_features", "score_harvest",
    "train_from_observations",
    "MigrationCostModel", "MigrationManager", "MigrationRecord",
    "ComputeNode", "NodeMetrics", "build_rack", "run_prediction_ab",
    "storm_plan",
    "DEFAULT_FILTERS", "DEFAULT_WEIGHERS", "FilterScheduler", "Placement",
    "RISK_AWARE_WEIGHERS", "RoundRobinScheduler", "WeigherSpec",
    "balance_weigher", "capacity_filter", "energy_weigher",
    "reliability_weigher", "risk_aware_weigher",
    "sla_performance_filter", "sla_reliability_filter",
    "BRONZE", "DEFAULT_TIERS", "GOLD", "SILVER", "SLA", "SLARecord",
    "SLATracker",
    "NodeSample", "TelemetryService",
]
