"""Chaos engineering and graceful degradation for the control plane.

The paper's resilience claim is only credible if the *control path
itself* is allowed to fail: this package provides the seeded
:class:`ChaosEngine` that injects control-plane faults (daemon stalls,
telemetry loss and corruption, heartbeat partitions, mid-flight
migration aborts, crash loops, stuck recoveries), the heartbeat-based
:class:`NodeHealthView` the controller acts on instead of ground truth,
the :class:`RetryPolicy`/:class:`CircuitBreaker` degradation primitives,
and the policies A/B behind ``repro chaos`` and
``benchmarks/bench_chaos_resilience.py``.
"""

from .campaign import CampaignComparison, CampaignResult, run_chaos_ab
from .chaos import ChaosEngine, FaultKind, FaultPlan, FaultSpec
from .health import Heartbeat, NodeHealthView, NodeStatus, NodeView
from .policies import (
    BreakerState,
    CircuitBreaker,
    DegradationConfig,
    RetryPolicy,
)

__all__ = [
    "CampaignComparison", "CampaignResult", "run_chaos_ab",
    "ChaosEngine", "FaultKind", "FaultPlan", "FaultSpec",
    "Heartbeat", "NodeHealthView", "NodeStatus", "NodeView",
    "BreakerState", "CircuitBreaker", "DegradationConfig", "RetryPolicy",
]
