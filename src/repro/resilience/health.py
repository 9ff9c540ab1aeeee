"""Heartbeat-based node health: what the controller actually knows.

The original controller was omniscient — it read
``node.hypervisor.crashed`` and the platform registers directly.  Real
control planes only ever see *last-received telemetry*: a node that
stops heartbeating might be dead, partitioned, or merely slow, and the
controller must decide anyway.  This module is that epistemic layer:

* :class:`Heartbeat` — the node's self-report: scheduling metrics and
  the node-local multi-horizon risk report;
* :class:`NodeView` — the controller's belief about one node, built
  exclusively from received heartbeats.  It is the scheduling surface:
  every filter and weigher reads views (``can_host``/``metrics``/
  ``risk_report``…), never a live node;
* :class:`NodeHealthView` — the fleet belief table with the SUSPECT/
  DOWN ladder: N missed heartbeats make a node SUSPECT (no new
  placements), M make it DOWN (recovery machinery engages).

Controller decisions must go through this module only; ground-truth
node objects are touched exclusively to *actuate* decisions (issue a
migration, a reboot) and to *measure* outcomes (SLA accounting).
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Deque, Dict, List, Optional, Tuple, TYPE_CHECKING

from ..core.exceptions import ConfigurationError

if TYPE_CHECKING:  # import-free at runtime: cloudmgr imports us
    from ..cloudmgr.failure_prediction import HorizonRiskReport
    from ..cloudmgr.node import NodeMetrics
    from ..hypervisor.vm import VirtualMachine


@dataclass(frozen=True)
class Heartbeat:
    """One node's periodic self-report to the controller.

    Everything the control plane is allowed to know about a node is in
    here; a crashed (or partitioned) node simply stops producing them.
    """

    timestamp: float
    node: str
    metrics: "NodeMetrics"
    #: Names of VMs active on the node (for evacuation planning).
    active_vms: Tuple[str, ...]
    #: The node's failure budget, for the SLA reliability filter.
    failure_budget: float = 1e-4
    #: Components currently running an extended operating point — the
    #: SLA reliability filter's "is this node spending margin" signal.
    eop_adopted: int = 0
    #: The node-local failure-risk verdict: probability and confidence
    #: per horizon, per-DRAM-domain hazards.  None when the Predictor
    #: daemon is down (one rung of the degradation ladder).
    horizon_report: Optional["HorizonRiskReport"] = None


def heartbeat_to_dict(heartbeat: Heartbeat) -> Dict[str, object]:
    """Plain-dict form of a heartbeat (all leaves are primitives)."""
    state = asdict(heartbeat)
    state["horizon_report"] = (None if heartbeat.horizon_report is None
                               else heartbeat.horizon_report.as_dict())
    return state


def heartbeat_from_dict(state: Dict[str, object]) -> Heartbeat:
    """Rebuild a heartbeat saved by :func:`heartbeat_to_dict`.

    Unknown keys are ignored, so heartbeats saved by older versions
    (which also carried a scalar ``risk`` verdict and the node's health
    and per-VM samples) still load.  Imports are local: this module is
    imported by ``cloudmgr`` at class definition time, so the concrete
    payload types only resolve lazily.
    """
    from ..cloudmgr.failure_prediction import HorizonRiskReport
    from ..cloudmgr.node import NodeMetrics

    report = state.get("horizon_report")
    return Heartbeat(
        timestamp=float(state["timestamp"]),  # type: ignore[arg-type]
        node=str(state["node"]),
        metrics=NodeMetrics(**state["metrics"]),  # type: ignore[arg-type]
        active_vms=tuple(str(v) for v in state["active_vms"]),  # type: ignore[union-attr]
        failure_budget=float(state["failure_budget"]),  # type: ignore[arg-type]
        eop_adopted=int(state.get("eop_adopted", 0)),  # type: ignore[arg-type]
        horizon_report=(None if report is None
                        else HorizonRiskReport.from_dict(report)),  # type: ignore[arg-type]
    )


class NodeStatus(Enum):
    """The controller's belief about one node."""

    HEALTHY = "healthy"
    SUSPECT = "suspect"          # missed heartbeats; no new placements
    DOWN = "down"                # declared failed; recovery engaged
    QUARANTINED = "quarantined"  # circuit breaker open; hands off


class NodeView:
    """The controller's belief about one node, from heartbeats only.

    The one type the filter/weigh scheduler reads: it answers from the
    last received heartbeat, adjusted by optimistic reservations for
    placements issued since.
    """

    #: Reported (timestamp, reliability) pairs retained for the
    #: windowed reliability query; at the default 60 s heartbeat period
    #: this spans over two hours of reports.
    RELIABILITY_HISTORY = 128

    def __init__(self, name: str) -> None:
        self.name = name
        self.state = NodeStatus.HEALTHY
        self.last: Optional[Heartbeat] = None
        self.missed = 0
        self.last_seen_s: Optional[float] = None
        self._reserved_vcpus = 0
        self._reserved_mb = 0.0
        self._reliability_reports: Deque[Tuple[float, float]] = deque(
            maxlen=self.RELIABILITY_HISTORY)

    # -- belief updates ----------------------------------------------------

    def observe(self, heartbeat: Heartbeat) -> None:
        """Fold in a received heartbeat (clears reservations)."""
        self.last = heartbeat
        self.last_seen_s = heartbeat.timestamp
        self.missed = 0
        self._reserved_vcpus = 0
        self._reserved_mb = 0.0
        self._reliability_reports.append(
            (heartbeat.timestamp, heartbeat.metrics.reliability))

    def reserve(self, vcpus: int, memory_mb: float) -> None:
        """Optimistically debit capacity for a placement just issued."""
        self._reserved_vcpus += vcpus
        self._reserved_mb += memory_mb

    # -- persistence -------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Serializable belief state about this node."""
        return {
            "state": self.state.value,
            "last": None if self.last is None else heartbeat_to_dict(self.last),
            "missed": self.missed,
            "last_seen_s": self.last_seen_s,
            "reserved_vcpus": self._reserved_vcpus,
            "reserved_mb": self._reserved_mb,
            "reliability_reports": [list(pair) for pair
                                    in self._reliability_reports],
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore the belief saved by :meth:`state_dict`."""
        self.state = NodeStatus(state["state"])
        last = state["last"]
        self.last = None if last is None else heartbeat_from_dict(last)  # type: ignore[arg-type]
        self.missed = int(state["missed"])  # type: ignore[arg-type]
        seen = state["last_seen_s"]
        self.last_seen_s = None if seen is None else float(seen)  # type: ignore[arg-type]
        self._reserved_vcpus = int(state["reserved_vcpus"])  # type: ignore[arg-type]
        self._reserved_mb = float(state["reserved_mb"])  # type: ignore[arg-type]
        self._reliability_reports = deque(
            ((float(stamp), float(value)) for stamp, value
             in state.get("reliability_reports", [])),  # type: ignore[union-attr]
            maxlen=self.RELIABILITY_HISTORY)

    # -- the scheduling surface --------------------------------------------

    def free_vcpus(self) -> int:
        """Believed free vCPUs (last report minus reservations)."""
        if self.last is None:
            return 0
        return max(0, self.last.metrics.free_vcpus - self._reserved_vcpus)

    def free_memory_mb(self) -> float:
        """Believed free memory (last report minus reservations)."""
        if self.last is None:
            return 0.0
        return max(0.0, self.last.metrics.free_memory_mb - self._reserved_mb)

    def can_host(self, vm: "VirtualMachine") -> bool:
        """Capacity check against believed state."""
        if self.state is not NodeStatus.HEALTHY or self.last is None:
            return False
        need_mb = vm.guest_os_mb + vm.workload.demand.memory_mb
        return vm.vcpus <= self.free_vcpus() \
            and need_mb <= self.free_memory_mb()

    def metrics(self) -> "NodeMetrics":
        """Last reported scheduling metrics, as reported.

        Its free capacity ignores reservations; read the believed free
        capacity from :meth:`free_vcpus` and :meth:`free_memory_mb`.
        """
        if self.last is None:
            raise ConfigurationError(
                f"no heartbeat ever received from {self.name!r}")
        return self.last.metrics

    def reliability(self, window_s: float = 3600.0) -> float:
        """Worst reliability reported within the last ``window_s``.

        The window is anchored at the newest received heartbeat (a
        belief has no "now" of its own) and the *minimum* report inside
        it is returned — the conservative reading of the ground-truth
        semantics, where every fault inside the window still dents the
        score.  Mirrors ``ComputeNode.reliability(window_s)`` so the
        scheduler windows believed reliability the way the node does.
        """
        if window_s <= 0:
            raise ConfigurationError("reliability window must be positive")
        latest = self.metrics().reliability
        if not self._reliability_reports:
            return latest
        anchor = self._reliability_reports[-1][0]
        since = anchor - window_s
        in_window = [value for stamp, value in self._reliability_reports
                     if stamp >= since]
        return min(in_window) if in_window else latest

    def utilization(self) -> float:
        """Last reported utilization."""
        return self.metrics().utilization

    def frequency_fraction(self) -> float:
        """Last reported mean frequency fraction."""
        return self.metrics().frequency_fraction

    def risk_report(self) -> Optional["HorizonRiskReport"]:
        """Last reported multi-horizon risk report, if any."""
        return self.last.horizon_report if self.last is not None else None

    def describe(self) -> str:
        """One-line belief summary."""
        seen = (f"last seen t={self.last_seen_s:.0f}s"
                if self.last_seen_s is not None else "never seen")
        return (f"{self.name}: {self.state.value} "
                f"(missed={self.missed}, {seen})")


class NodeHealthView:
    """The controller's belief table over the whole rack."""

    def __init__(self, suspect_after_missed: int = 2,
                 down_after_missed: int = 3) -> None:
        if suspect_after_missed < 1:
            raise ConfigurationError("suspect_after_missed must be >= 1")
        if down_after_missed < suspect_after_missed:
            raise ConfigurationError(
                "down_after_missed must be >= suspect_after_missed")
        self.suspect_after_missed = suspect_after_missed
        self.down_after_missed = down_after_missed
        self._views: Dict[str, NodeView] = {}

    def register(self, name: str) -> NodeView:
        """Add a node to the belief table (starts HEALTHY, no data)."""
        if name in self._views:
            raise ConfigurationError(f"node {name!r} already registered")
        view = NodeView(name)
        self._views[name] = view
        return view

    def view(self, name: str) -> NodeView:
        """The belief about one node."""
        if name not in self._views:
            raise KeyError(f"node {name!r} is not registered")
        return self._views[name]

    def views(self) -> List[NodeView]:
        """All node beliefs, name-sorted (deterministic iteration)."""
        return [self._views[name] for name in sorted(self._views)]

    def schedulable_views(self) -> List[NodeView]:
        """Nodes believed able to take new work."""
        return [v for v in self.views()
                if v.state is NodeStatus.HEALTHY and v.last is not None]

    # -- persistence -------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Serializable belief table (views in registration order)."""
        return {"views": {name: view.state_dict()
                          for name, view in self._views.items()}}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore beliefs onto a table with the same registered nodes."""
        saved = state["views"]
        for name, view_state in saved.items():  # type: ignore[union-attr]
            self.view(str(name)).load_state_dict(view_state)

    # -- the suspicion ladder ---------------------------------------------

    def observe(self, heartbeat: Heartbeat) -> NodeStatus:
        """Ingest a heartbeat; returns the *previous* belief state.

        A quarantined node stays quarantined until the breaker releases
        it — a heartbeat alone is not parole.
        """
        view = self.view(heartbeat.node)
        previous = view.state
        view.observe(heartbeat)
        if view.state is not NodeStatus.QUARANTINED:
            view.state = NodeStatus.HEALTHY
        return previous

    def note_missed(self, name: str) -> NodeStatus:
        """Count one missed heartbeat; returns the new belief state."""
        view = self.view(name)
        view.missed += 1
        if view.state is NodeStatus.QUARANTINED:
            return view.state
        if view.missed >= self.down_after_missed:
            view.state = NodeStatus.DOWN
        elif view.missed >= self.suspect_after_missed:
            view.state = NodeStatus.SUSPECT
        return view.state

    def quarantine(self, name: str) -> None:
        """Circuit breaker opened: hands off this node."""
        self.view(name).state = NodeStatus.QUARANTINED

    def release(self, name: str) -> None:
        """Breaker probe admitted: node returns to DOWN (a heartbeat
        must confirm recovery before it is believed HEALTHY again)."""
        view = self.view(name)
        if view.state is NodeStatus.QUARANTINED:
            view.state = NodeStatus.DOWN

    def describe(self) -> str:
        """Multi-line belief summary of the rack."""
        return "\n".join(v.describe() for v in self.views())
