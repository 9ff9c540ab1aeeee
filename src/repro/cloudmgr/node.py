"""Compute-node abstraction for the resource manager.

A :class:`ComputeNode` **is** a full
:class:`~repro.core.coordinator.UniServerNode` — Predictor and
IsolationManager included — rather than a hand-assembled partial stack.
Rack experiments therefore exercise exactly the same cross-layer code
path as the single-node benches, through the shared
``pre_deploy → deploy`` lifecycle, and every node reports into its
runtime's :class:`~repro.core.runtime.MetricsRegistry`.

The node exposes the metrics OpenStack-style scheduling consumes.  Paper
Section 2: "in UniServer an additional node *reliability* metric is added
to the traditional metrics of interest, which are node availability,
utilization and energy usage."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..core.clock import SimClock, step_count
from ..core.coordinator import ISOLATION_REVIEW_S, UniServerNode
from ..core.exceptions import ConfigurationError, IsolationError
from ..core.runtime import NodeRuntime, spawn_runtimes
from ..eop.policy import EOPPolicy, EOPState
from ..hardware.faults import FaultClass
from ..hypervisor.hypervisor import HypervisorConfig
from ..hypervisor.vm import VirtualMachine
from ..resilience.health import Heartbeat
from .telemetry import NodeSample, TelemetryService


def _predictor_state(predictor):
    """Kind-tagged predictor envelope (lazy import: cyclic module)."""
    from .failure_prediction import predictor_state
    return predictor_state(predictor)


@dataclass(frozen=True)
class NodeMetrics:
    """One scheduling-relevant snapshot of a node."""

    node: str
    availability: float
    utilization: float
    power_w: float
    reliability: float
    free_vcpus: int
    free_memory_mb: float
    frequency_fraction: float

    def describe(self) -> str:
        """Human-readable multi-line summary."""
        return (
            f"{self.node}: avail={self.availability:.4f} "
            f"util={self.utilization:.2f} power={self.power_w:.1f}W "
            f"rel={self.reliability:.3f} free_vcpus={self.free_vcpus}"
        )


class ComputeNode(UniServerNode):
    """A full UniServer node as the cloud layer sees it.

    Runs the :class:`~repro.core.coordinator.UniServerNode` lifecycle
    at construction:

    * ``characterize=True`` runs the pre-deployment StressLog cycle,
      deploys under ``eop_policy`` (adopt-within-budget by default) and
      trains the node Predictor from the stress evidence;
    * ``characterize=False`` (the default, and the old behaviour)
      deploys conservatively at nominal with no offline campaign.

    Either way the node carries the complete stack — HealthLog,
    StressLog, Predictor, Hypervisor, IsolationManager, QoSGuard, EOP
    governor — and :meth:`step` runs governor supervision and periodic
    isolation reviews alongside hypervisor ticks.
    """

    def __init__(self, name: str, clock: Optional[SimClock] = None,
                 hypervisor_config: Optional[HypervisorConfig] = None,
                 seed: int = 0,
                 runtime: Optional[NodeRuntime] = None,
                 characterize: bool = False,
                 eop_policy: Optional[EOPPolicy] = None) -> None:
        if runtime is None:
            runtime = NodeRuntime(name=name, clock=clock, seed=seed)
        # deploy() applies eop_policy: the governor copies its
        # stale-fallback horizon from its constructor-time policy.
        super().__init__(clock=clock, hypervisor_config=hypervisor_config,
                         runtime=runtime)
        self.name = name
        self.platform.name = name
        self._uptime_s = 0.0
        self._downtime_s = 0.0
        self._since_review = 0.0
        #: Node-local telemetry ring the on-node risk predictor reads —
        #: the controller only ever sees what the heartbeat ships out.
        self.local_telemetry = TelemetryService()
        #: Node-local failure-risk predictor (lazily a
        #: ThresholdFailurePredictor; the controller may swap it).
        self.risk_predictor = None
        #: Chaos switches: the Predictor daemon is down (heartbeats ship
        #: no risk report) / recovery commands are silently swallowed.
        self.predictor_down = False
        self.recovery_stuck = False
        if eop_policy is None:
            eop_policy = (EOPPolicy.adopt_within_budget() if characterize
                          else EOPPolicy.conservative())
        if characterize:
            self.pre_deploy()
            self.deploy(eop_policy)
            self.train_predictor(include_campaign=False)
        else:
            self.deploy(eop_policy)

    # -- capacity ---------------------------------------------------------

    @property
    def total_vcpus(self) -> int:
        """vCPU capacity over the node's active cores."""
        return len(self.platform.chip.active_cores()) * 2  # 2 vCPUs per core

    def used_vcpus(self) -> int:
        """vCPUs consumed by active VMs."""
        return sum(vm.vcpus for vm in self.hypervisor.active_vms())

    def free_vcpus(self) -> int:
        """vCPUs still available."""
        return max(0, self.total_vcpus - self.used_vcpus())

    def total_memory_mb(self) -> float:
        """Total node memory in MB."""
        return self.platform.memory.capacity_gb * 1024.0

    def used_memory_mb(self) -> float:
        """Memory consumed by current allocations (MB)."""
        return sum(a.size_mb for a in self.hypervisor.placement.allocations)

    def free_memory_mb(self) -> float:
        """Memory still available (MB)."""
        return max(0.0, self.total_memory_mb() - self.used_memory_mb())

    def can_host(self, vm: VirtualMachine) -> bool:
        """Capacity check for one more VM."""
        if self.hypervisor.crashed:
            return False
        need_mb = vm.guest_os_mb + vm.workload.demand.memory_mb
        return vm.vcpus <= self.free_vcpus() and need_mb <= self.free_memory_mb()

    # -- metrics -----------------------------------------------------------

    def availability(self) -> float:
        """Achieved availability (uptime over total time)."""
        total = self._uptime_s + self._downtime_s
        return self._uptime_s / total if total else 1.0

    def utilization(self) -> float:
        """vCPU utilization in [0, 1]."""
        if self.total_vcpus == 0:
            return 1.0
        return min(1.0, self.used_vcpus() / self.total_vcpus)

    def reliability(self, window_s: float = 3600.0) -> float:
        """The UniServer-added node reliability metric in [0, 1].

        Derived from the recent error history: correctable errors dent the
        score mildly, uncorrectable errors and crashes heavily.  Governor
        state folds in on top — a node whose extended points are being
        demoted or quarantined is advertising its own margins as suspect.
        """
        now = self.clock.now
        since = now - window_s
        ledger = self.platform.faults
        ce = ledger.count(fault_class=FaultClass.CORRECTABLE, since=since)
        ue = ledger.count(fault_class=FaultClass.UNCORRECTABLE, since=since)
        sdc = ledger.count(
            fault_class=FaultClass.SILENT_DATA_CORRUPTION, since=since)
        crash = ledger.count(fault_class=FaultClass.CRASH, since=since)
        penalty = 0.002 * ce + 0.05 * ue + 0.05 * sdc + 0.25 * crash
        counts = self.governor.counts()
        penalty += (0.02 * counts[EOPState.DEMOTED.value]
                    + 0.05 * counts[EOPState.QUARANTINED.value])
        return max(0.0, 1.0 - penalty)

    def frequency_fraction(self) -> float:
        """Mean active-core frequency relative to nominal."""
        nominal = self.platform.chip.spec.nominal.frequency_hz
        active = self.platform.chip.active_cores()
        if not active:
            return 0.0
        fractions = [
            self.platform.core_point(c.core_id).frequency_hz / nominal
            for c in active
        ]
        return sum(fractions) / len(fractions)

    def metrics(self) -> NodeMetrics:
        """The scheduling snapshot (also mirrored into the registry)."""
        snapshot = NodeMetrics(
            node=self.name,
            availability=self.availability(),
            utilization=self.utilization(),
            power_w=self.platform.total_power_w(
                activity=0.3 + 0.6 * self.utilization()),
            reliability=self.reliability(),
            free_vcpus=self.free_vcpus(),
            free_memory_mb=self.free_memory_mb(),
            frequency_fraction=self.frequency_fraction(),
        )
        registry = self.runtime.metrics
        registry.set_gauge("cloudmgr.node.availability",
                           snapshot.availability)
        registry.set_gauge("cloudmgr.node.utilization", snapshot.utilization)
        registry.set_gauge("cloudmgr.node.power_w", snapshot.power_w)
        registry.set_gauge("cloudmgr.node.reliability", snapshot.reliability)
        return snapshot

    def metrics_snapshot(self) -> dict:
        """The node's full cross-layer metrics registry dump."""
        return self.runtime.metrics.snapshot()

    # -- the control-plane self-report --------------------------------------

    def _risk_report(self):
        """Node-local horizon risk report (None while Predictor down)."""
        if self.predictor_down:
            self.runtime.metrics.inc("resilience.predictor.unavailable")
            return None
        if self.risk_predictor is None:
            from .failure_prediction import ThresholdFailurePredictor
            self.risk_predictor = ThresholdFailurePredictor()
        return self.risk_predictor.report(self, self.local_telemetry)

    def heartbeat(self) -> Optional[Heartbeat]:
        """The periodic self-report to the controller.

        ``None`` while the host is down — a crashed node cannot speak,
        which is exactly what the controller's missed-heartbeat ladder
        keys on.  The sample also feeds the node-local telemetry ring so
        the on-node risk predictor sees its own error history.
        """
        if self.hypervisor.crashed:
            return None
        metrics = self.metrics()
        sample = NodeSample(
            timestamp=self.clock.now, node=self.name,
            utilization=metrics.utilization, power_w=metrics.power_w,
            reliability=metrics.reliability,
            correctable_errors=self.hypervisor.stats.correctable_errors,
            temperature_c=self.platform.chip.thermal.temperature_c,
        )
        self.local_telemetry.record_node(sample)
        self.runtime.metrics.inc("resilience.heartbeats.emitted")
        return Heartbeat(
            timestamp=self.clock.now, node=self.name, metrics=metrics,
            active_vms=tuple(
                vm.name for vm in self.hypervisor.active_vms()),
            failure_budget=self.hypervisor.config.failure_budget,
            eop_adopted=self.governor.adopted_count(),
            horizon_report=self._risk_report(),
        )

    # -- persistence ---------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Serializable node state across every layer."""
        return {
            "runtime": self.runtime.state_dict(),
            "metrics": self.runtime.metrics.state_dict(),
            "platform": self.platform.state_dict(),
            "hypervisor": self.hypervisor.state_dict(),
            "healthlog": self.healthlog.state_dict(),
            "isolation": self.isolation.state_dict(),
            "qos": self.qos.state_dict(),
            "local_telemetry": self.local_telemetry.state_dict(),
            "uptime_s": self._uptime_s,
            "downtime_s": self._downtime_s,
            "since_review": self._since_review,
            "predictor_down": self.predictor_down,
            "recovery_stuck": self.recovery_stuck,
            "governor": self.governor.state_dict(),
            "risk_predictor": _predictor_state(self.risk_predictor),
        }

    def load_state_dict(self, state: Dict[str, object],
                        vm_factory: Callable[[str], VirtualMachine]) -> None:
        """Restore the node saved by :meth:`state_dict`.

        ``vm_factory`` rebuilds each named VM shell (workload and sizing)
        so the hypervisor can overlay the saved runtime state onto it.
        """
        self.runtime.load_state_dict(state["runtime"])  # type: ignore[arg-type]
        self.runtime.metrics.load_state_dict(state["metrics"])  # type: ignore[arg-type]
        self.platform.load_state_dict(state["platform"])  # type: ignore[arg-type]
        self.hypervisor.load_state_dict(
            state["hypervisor"], vm_factory)  # type: ignore[arg-type]
        self.healthlog.load_state_dict(state["healthlog"])  # type: ignore[arg-type]
        self.isolation.load_state_dict(state["isolation"])  # type: ignore[arg-type]
        self.qos.load_state_dict(state["qos"])  # type: ignore[arg-type]
        self.local_telemetry.load_state_dict(
            state["local_telemetry"])  # type: ignore[arg-type]
        self._uptime_s = float(state["uptime_s"])  # type: ignore[arg-type]
        self._downtime_s = float(state["downtime_s"])  # type: ignore[arg-type]
        self._since_review = float(state["since_review"])  # type: ignore[arg-type]
        self.predictor_down = bool(state["predictor_down"])
        self.recovery_stuck = bool(state["recovery_stuck"])
        self.governor.load_state_dict(state["governor"])  # type: ignore[arg-type]
        # .get(): snapshots from before the predictor round-trip landed
        # have no envelope — leave whatever predictor is installed.
        envelope = state.get("risk_predictor")
        if envelope is not None:
            from .failure_prediction import predictor_from_state
            restored = predictor_from_state(envelope)  # type: ignore[arg-type]
            if (self.risk_predictor is not None
                    and getattr(self.risk_predictor, "KIND", None)
                    == getattr(restored, "KIND", None)):
                # Keep the installed instance (it may be shared with the
                # controller); overlay the saved state onto it.
                self.risk_predictor.load_state_dict(
                    envelope["state"])  # type: ignore[index]
            else:
                self.risk_predictor = restored

    # -- execution ----------------------------------------------------------

    def _review_isolation(self) -> None:
        """One isolation review; a refusal to fence the last core is
        recorded rather than propagated (the rack keeps running)."""
        try:
            self.isolation.review(self.platform.faults, self.clock.now)
        except IsolationError:
            self.runtime.metrics.inc("hypervisor.isolation.blocked")

    def step(self, dt_s: float) -> None:
        """Advance the node: governor supervision, hypervisor ticks,
        isolation review, availability accounting."""
        if dt_s < 0:
            raise ConfigurationError("dt must be non-negative")
        self.governor.step()
        if self.hypervisor.crashed:
            self._downtime_s += dt_s
            return
        self.hypervisor.run_ticks(
            max(1, step_count(dt_s, self.hypervisor.config.tick_s)))
        self._since_review += dt_s
        if self._since_review >= ISOLATION_REVIEW_S:
            self._review_isolation()
            self._since_review = 0.0
        if self.hypervisor.crashed:
            self._downtime_s += dt_s
        else:
            self._uptime_s += dt_s

    def recover(self) -> bool:
        """Power-cycle the node (operator/automation action).

        Returns whether the node came back up.  A stuck recovery path
        (chaos) swallows the command and reports failure.  Power-cycling
        a node that was in fact alive — the cost of a controller's false
        DOWN declaration — is disruptive: every guest reboots.
        """
        if self.recovery_stuck:
            self.runtime.metrics.inc("resilience.recovery.stuck")
            return False
        if not self.hypervisor.crashed:
            for vm in self.hypervisor.active_vms():
                vm.fail()
                if self.hypervisor.config.restart_failed_vms:
                    vm.restart()
            self.runtime.metrics.inc("resilience.recovery.disruptive")
            return True
        self.hypervisor.reboot()
        return not self.hypervisor.crashed


def build_rack(n_nodes: int, clock: Optional[SimClock] = None,
               seed: int = 0, characterize: bool = False,
               eop_policy: Optional[EOPPolicy] = None,
               ) -> List[ComputeNode]:
    """A rack of full UniServer nodes on one shared clock.

    One experiment ``seed`` fans out (``SeedSequence.spawn``) into an
    independent, reproducible stream family per node, replacing the
    ad-hoc ``seed=base + i`` convention.
    """
    return [
        ComputeNode(runtime.name, runtime=runtime,
                    characterize=characterize, eop_policy=eop_policy)
        for runtime in spawn_runtimes(n_nodes, seed=seed, clock=clock)
    ]
