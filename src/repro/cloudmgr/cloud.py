"""Cloud controller: rack-level orchestration (the OpenStack stand-in).

Ties the layer together: a rack of :class:`~repro.cloudmgr.node.ComputeNode`
instances, the filter/weigh scheduler, heartbeat health beliefs, SLA
tracking, node failure prediction and the migration manager.  The
control loop each step:

1. reconcile injected control-plane faults (when a chaos engine is
   attached) and advance every node;
2. ingest heartbeats into the :class:`~repro.resilience.health.NodeHealthView`
   — the controller's *only* source of node state;
3. reconcile beliefs: declare nodes SUSPECT/DOWN from missed heartbeats,
   fail workloads over off long-dead nodes, attempt recoveries through
   the per-node circuit breaker;
4. act on heartbeat-shipped horizon risk reports; with proactive mode
   on, evacuate at-risk nodes, nearest at-risk horizon first (retried
   with backoff on mid-flight aborts);
5. accrue SLA uptime/downtime per VM and reap completed VMs.

Decision/actuation/measurement separation (the contract the chaos tests
enforce): every *decision* — placement, evacuation target, DOWN
declaration, failover — reads only the heartbeat-fed ``NodeHealthView``
beliefs.  Ground-truth node objects are touched to *actuate* decisions
(issue a create/migrate/reboot, any of which may fail) and to *measure*
outcomes (SLA accounting, MTTR episodes, completed-VM reaping), the
measurement loop being the experiment's oracle rather than part of the
controller's knowledge.

Proactive vs reactive is exactly the comparison of ablation A4; the
graceful-degradation knobs (suspicion ladder, retry policy, breaker,
failover) are the A/B of ``benchmarks/bench_chaos_resilience.py``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..core.clock import SimClock, step_count
from ..core.exceptions import ConfigurationError, SchedulingError
from ..hypervisor.vm import VirtualMachine, VMState
from ..resilience.chaos import ChaosEngine
from ..resilience.health import NodeHealthView, NodeStatus, NodeView
from ..resilience.policies import (
    BreakerState,
    CircuitBreaker,
    DegradationConfig,
)
from .migration import MigrationManager
from .node import ComputeNode
from .scheduler import FilterScheduler, Placement
from .sla import SLA, SLATracker


@dataclass
class ControllerStats:
    """Aggregate counters of one controller run."""

    steps: int = 0
    launched: int = 0
    completed: int = 0
    node_crashes: int = 0
    evacuations: int = 0
    energy_j: float = 0.0
    #: Degradation-machinery counters.
    recoveries: int = 0
    recovery_attempts: int = 0
    failed_recoveries: int = 0
    failovers: int = 0
    failed_failovers: int = 0
    migration_retries: int = 0
    breaker_trips: int = 0
    #: Recovery-then-recrash events within the flap window.
    flaps: int = 0
    heartbeats_received: int = 0
    heartbeats_missed: int = 0
    #: Closed VM service-restoration episodes (seconds each): from the
    #: first step a VM's service is down to the step it serves again.
    repair_times_s: List[float] = field(default_factory=list)


def _at_risk(view: NodeView) -> bool:
    """Whether a node's last risk report flags any horizon."""
    report = view.risk_report()
    return report is not None and report.nearest_at_risk() is not None


@dataclass
class _RetryState:
    """Backoff bookkeeping for one node's pending evacuation retries."""

    attempt: int
    first_at: float
    next_at: float


class CloudController:
    """Manages a rack of UniServer nodes through heartbeat beliefs."""

    def __init__(self, clock: SimClock, nodes: Sequence[ComputeNode],
                 scheduler: Optional[FilterScheduler] = None,
                 predictor=None,
                 proactive_migration: bool = True,
                 node_recovery_s: float = 300.0,
                 vm_restart_penalty_s: float = 30.0,
                 degradation: Optional[DegradationConfig] = None,
                 chaos: Optional[ChaosEngine] = None,
                 control_seed: int = 0) -> None:
        if not nodes:
            raise ConfigurationError("the rack needs at least one node")
        names = [n.name for n in nodes]
        if len(set(names)) != len(names):
            raise ConfigurationError("node names must be unique")
        self.clock = clock
        self.nodes: Dict[str, ComputeNode] = {n.name: n for n in nodes}
        self.scheduler = scheduler or FilterScheduler()
        #: Optional override for every node's local risk predictor (the
        #: controller itself never assesses risk — nodes self-report).
        self.predictor = predictor
        self.proactive_migration = proactive_migration
        self.node_recovery_s = node_recovery_s
        #: Service blackout charged per masked VM crash: the hypervisor
        #: restarts the guest transparently, but the guest still reboots.
        self.vm_restart_penalty_s = vm_restart_penalty_s
        self.degradation = degradation or DegradationConfig.on()
        self.chaos = chaos
        self.health = NodeHealthView(
            suspect_after_missed=self.degradation.suspect_after_missed,
            down_after_missed=self.degradation.down_after_missed,
        )
        self._breakers: Dict[str, CircuitBreaker] = {}
        for node in nodes:
            self.health.register(node.name)
            self._breakers[node.name] = CircuitBreaker(
                failure_threshold=self.degradation.breaker_threshold,
                cooldown_s=self.degradation.breaker_cooldown_s,
            )
            # Arm the governor's stale-telemetry conservative fallback.
            node.governor.stale_fallback_s = \
                self.degradation.stale_info_fallback_s
            if predictor is not None:
                node.risk_predictor = predictor
        #: Controller-side jitter stream (retry backoff decorrelation).
        self._rng = np.random.default_rng(control_seed)
        self._seen_restarts: Dict[str, int] = {}
        self.tracker = SLATracker()
        self.migrations = MigrationManager(
            scheduler=self.scheduler, tracker=self.tracker,
        )
        if chaos is not None:
            self.migrations.failure_hook = (
                lambda source, destination:
                chaos.migration_should_fail(
                    source, destination, self.clock.now))
        self.stats = ControllerStats()
        self._vm_homes: Dict[str, str] = {}
        self._down_since: Dict[str, float] = {}
        self._next_recovery_at: Dict[str, float] = {}
        self._recovery_failed: set = set()
        self._vm_down_since: Dict[str, float] = {}
        self._probation_until: Dict[str, float] = {}
        self._evac_retry: Dict[str, _RetryState] = {}
        self._last_energy: Dict[str, float] = {
            n.name: 0.0 for n in nodes
        }
        # Bootstrap beliefs: one heartbeat round at construction time,
        # so admission can schedule before the first control step.
        self._ingest_heartbeats()

    # -- persistence ------------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Serializable controller state, nodes included.

        Dict-valued tables are saved in insertion order — iteration
        order is behaviour-affecting (reconcile order, energy
        accounting), so none of them may be sorted on the way out.
        """
        return {
            "nodes": {name: node.state_dict()
                      for name, node in self.nodes.items()},
            "health": self.health.state_dict(),
            "breakers": {name: breaker.state_dict()
                         for name, breaker in self._breakers.items()},
            "rng": self._rng.bit_generator.state,
            "seen_restarts": dict(self._seen_restarts),
            "tracker": self.tracker.state_dict(),
            "migrations": self.migrations.state_dict(),
            "stats": asdict(self.stats),
            "vm_homes": dict(self._vm_homes),
            "down_since": dict(self._down_since),
            "next_recovery_at": dict(self._next_recovery_at),
            "recovery_failed": sorted(self._recovery_failed),
            "vm_down_since": dict(self._vm_down_since),
            "probation_until": dict(self._probation_until),
            "evac_retry": {name: asdict(state)
                           for name, state in self._evac_retry.items()},
            "last_energy": dict(self._last_energy),
            "chaos": (self.chaos.state_dict()
                      if self.chaos is not None else None),
        }

    def load_state_dict(self, state: Dict[str, object],
                        vm_factory: Callable[[str], VirtualMachine]) -> None:
        """Restore the controller saved by :meth:`state_dict`.

        ``vm_factory`` rebuilds named VM shells for the per-node
        hypervisor restores.  The placement list that older states
        carry is not read.
        """
        for name, node_state in state["nodes"].items():  # type: ignore[union-attr]
            self.nodes[str(name)].load_state_dict(node_state, vm_factory)
        self.health.load_state_dict(state["health"])  # type: ignore[arg-type]
        for name, breaker_state in state["breakers"].items():  # type: ignore[union-attr]
            self._breakers[str(name)].load_state_dict(breaker_state)
        self._rng.bit_generator.state = state["rng"]
        self._seen_restarts = {str(k): int(v) for k, v
                               in state["seen_restarts"].items()}  # type: ignore[union-attr]
        self.tracker.load_state_dict(state["tracker"])  # type: ignore[arg-type]
        self.migrations.load_state_dict(state["migrations"])  # type: ignore[arg-type]
        stats = dict(state["stats"])  # type: ignore[call-overload]
        stats["repair_times_s"] = [float(t)
                                   for t in stats["repair_times_s"]]
        self.stats = ControllerStats(**stats)
        self._vm_homes = {str(k): str(v) for k, v
                          in state["vm_homes"].items()}  # type: ignore[union-attr]
        self._down_since = {str(k): float(v) for k, v
                            in state["down_since"].items()}  # type: ignore[union-attr]
        self._next_recovery_at = {
            str(k): float(v) for k, v
            in state["next_recovery_at"].items()}  # type: ignore[union-attr]
        self._recovery_failed = {str(n)
                                 for n in state["recovery_failed"]}  # type: ignore[union-attr]
        self._vm_down_since = {str(k): float(v) for k, v
                               in state["vm_down_since"].items()}  # type: ignore[union-attr]
        self._probation_until = {str(k): float(v) for k, v
                                 in state["probation_until"].items()}  # type: ignore[union-attr]
        self._evac_retry = {
            str(name): _RetryState(**retry) for name, retry
            in state["evac_retry"].items()}  # type: ignore[union-attr]
        self._last_energy = {str(k): float(v) for k, v
                             in state["last_energy"].items()}  # type: ignore[union-attr]
        if self.chaos is not None and state.get("chaos") is not None:
            self.chaos.load_state_dict(state["chaos"])  # type: ignore[arg-type]

    # -- placement --------------------------------------------------------------

    def node_list(self) -> List[ComputeNode]:
        """All registered compute nodes."""
        return list(self.nodes.values())

    def launch(self, vm: VirtualMachine, sla: SLA) -> Placement:
        """Admit a VM under an SLA: schedule, place, start tracking.

        Scheduling runs over the heartbeat beliefs; the placement is then
        actuated against the real node, and an actuation failure (the
        belief was stale or corrupted) surfaces as a scheduling error.
        """
        from ..hypervisor.qos import requirement_from_sla

        placement = self.scheduler.schedule(
            self.health.schedulable_views(), vm, sla)
        node = self.nodes[placement.node]
        try:
            node.hypervisor.create_vm(vm)
        except Exception as exc:
            raise SchedulingError(
                f"placement of {vm.name!r} on {node.name!r} failed: {exc}"
            ) from exc
        node.qos.register(vm.name, requirement_from_sla(sla))
        self.health.view(placement.node).reserve(
            vm.vcpus, vm.guest_os_mb + vm.workload.demand.memory_mb)
        self.tracker.register(vm.name, sla)
        self._vm_homes[vm.name] = placement.node
        self.stats.launched += 1
        node.runtime.metrics.inc("cloudmgr.scheduler.placements")
        return placement

    def locate(self, vm_name: str) -> ComputeNode:
        """The node currently hosting a VM."""
        for node in self.nodes.values():
            try:
                node.hypervisor.vm(vm_name)
                return node
            except KeyError:
                continue
        raise KeyError(f"VM {vm_name!r} is not placed on any node")

    def forget_vm(self, vm_name: str) -> None:
        """Drop all per-VM bookkeeping for a departed/destroyed VM."""
        self._vm_homes.pop(vm_name, None)
        self._seen_restarts.pop(vm_name, None)
        self._vm_down_since.pop(vm_name, None)

    # -- the control loop -----------------------------------------------------------

    def _ingest_heartbeats(self) -> None:
        """One heartbeat round: update the controller's beliefs."""
        now = self.clock.now
        for node in self.node_list():
            beat = node.heartbeat()
            if beat is not None and self.chaos is not None:
                beat = self.chaos.filter_heartbeat(node, beat, now)
            if beat is None:
                self.stats.heartbeats_missed += 1
                self.health.note_missed(node.name)
                continue
            self.stats.heartbeats_received += 1
            self.health.observe(beat)

    def _note_breaker_failure(self, node: ComputeNode,
                              breaker: CircuitBreaker) -> None:
        """Record a recovery failure; quarantine on a fresh trip."""
        trips_before = breaker.trips
        if breaker.record_failure(self.clock.now) is BreakerState.OPEN:
            self.health.quarantine(node.name)
            if breaker.trips > trips_before:
                self.stats.breaker_trips += 1
                node.runtime.metrics.inc("resilience.breaker.trips")

    def _reconcile_node(self, view: NodeView) -> None:
        """Drive one node's crash/recovery machinery from beliefs."""
        now = self.clock.now
        name = view.name
        node = self.nodes[name]
        breaker = self._breakers[name]
        if view.state in (NodeStatus.HEALTHY, NodeStatus.SUSPECT):
            # Believed up (a heartbeat arrived): close any down episode
            # and, after a clean flap window, reward the breaker.
            self._down_since.pop(name, None)
            self._next_recovery_at.pop(name, None)
            self._recovery_failed.discard(name)
            if view.state is NodeStatus.HEALTHY \
                    and name in self._probation_until \
                    and now >= self._probation_until[name]:
                breaker.record_success()
                del self._probation_until[name]
            return

        # DOWN or QUARANTINED.
        if name not in self._down_since:
            # Best estimate of the failure instant is the last evidence
            # of life, not the (ladder-delayed) declaration time.
            seen = view.last_seen_s
            self._down_since[name] = seen if seen is not None else now
            self._next_recovery_at[name] = (
                self._down_since[name] + self.node_recovery_s)
            self.stats.node_crashes += 1
            node.runtime.metrics.inc("cloudmgr.node.crashes")
            if name in self._probation_until:
                # The recovery did not stick: a flap, which the breaker
                # counts as a failure of the whole recovery operation.
                self.stats.flaps += 1
                node.runtime.metrics.inc("resilience.flaps")
                del self._probation_until[name]
                self._note_breaker_failure(node, breaker)
        down_for = now - self._down_since[name]

        # Degradation rung 5, the escalation: fail workloads over only
        # once recovery has demonstrably not worked — an attempt failed,
        # or the breaker quarantined the node.  (Failing over on silence
        # alone would cold-restart VMs off merely partitioned nodes.)
        failover_after = self.degradation.failover_after_s
        if failover_after is not None and down_for >= failover_after \
                and (name in self._recovery_failed
                     or view.state is NodeStatus.QUARANTINED):
            self._failover_vms(node)

        if now >= self._next_recovery_at[name] and breaker.allows(now):
            if view.state is NodeStatus.QUARANTINED:
                # The cooldown elapsed: this attempt is the breaker's
                # HALF_OPEN probe.
                self.health.release(name)
            self.stats.recovery_attempts += 1
            node.runtime.metrics.inc("cloudmgr.node.recovery_attempts")
            if node.recover():
                self.stats.recoveries += 1
                node.runtime.metrics.inc("cloudmgr.node.recoveries")
                # Belief stays DOWN until a heartbeat confirms; the
                # breaker is rewarded only after a flap-free window.
                self._probation_until[name] = (
                    now + self.degradation.flap_window_s)
            else:
                self.stats.failed_recoveries += 1
                node.runtime.metrics.inc("cloudmgr.node.failed_recoveries")
                self._recovery_failed.add(name)
                # Any earlier recovery's probation is void now — leaving
                # it would let a stale expiry reward the breaker right
                # after this failure quarantined the node.
                self._probation_until.pop(name, None)
                self._note_breaker_failure(node, breaker)
            # Either way, wait a full recovery period before retrying.
            self._next_recovery_at[name] = now + self.node_recovery_s

    def _failover_vms(self, source: ComputeNode) -> None:
        """Cold-restart a dead node's workloads on believed-healthy nodes.

        The degradation ladder's rung 5: rather than letting service
        wait out a stuck or crash-looping host recovery, VMs are failed
        over — restarted from scratch elsewhere, losing progress but
        restoring service instead of riding further recovery attempts.
        """
        for vm in list(source.hypervisor.vms):
            if not self.tracker.tracks(vm.name):
                continue
            sla = self.tracker.sla_for(vm.name)
            # A node still on post-recovery probation is unproven — do
            # not fail over onto what may be the next crash loop.
            targets = [v for v in self.health.schedulable_views()
                       if v.name != source.name
                       and v.name not in self._probation_until]
            try:
                placement = self.scheduler.schedule(targets, vm, sla)
            except SchedulingError:
                self.stats.failed_failovers += 1
                continue
            destination = self.nodes[placement.node]
            if not destination.can_host(vm):
                # Actuation bounced: the belief was stale.
                self.stats.failed_failovers += 1
                continue
            source.hypervisor.detach_vm(vm.name)
            requirement = source.qos.requirement_for(vm.name)
            source.qos.unregister(vm.name)
            if vm.is_active:
                vm.fail()
            if vm.state is VMState.FAILED:
                vm.restart()
            vm.state = VMState.PENDING
            destination.hypervisor.create_vm(vm)
            if requirement is not None:
                destination.qos.register(vm.name, requirement)
            self.health.view(destination.name).reserve(
                vm.vcpus, vm.guest_os_mb + vm.workload.demand.memory_mb)
            self._vm_homes[vm.name] = destination.name
            self.stats.failovers += 1
            source.runtime.metrics.inc("resilience.failovers")
            destination.runtime.metrics.inc(
                "cloudmgr.migration.vms_received")

    def _handle_risk(self) -> None:
        """Proactive evacuation from heartbeat-shipped risk reports.

        A node whose Predictor daemon is down ships no report — the
        controller simply cannot act proactively for it (degradation
        rung: prediction lost, reactive path still covers crashes).
        """
        now = self.clock.now
        urgent = [view for view in self.health.schedulable_views()
                  if _at_risk(view) and view.last.active_vms]
        # Nearest-horizon risk first: a node predicted to fail within
        # 15 minutes is drained before one flagged at the 4 h horizon;
        # name breaks ties so the order — and thus every downstream
        # placement — is deterministic.
        urgent.sort(key=lambda view: (*view.risk_report().urgency(),
                                      view.name))
        for view in urgent:
            pending = self._evac_retry.get(view.name)
            if pending is not None and now < pending.next_at:
                continue
            if pending is not None:
                self.stats.migration_retries += 1
            self._attempt_evacuation(view.name)

    def _attempt_evacuation(self, name: str) -> None:
        """One evacuation attempt; schedules a backoff retry on aborts."""
        now = self.clock.now
        node = self.nodes[name]
        peers = [v for v in self.health.schedulable_views()
                 if v.name != name]
        # Risk-aware targeting: never evacuate onto a node whose own
        # heartbeat says it is at risk — that is migration ping-pong.
        # If *every* peer is flagged, fall back to the full set rather
        # than strand the VMs on the node predicted to fail first.
        targets = [v for v in peers if not _at_risk(v)]
        if not targets:
            targets = peers
        attempted_from = len(self.migrations.records)
        moved = self.migrations.evacuate(
            node, targets, self.tracker, proactive=True,
            resolve=lambda destination: self.nodes[destination])
        failed = [r for r in self.migrations.records[attempted_from:]
                  if not r.succeeded]
        if moved:
            self.stats.evacuations += 1
            node.runtime.metrics.inc("cloudmgr.migration.evacuations")
            for record in moved:
                self._vm_homes[record.vm_name] = record.destination
                self.nodes[record.destination].runtime.metrics.inc(
                    "cloudmgr.migration.vms_received")
        if not failed:
            self._evac_retry.pop(name, None)
            return
        node.runtime.metrics.inc(
            "resilience.migration.aborts", len(failed))
        retry = self.degradation.retry
        state = self._evac_retry.get(name) or _RetryState(
            attempt=0, first_at=now, next_at=now)
        attempt = state.attempt + 1
        if retry.should_retry(attempt, state.first_at, now):
            self._evac_retry[name] = _RetryState(
                attempt=attempt, first_at=state.first_at,
                next_at=now + retry.delay_s(attempt, self._rng))
        else:
            # Budget exhausted: stop hammering the control path.
            self._evac_retry.pop(name, None)

    def _account_service(self, dt_s: float) -> None:
        """SLA/MTTR accounting and completed-VM reaping.

        This is the *measurement oracle*: it reads ground truth on
        purpose, because achieved availability is a property of the
        world, not of the controller's beliefs.  Nothing computed here
        feeds back into scheduling decisions.
        """
        now = self.clock.now
        for node in self.node_list():
            if node.hypervisor.crashed:
                for vm in node.hypervisor.vms:
                    if not self.tracker.tracks(vm.name):
                        continue
                    self.tracker.account(vm.name, dt_s, up=False)
                    self._vm_down_since.setdefault(vm.name, now)
                continue
            for vm in node.hypervisor.vms:
                if not self.tracker.tracks(vm.name):
                    continue
                if vm.state is VMState.COMPLETED:
                    # A finished VM is a success, not downtime.
                    self.tracker.account(vm.name, dt_s, up=True)
                    self.stats.completed += 1
                    node.hypervisor.destroy_vm(vm.name)
                    node.qos.unregister(vm.name)
                    self.forget_vm(vm.name)
                    continue
                up = vm.state in (VMState.RUNNING, VMState.MIGRATING)
                self.tracker.account(vm.name, dt_s, up=up)
                if up and vm.name in self._vm_down_since:
                    # Service restored: close the repair episode.
                    self.stats.repair_times_s.append(
                        now - self._vm_down_since.pop(vm.name))
                new_restarts = vm.restarts - self._seen_restarts.get(
                    vm.name, 0)
                if new_restarts > 0:
                    self.tracker.account(
                        vm.name,
                        new_restarts * self.vm_restart_penalty_s,
                        up=False)
                    self._seen_restarts[vm.name] = vm.restarts

    def step(self, dt_s: float = 1.0) -> None:
        """One control-loop iteration over the whole rack."""
        if dt_s <= 0:
            raise ConfigurationError("dt must be positive")
        self.stats.steps += 1
        if self.chaos is not None:
            self.chaos.apply(self.node_list(), self.clock.now)
        for node in self.node_list():
            node.step(dt_s)
            energy = node.hypervisor.stats.energy_j
            self.stats.energy_j += energy - self._last_energy[node.name]
            self._last_energy[node.name] = energy
        self._ingest_heartbeats()
        for view in self.health.views():
            self._reconcile_node(view)
        if self.proactive_migration:
            self._handle_risk()
        self._account_service(dt_s)

    def run(self, duration_s: float, dt_s: float = 1.0) -> None:
        """Run the control loop for a stretch of simulated time."""
        for _ in range(step_count(duration_s, dt_s)):
            self.step(dt_s)
            self.clock.advance_by(dt_s)

    # -- summaries --------------------------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, dict]:
        """Per-node cross-layer metrics registries, node-name sorted.

        Each value is one node's full registry dump — hardware fault
        counts, daemon activity, hypervisor operations, cloudmgr
        scheduling and resilience series side by side.  Deterministic
        under a fixed seed, so two same-seed runs snapshot bit-for-bit
        identically.
        """
        return {
            name: self.nodes[name].metrics_snapshot()
            for name in sorted(self.nodes)
        }

    def fleet_availability(self) -> float:
        """Mean achieved availability across tracked VMs."""
        summary = self.tracker.availability_summary()
        if not summary:
            return 1.0
        return sum(summary.values()) / len(summary)

    def mttr_s(self) -> Optional[float]:
        """Mean VM service-restoration time (None without any outage).

        Closed repair episodes plus any still-open ones measured up to
        the current instant, so a run that ends mid-outage does not
        under-report.
        """
        episodes = list(self.stats.repair_times_s)
        episodes.extend(self.clock.now - since
                        for since in self._vm_down_since.values())
        if not episodes:
            return None
        return sum(episodes) / len(episodes)

    def describe(self) -> str:
        """Human-readable multi-line summary."""
        lines = [f"cloud: {len(self.nodes)} nodes, "
                 f"{len(self.tracker.tracked_vms())} tracked VMs"]
        for node in self.node_list():
            lines.append("  " + node.metrics().describe())
        lines.append("beliefs:")
        for view in self.health.views():
            lines.append("  " + view.describe())
        return "\n".join(lines)
