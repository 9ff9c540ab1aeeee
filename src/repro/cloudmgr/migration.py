"""Live and proactive VM migration.

Paper Section 5.B: the integrated fault-tolerance component must
"proactively migrate the running workloads on the healthy nodes, which is
critical to sustain high-availability especially for high value and
user-facing workloads".

Live migration follows the classical pre-copy cost model: downtime and
total migration time scale with the VM's resident memory and the page
dirty rate; the VM loses a slice of progress while paused.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..core.exceptions import ConfigurationError, MigrationError
from ..hypervisor.vm import VMState
from ..resilience.health import NodeView
from .node import ComputeNode
from .scheduler import FilterScheduler
from .sla import SLA, SLATracker


@dataclass(frozen=True)
class MigrationCostModel:
    """Pre-copy live-migration costs."""

    #: Effective migration bandwidth (MB/s) between nodes.
    bandwidth_mb_s: float = 1000.0
    #: Fraction of memory re-dirtied per pre-copy round.
    dirty_fraction: float = 0.15
    #: Pre-copy rounds before the stop-and-copy phase.
    precopy_rounds: int = 3

    def __post_init__(self) -> None:
        if self.bandwidth_mb_s <= 0:
            raise ConfigurationError("bandwidth must be positive")
        if not 0 <= self.dirty_fraction < 1:
            raise ConfigurationError("dirty fraction must be in [0, 1)")
        if self.precopy_rounds < 0:
            raise ConfigurationError("precopy rounds must be >= 0")

    def total_time_s(self, memory_mb: float) -> float:
        """Wall time of the whole migration."""
        if memory_mb < 0:
            raise ConfigurationError("memory must be non-negative")
        transferred = memory_mb
        remaining = memory_mb
        for _ in range(self.precopy_rounds):
            remaining = remaining * self.dirty_fraction
            transferred += remaining
        return transferred / self.bandwidth_mb_s

    def downtime_s(self, memory_mb: float) -> float:
        """Stop-and-copy blackout: the final dirty set's transfer time."""
        remaining = memory_mb * self.dirty_fraction ** self.precopy_rounds
        return remaining / self.bandwidth_mb_s


@dataclass(frozen=True)
class MigrationRecord:
    """One completed (or failed) migration."""

    vm_name: str
    source: str
    destination: str
    memory_mb: float
    total_time_s: float
    downtime_s: float
    proactive: bool
    #: False for a mid-flight abort: the VM stayed on the source but
    #: the pre-copy blackout was still paid.
    succeeded: bool = True


class MigrationManager:
    """Executes live migrations and proactive evacuations."""

    def __init__(self, scheduler: Optional[FilterScheduler] = None,
                 cost_model: Optional[MigrationCostModel] = None,
                 tracker: Optional[SLATracker] = None) -> None:
        self.scheduler = scheduler or FilterScheduler()
        self.cost_model = cost_model or MigrationCostModel()
        self.tracker = tracker
        self.records: List[MigrationRecord] = []
        #: Chaos interception point: called with (source, destination
        #: name) right before the cut-over; returning True aborts the
        #: migration mid-flight (the VM stays put, the blackout is paid).
        self.failure_hook: Optional[
            Callable[[ComputeNode, str], bool]] = None

    def state_dict(self) -> Dict[str, object]:
        """Serializable migration history."""
        return {"records": [asdict(r) for r in self.records]}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore the history saved by :meth:`state_dict`."""
        self.records = [MigrationRecord(**r)
                        for r in state["records"]]  # type: ignore[union-attr]

    def migrate(self, vm_name: str, source: ComputeNode,
                destination: ComputeNode, sla: SLA,
                proactive: bool = False) -> MigrationRecord:
        """Live-migrate one VM between two nodes."""
        if source.name == destination.name:
            raise MigrationError("source and destination are the same node")
        vm = source.hypervisor.vm(vm_name)
        if not vm.is_active:
            raise MigrationError(
                f"VM {vm_name!r} is not active (state {vm.state.value})"
            )
        if not destination.can_host(vm):
            raise MigrationError(
                f"destination {destination.name!r} cannot host {vm_name!r}"
            )
        memory_mb = vm.memory_usage_mb()
        if self.failure_hook is not None \
                and self.failure_hook(source, destination.name):
            record = MigrationRecord(
                vm_name=vm_name, source=source.name,
                destination=destination.name, memory_mb=memory_mb,
                total_time_s=self.cost_model.total_time_s(memory_mb),
                downtime_s=self.cost_model.downtime_s(memory_mb),
                proactive=proactive, succeeded=False,
            )
            self.records.append(record)
            if self.tracker is not None:
                # The aborted pre-copy still cost the blackout window.
                self.tracker.account(vm_name, record.downtime_s, up=False)
            raise MigrationError(
                f"migration of {vm_name!r} to {destination.name!r} "
                "aborted mid-flight")
        was_running = vm.state is VMState.RUNNING
        vm.state = VMState.MIGRATING
        detached = source.hypervisor.detach_vm(vm_name)
        detached.state = VMState.PENDING
        destination.hypervisor.create_vm(detached)
        if not was_running:
            detached.pause()
        # The VM's QoS guarantee travels with it.
        requirement = source.qos.requirement_for(vm_name)
        source.qos.unregister(vm_name)
        if requirement is not None:
            destination.qos.register(vm_name, requirement)

        record = MigrationRecord(
            vm_name=vm_name, source=source.name,
            destination=destination.name, memory_mb=memory_mb,
            total_time_s=self.cost_model.total_time_s(memory_mb),
            downtime_s=self.cost_model.downtime_s(memory_mb),
            proactive=proactive,
        )
        self.records.append(record)
        if self.tracker is not None:
            self.tracker.note_migration(vm_name)
            self.tracker.account(vm_name, record.downtime_s, up=False)
        return record

    def evacuate(self, source: ComputeNode, others: Sequence[NodeView],
                 tracker: SLATracker,
                 resolve: Callable[[str], ComputeNode],
                 proactive: bool = True) -> List[MigrationRecord]:
        """Move every active VM off a (predicted-failing) node.

        VMs migrate in descending SLA priority — "high value and
        user-facing workloads" first.  VMs with no feasible destination
        stay put (and ride the node down if the prediction was right);
        a migration that aborts mid-flight likewise leaves its VM in
        place, recorded as a failed attempt for the caller's retry
        policy.

        Destinations are chosen over the controller's ``others``
        beliefs; ``resolve`` maps the chosen name back to the real node
        the migration is executed against.
        """
        vms = sorted(
            source.hypervisor.active_vms(),
            key=lambda vm: tracker.sla_for(vm.name).priority,
            reverse=True,
        )
        moved: List[MigrationRecord] = []
        for vm in vms:
            sla = tracker.sla_for(vm.name)
            candidates = [n for n in others if n.name != source.name]
            try:
                placement = self.scheduler.schedule(candidates, vm, sla)
            except Exception:
                continue
            try:
                moved.append(self.migrate(
                    vm.name, source, resolve(placement.node), sla,
                    proactive=proactive,
                ))
            except MigrationError:
                continue
        return moved

    def proactive_migrations(self) -> int:
        """Number of proactive migrations executed."""
        return sum(1 for r in self.records if r.proactive)

    def success_rate(self) -> float:
        """Fraction of attempted migrations that completed (1.0 if none)."""
        if not self.records:
            return 1.0
        return sum(1 for r in self.records if r.succeeded) \
            / len(self.records)
