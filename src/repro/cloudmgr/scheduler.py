"""VM scheduling policies (OpenStack filter/weigh style).

Paper Section 4.B: the extended OpenStack develops "new scheduling
policies" exploiting fine-grained monitoring and the added node
reliability metric, "focus[ing] on incurring minimal overhead and being
non-intrusive in real-world scenarios where OpenStack would manage
streams of incoming and terminating VMs".

The :class:`FilterScheduler` follows the classical two-phase design:
filters discard infeasible nodes (capacity, SLA compatibility, health),
then weighers rank the survivors.  UniServer's reliability-aware weigher
set trades energy efficiency against node reliability per the VM's SLA
tier; a :class:`RoundRobinScheduler` baseline exists for the ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from ..core.exceptions import ConfigurationError, SchedulingError
from ..hypervisor.vm import VirtualMachine
from .node import ComputeNode
from .sla import SLA

Filter = Callable[[ComputeNode, VirtualMachine, SLA], bool]
Weigher = Callable[[ComputeNode, VirtualMachine, SLA], float]


# -- filters ---------------------------------------------------------------

def capacity_filter(node: ComputeNode, vm: VirtualMachine, sla: SLA) -> bool:
    """Node must have vCPU and memory headroom for the VM."""
    return node.can_host(vm)


def health_filter(node: ComputeNode, vm: VirtualMachine, sla: SLA) -> bool:
    """Node must be up."""
    return not node.hypervisor.crashed


def sla_performance_filter(node: ComputeNode, vm: VirtualMachine,
                           sla: SLA) -> bool:
    """Node cores must satisfy the SLA's frequency floor."""
    return node.frequency_fraction() >= sla.min_frequency_fraction


def sla_reliability_filter(node: ComputeNode, vm: VirtualMachine,
                           sla: SLA) -> bool:
    """Node failure budget must fit the SLA.

    Gold-tier VMs refuse nodes *currently running* extended operating
    points under a budget looser than the SLA's own.  A node running
    entirely at nominal — never adopted, or demoted back by its EOP
    governor — is safe for any tier regardless of its configured budget:
    it is not spending any margin right now.
    """
    if node.governor.adopted_count() == 0:
        return True
    return node.hypervisor.config.failure_budget <= sla.failure_budget


DEFAULT_FILTERS: Tuple[Filter, ...] = (
    health_filter, capacity_filter, sla_performance_filter,
    sla_reliability_filter,
)


# -- weighers ---------------------------------------------------------------

def energy_weigher(node: ComputeNode, vm: VirtualMachine, sla: SLA) -> float:
    """Prefer nodes that buy more work per watt (lower power is better)."""
    metrics = node.metrics()
    if metrics.power_w <= 0:
        return 1.0
    return 1.0 / metrics.power_w


def reliability_weigher(node: ComputeNode, vm: VirtualMachine,
                        sla: SLA) -> float:
    """Prefer reliable nodes, weighted up for high-priority SLAs."""
    return node.reliability() * (1.0 + 0.5 * sla.priority)


def balance_weigher(node: ComputeNode, vm: VirtualMachine, sla: SLA) -> float:
    """Prefer less-utilized nodes (spread the fleet)."""
    return 1.0 - node.utilization()


def risk_aware_weigher(node: ComputeNode, vm: VirtualMachine,
                       sla: SLA) -> float:
    """Penalise candidates their own horizon reports predict will fail.

    Reads the node's last multi-horizon risk report (duck-typed: live
    nodes and heartbeat-fed :class:`~repro.resilience.health.NodeView`
    beliefs both answer ``risk_report()``).  Only horizons whose
    ``at_risk`` flag is up contribute hazard — the weigher acts on the
    same alarms actuation acts on, scaled by ``probability x
    confidence x nearness`` so a high-confidence 15-minute warning
    outweighs a shaky 4-hour one.  Below-threshold probabilities are
    deliberately ignored: scoring them would perturb every placement
    with low-grade noise, and in a fleet whose faults are mostly
    exogenous that noise costs more than the signal is worth.  With no
    alarm anywhere the weigher is constant, and min-max normalisation
    makes a constant weigher ranking-neutral.  A node without a report
    (Predictor down, threshold-only fleet) scores a neutral 0.5: no
    evidence is not the same as a clean bill.
    """
    report_fn = getattr(node, "risk_report", None)
    report = report_fn() if report_fn is not None else None
    if report is None:
        return 0.5
    hazard = 0.0
    for horizon in report.horizons:
        if not horizon.at_risk:
            continue
        nearness = min(1.0, 900.0 / horizon.horizon_s)
        hazard = max(hazard,
                     horizon.probability * horizon.confidence * nearness)
    return 1.0 - min(1.0, hazard)


@dataclass
class RackAntiAffinity:
    """Opt-in weigher: spread placements across fault-domain racks.

    Nodes named ``node{i}`` fall into contiguous racks of
    ``nodes_per_rack``; any other name lands in a shared catch-all
    rack.  The weigher scores a candidate by how few VMs its whole
    rack currently hosts, so placements drain toward the emptiest
    rack and a single rack failure (PDU, ToR, cooling) takes out as
    few VMs as possible.  Not in :data:`DEFAULT_WEIGHERS` — append
    ``spec()`` to a scheduler's weighers to arm it.
    """

    nodes: Sequence[ComputeNode]
    nodes_per_rack: int = 8

    def __post_init__(self) -> None:
        if self.nodes_per_rack < 1:
            raise ConfigurationError("nodes_per_rack must be >= 1")

    def rack_of(self, node_name: str) -> int:
        """The rack index for a node name (-1 = unparseable catch-all)."""
        suffix = node_name[4:] if node_name.startswith("node") else ""
        if not suffix.isdigit() or str(int(suffix)) != suffix:
            return -1
        return int(suffix) // self.nodes_per_rack

    def weigher(self, node: ComputeNode, vm: VirtualMachine,
                sla: SLA) -> float:
        rack = self.rack_of(node.name)
        load = sum(len(peer.hypervisor.vms) for peer in self.nodes
                   if self.rack_of(peer.name) == rack)
        return 1.0 / (1.0 + load)

    def spec(self, weight: float = 1.0) -> "WeigherSpec":
        """This weigher packaged for a scheduler's weigher list."""
        return WeigherSpec(self.weigher, weight)


def tier_capacity_weigher(node: ComputeNode, vm: VirtualMachine,
                          sla: SLA) -> float:
    """Prefer nodes whose per-tier free memory fits the VM's declared mix.

    A VM with a ``criticality_mix`` ({tier: fraction of its memory})
    scores each candidate by how well the node's free capacity in each
    requested tier covers that slice — a node with plenty of relaxed
    memory but a starved normal tier scores poorly for a VM declaring a
    critical slice, steering criticality-heavy VMs toward nodes that can
    actually honour their tiers instead of spilling on arrival.  VMs
    without a mix (and nodes without tier accounting) score a neutral
    0.5, which min-max normalisation makes ranking-neutral.
    """
    mix = getattr(vm, "criticality_mix", None)
    tier_free_fn = getattr(node, "tier_free_mb", None)
    if not mix or tier_free_fn is None:
        return 0.5
    free_mb = tier_free_fn()
    total_need = vm.guest_os_mb + vm.workload.demand.memory_mb
    total_fraction = sum(mix.values())
    score = 0.0
    for tier, fraction in mix.items():
        weight = fraction / total_fraction
        need_mb = fraction * total_need
        if need_mb <= 0:
            score += weight
            continue
        score += weight * min(1.0, free_mb.get(tier, 0.0) / need_mb)
    return score


@dataclass(frozen=True)
class WeigherSpec:
    """A weigher and its multiplier in the total score."""

    weigher: Weigher
    weight: float = 1.0


DEFAULT_WEIGHERS: Tuple[WeigherSpec, ...] = (
    WeigherSpec(reliability_weigher, 2.0),
    WeigherSpec(energy_weigher, 1.0),
    WeigherSpec(balance_weigher, 1.0),
)

#: The default set plus the horizon-report weigher — the scheduler arm
#: of the risk-aware migration A/B (``bench_failure_prediction``).
#: Opt-in rather than default so existing ablations keep their baseline.
RISK_AWARE_WEIGHERS: Tuple[WeigherSpec, ...] = DEFAULT_WEIGHERS + (
    WeigherSpec(risk_aware_weigher, 1.5),
)

#: The default set plus per-tier capacity weighing — the scheduler arm
#: of heterogeneous-reliability placement.  Opt-in for the same reason
#: as the risk-aware set: existing ablations keep their baseline.
TIER_AWARE_WEIGHERS: Tuple[WeigherSpec, ...] = DEFAULT_WEIGHERS + (
    WeigherSpec(tier_capacity_weigher, 1.5),
)


@dataclass(frozen=True)
class Placement:
    """A scheduling decision."""

    vm_name: str
    node: str
    score: float


class FilterScheduler:
    """Two-phase filter/weigh scheduler with normalised scoring."""

    def __init__(self, filters: Sequence[Filter] = DEFAULT_FILTERS,
                 weighers: Sequence[WeigherSpec] = DEFAULT_WEIGHERS) -> None:
        if not filters:
            raise ConfigurationError("scheduler needs at least one filter")
        if not weighers:
            raise ConfigurationError("scheduler needs at least one weigher")
        self.filters = tuple(filters)
        self.weighers = tuple(weighers)

    def feasible_nodes(self, nodes: Sequence[ComputeNode],
                       vm: VirtualMachine, sla: SLA) -> List[ComputeNode]:
        """Nodes passing every filter."""
        survivors = list(nodes)
        for node_filter in self.filters:
            survivors = [n for n in survivors if node_filter(n, vm, sla)]
            if not survivors:
                break
        return survivors

    def _score(self, candidates: Sequence[ComputeNode], vm: VirtualMachine,
               sla: SLA) -> Dict[str, float]:
        """Min-max-normalised weighted scores, per OpenStack convention."""
        totals = {node.name: 0.0 for node in candidates}
        for spec in self.weighers:
            raw = {n.name: spec.weigher(n, vm, sla) for n in candidates}
            low, high = min(raw.values()), max(raw.values())
            span = high - low
            for name, value in raw.items():
                normalised = 0.5 if span <= 0 else (value - low) / span
                totals[name] += spec.weight * normalised
        return totals

    def schedule(self, nodes: Sequence[ComputeNode], vm: VirtualMachine,
                 sla: SLA) -> Placement:
        """Pick the best node or raise :class:`SchedulingError`."""
        candidates = self.feasible_nodes(nodes, vm, sla)
        if not candidates:
            raise SchedulingError(
                f"no feasible node for VM {vm.name!r} (tier {sla.name})"
            )
        scores = self._score(candidates, vm, sla)
        best = max(candidates, key=lambda n: (scores[n.name], n.name))
        return Placement(vm_name=vm.name, node=best.name,
                         score=scores[best.name])


class RoundRobinScheduler:
    """Baseline: rotate over whatever nodes have capacity."""

    def __init__(self) -> None:
        self._cursor = 0

    def schedule(self, nodes: Sequence[ComputeNode], vm: VirtualMachine,
                 sla: SLA) -> Placement:
        """Pick a node with capacity, rotating the cursor."""
        if not nodes:
            raise SchedulingError("no nodes registered")
        n = len(nodes)
        for i in range(n):
            node = nodes[(self._cursor + i) % n]
            if not node.hypervisor.crashed and node.can_host(vm):
                self._cursor = (self._cursor + i + 1) % n
                return Placement(vm_name=vm.name, node=node.name, score=0.0)
        raise SchedulingError(
            f"no node with capacity for VM {vm.name!r}"
        )
