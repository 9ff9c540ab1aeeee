"""VM scheduling policies (OpenStack filter/weigh style).

Paper Section 4.B: the extended OpenStack develops "new scheduling
policies" exploiting fine-grained monitoring and the added node
reliability metric, "focus[ing] on incurring minimal overhead and being
non-intrusive in real-world scenarios where OpenStack would manage
streams of incoming and terminating VMs".

The scheduler reads beliefs only: every filter and weigher takes a
heartbeat-fed :class:`~repro.resilience.health.NodeView`, never a live
node.  The :class:`FilterScheduler` follows the classical two-phase
design: filters discard infeasible nodes (believed health and capacity,
SLA compatibility), then weighers rank the survivors.  UniServer's
reliability-aware weigher set trades energy efficiency against node
reliability per the VM's SLA tier; a :class:`RoundRobinScheduler`
baseline exists for the ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from ..core.exceptions import ConfigurationError, SchedulingError
from ..hypervisor.vm import VirtualMachine
from ..resilience.health import NodeView
from .sla import SLA

Filter = Callable[[NodeView, VirtualMachine, SLA], bool]
Weigher = Callable[[NodeView, VirtualMachine, SLA], float]


# -- filters ---------------------------------------------------------------

def capacity_filter(view: NodeView, vm: VirtualMachine, sla: SLA) -> bool:
    """Node must be believed HEALTHY with vCPU and memory headroom."""
    return view.can_host(vm)


def sla_performance_filter(view: NodeView, vm: VirtualMachine,
                           sla: SLA) -> bool:
    """Node cores must satisfy the SLA's frequency floor."""
    return view.frequency_fraction() >= sla.min_frequency_fraction


def sla_reliability_filter(view: NodeView, vm: VirtualMachine,
                           sla: SLA) -> bool:
    """Node failure budget must fit the SLA.

    Gold-tier VMs refuse nodes *currently running* extended operating
    points under a budget looser than the SLA's own.  A node running
    entirely at nominal — never adopted, or demoted back by its EOP
    governor — is safe for any tier regardless of its configured budget:
    it is not spending any margin right now.  Both facts come from the
    node's last heartbeat.
    """
    if view.last.eop_adopted == 0:
        return True
    return view.last.failure_budget <= sla.failure_budget


DEFAULT_FILTERS: Tuple[Filter, ...] = (
    capacity_filter, sla_performance_filter, sla_reliability_filter,
)


# -- weighers ---------------------------------------------------------------

def energy_weigher(view: NodeView, vm: VirtualMachine, sla: SLA) -> float:
    """Prefer nodes that buy more work per watt (lower power is better)."""
    metrics = view.metrics()
    if metrics.power_w <= 0:
        return 1.0
    return 1.0 / metrics.power_w


def reliability_weigher(view: NodeView, vm: VirtualMachine,
                        sla: SLA) -> float:
    """Prefer reliable nodes, weighted up for high-priority SLAs."""
    return view.reliability() * (1.0 + 0.5 * sla.priority)


def balance_weigher(view: NodeView, vm: VirtualMachine, sla: SLA) -> float:
    """Prefer less-utilized nodes (spread the fleet)."""
    return 1.0 - view.utilization()


def risk_aware_weigher(view: NodeView, vm: VirtualMachine,
                       sla: SLA) -> float:
    """Penalise candidates their own horizon reports predict will fail.

    Reads the multi-horizon risk report from the node's last
    heartbeat (``NodeView.risk_report()``).  Only horizons whose
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
    report = view.risk_report()
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

    def feasible_nodes(self, views: Sequence[NodeView],
                       vm: VirtualMachine, sla: SLA) -> List[NodeView]:
        """Views passing every filter."""
        survivors = list(views)
        for node_filter in self.filters:
            survivors = [v for v in survivors if node_filter(v, vm, sla)]
            if not survivors:
                break
        return survivors

    def _score(self, candidates: Sequence[NodeView], vm: VirtualMachine,
               sla: SLA) -> Dict[str, float]:
        """Min-max-normalised weighted scores, per OpenStack convention."""
        totals = {view.name: 0.0 for view in candidates}
        for spec in self.weighers:
            raw = {v.name: spec.weigher(v, vm, sla) for v in candidates}
            low, high = min(raw.values()), max(raw.values())
            span = high - low
            for name, value in raw.items():
                normalised = 0.5 if span <= 0 else (value - low) / span
                totals[name] += spec.weight * normalised
        return totals

    def schedule(self, views: Sequence[NodeView], vm: VirtualMachine,
                 sla: SLA) -> Placement:
        """Pick the best node or raise :class:`SchedulingError`."""
        candidates = self.feasible_nodes(views, vm, sla)
        if not candidates:
            raise SchedulingError(
                f"no feasible node for VM {vm.name!r} (tier {sla.name})"
            )
        scores = self._score(candidates, vm, sla)
        best = max(candidates, key=lambda v: (scores[v.name], v.name))
        return Placement(vm_name=vm.name, node=best.name,
                         score=scores[best.name])


class RoundRobinScheduler:
    """Baseline: rotate over whatever nodes have capacity."""

    def __init__(self) -> None:
        self._cursor = 0

    def schedule(self, views: Sequence[NodeView], vm: VirtualMachine,
                 sla: SLA) -> Placement:
        """Pick a node with capacity, rotating the cursor."""
        if not views:
            raise SchedulingError("no nodes registered")
        n = len(views)
        for i in range(n):
            view = views[(self._cursor + i) % n]
            if view.can_host(vm):
                self._cursor = (self._cursor + i + 1) % n
                return Placement(vm_name=vm.name, node=view.name, score=0.0)
        raise SchedulingError(
            f"no node with capacity for VM {vm.name!r}"
        )
