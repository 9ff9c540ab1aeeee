"""Trace-driven cloud simulation: streams of incoming and terminating VMs.

Section 4.B requires the new scheduling policies to be "non-intrusive in
real-world scenarios where OpenStack would manage streams of incoming
and terminating VMs".  This module closes the loop between the
synthetic arrival traces (:mod:`repro.workloads.traces`) and the
:class:`~repro.cloudmgr.cloud.CloudController`: VMs arrive on the trace's
schedule, run for their drawn lifetimes, and terminate; rejected
arrivals (no feasible node) are counted rather than crashing the
simulation, because admission pressure is part of what the experiment
measures.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..core.exceptions import ConfigurationError, SchedulingError
from ..hypervisor.vm import VirtualMachine
from ..workloads.traces import ArrivalEvent, TraceConfig, TraceGenerator
from .cloud import CloudController
from .sla import BRONZE, GOLD, SILVER, SLA

TIER_MAP: Dict[str, SLA] = {
    "gold": GOLD,
    "silver": SILVER,
    "bronze": BRONZE,
}

#: Nominal core frequency the admission scaling assumes.
NOMINAL_HZ = 2.4e9


def vm_from_event(event: ArrivalEvent) -> VirtualMachine:
    """The VM shell an arrival event admits.

    Scales the workload so it runs for roughly the drawn lifetime at
    nominal frequency; the VM terminates on its departure time
    regardless (interactive services do not "complete").  Shared by the
    live admission path and the snapshot-restore VM factory so both
    rebuild identical shells.
    """
    workload = event.workload.scaled(
        max(0.01, event.lifetime_s * NOMINAL_HZ
            / event.workload.duration_cycles))
    return VirtualMachine(name=event.vm_name, workload=workload)


@dataclass
class SimulationStats:
    """Outcome counters of one trace-driven run."""

    arrivals: int = 0
    admitted: int = 0
    rejected: int = 0
    terminated: int = 0
    rejected_by_tier: Dict[str, int] = field(default_factory=dict)

    @property
    def admission_rate(self) -> float:
        """Admitted arrivals as a fraction of all arrivals."""
        return self.admitted / self.arrivals if self.arrivals else 1.0


class TraceDrivenSimulation:
    """Feeds an arrival trace through a cloud controller."""

    def __init__(self, cloud: CloudController,
                 events: Sequence[ArrivalEvent],
                 step_s: float = 60.0) -> None:
        if step_s <= 0:
            raise ConfigurationError("step must be positive")
        self.cloud = cloud
        self.events = sorted(events, key=lambda e: e.timestamp)
        self.step_s = step_s
        self.stats = SimulationStats()
        self._departures: Dict[str, float] = {}
        #: Min-heap of (departure_time, vm_name) with lazy deletion —
        #: ``_departures`` stays the source of truth (and the persisted
        #: form); stale heap entries are skipped on pop.
        self._departure_heap: List[Tuple[float, str]] = []
        self._next_event = 0
        self.now = 0.0

    # -- persistence ---------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Serializable simulation-loop state (the trace itself is
        regenerated from config on rebuild, not saved)."""
        return {
            "stats": {
                "arrivals": self.stats.arrivals,
                "admitted": self.stats.admitted,
                "rejected": self.stats.rejected,
                "terminated": self.stats.terminated,
                "rejected_by_tier": dict(self.stats.rejected_by_tier),
            },
            "departures": dict(self._departures),
            "next_event": self._next_event,
            "now": self.now,
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore the loop saved by :meth:`state_dict`."""
        stats = state["stats"]
        self.stats = SimulationStats(
            arrivals=int(stats["arrivals"]),  # type: ignore[index]
            admitted=int(stats["admitted"]),  # type: ignore[index]
            rejected=int(stats["rejected"]),  # type: ignore[index]
            terminated=int(stats["terminated"]),  # type: ignore[index]
            rejected_by_tier={str(k): int(v) for k, v
                              in stats["rejected_by_tier"].items()},  # type: ignore[index]
        )
        self._departures = {str(k): float(v) for k, v
                            in state["departures"].items()}  # type: ignore[union-attr]
        self._departure_heap = [(when, name) for name, when
                                in self._departures.items()]
        heapq.heapify(self._departure_heap)
        self._next_event = int(state["next_event"])  # type: ignore[arg-type]
        self.now = float(state["now"])  # type: ignore[arg-type]

    def _admit(self, event: ArrivalEvent, now: float) -> None:
        sla = TIER_MAP[event.tier]
        vm = vm_from_event(event)
        self.stats.arrivals += 1
        try:
            self.cloud.launch(vm, sla)
        except SchedulingError:
            self.stats.rejected += 1
            self.stats.rejected_by_tier[event.tier] = (
                self.stats.rejected_by_tier.get(event.tier, 0) + 1)
            return
        self.stats.admitted += 1
        departure = now + event.lifetime_s
        self._departures[event.vm_name] = departure
        heapq.heappush(self._departure_heap, (departure, event.vm_name))

    def _terminate_departed(self, now: float) -> None:
        # Pop only what is due: O(departed log n) per step instead of a
        # linear scan over every pending VM.
        while self._departure_heap and self._departure_heap[0][0] <= now:
            departure, vm_name = heapq.heappop(self._departure_heap)
            if self._departures.get(vm_name) != departure:
                # Stale entry (lazy deletion): superseded or restored.
                continue
            del self._departures[vm_name]
            try:
                node = self.cloud.locate(vm_name)
            except KeyError:
                # Completed or lost before its departure time.
                self.cloud.forget_vm(vm_name)
                self.stats.terminated += 1
                continue
            node.hypervisor.destroy_vm(vm_name)
            node.qos.unregister(vm_name)
            self.cloud.forget_vm(vm_name)
            self.stats.terminated += 1

    def step_once(self) -> None:
        """Advance the simulation by exactly one step.

        Order is load-bearing (the crash-safe runtime replays it
        verbatim): admit due arrivals, advance the controller, advance
        the clock, then terminate VMs past their lifetimes.
        """
        now = self.now
        while (self._next_event < len(self.events)
               and self.events[self._next_event].timestamp <= now):
            self._admit(self.events[self._next_event], now)
            self._next_event += 1
        self.cloud.step(self.step_s)
        self.cloud.clock.advance_by(self.step_s)
        now += self.step_s
        self.now = now
        self._terminate_departed(now)

    def run(self, duration_s: float) -> SimulationStats:
        """Run the whole trace window.

        Each step: admit due arrivals, advance the controller, terminate
        VMs past their lifetimes.
        """
        if duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        while self.now < duration_s:
            self.step_once()
        return self.stats

    def active_vm_count(self) -> int:
        """VMs currently resident across the rack."""
        return sum(len(node.hypervisor.vms)
                   for node in self.cloud.node_list())


@dataclass
class RackExperiment:
    """Everything one seeded rack run produced."""

    cloud: CloudController
    stats: SimulationStats

    def metrics_snapshot(self) -> Dict[str, dict]:
        """Per-node cross-layer metrics (see CloudController)."""
        return self.cloud.metrics_snapshot()


def build_rack_simulation(n_nodes: int = 4, duration_s: float = 3600.0,
                          seed: int = 0,
                          characterize: bool = False,
                          eop_policy=None,
                          proactive_migration: bool = True,
                          base_rate_per_hour: float = 12.0,
                          step_s: float = 60.0,
                          degradation=None,
                          fault_plan=None,
                          scheduler=None,
                          predictor=None) -> TraceDrivenSimulation:
    """One fully seeded rack world, built but not yet stepped.

    N full UniServer nodes share one clock under a
    :class:`CloudController`, fed the arrival trace drawn for the
    ``duration_s`` window.  Everything stochastic — per-node fault
    draws, the arrival trace, any chaos injections — derives from the
    single ``seed``, so the run is reproducible bit-for-bit: placements,
    migrations and the metrics snapshot are identical across same-seed
    invocations.  This is the one place the object-stack rack world is
    composed; :func:`run_rack_experiment` runs it to the end, and the
    crash-safe :class:`~repro.persistence.campaign.PersistentCampaign`
    steps it.

    ``degradation`` (a :class:`~repro.resilience.policies.DegradationConfig`)
    tunes the controller's graceful-degradation ladder; ``fault_plan``
    (a :class:`~repro.resilience.chaos.FaultPlan`) attaches a chaos
    engine injecting control-plane faults against it.  ``eop_policy``
    (a :class:`~repro.eop.EOPPolicy`) sets every node's margin-adoption
    stance; None keeps the per-node default.

    ``scheduler`` (e.g. a :class:`~repro.cloudmgr.scheduler.FilterScheduler`
    armed with ``RISK_AWARE_WEIGHERS``) and ``predictor`` (installed as
    every node's local risk predictor) select the prediction arm — the
    A/B surface of ``bench_failure_prediction``.
    """
    from ..core.clock import SimClock
    from ..resilience.chaos import ChaosEngine
    from .node import build_rack

    if n_nodes < 1:
        raise ConfigurationError("the rack needs at least one node")
    clock = SimClock()
    nodes = build_rack(n_nodes, clock=clock, seed=seed,
                       characterize=characterize,
                       eop_policy=eop_policy)
    chaos = ChaosEngine(fault_plan) if fault_plan is not None else None
    cloud = CloudController(clock, nodes,
                            scheduler=scheduler,
                            predictor=predictor,
                            proactive_migration=proactive_migration,
                            degradation=degradation,
                            chaos=chaos, control_seed=seed)
    generator = TraceGenerator(
        TraceConfig(base_rate_per_hour=base_rate_per_hour), seed=seed)
    return TraceDrivenSimulation(cloud, generator.generate(duration_s),
                                 step_s=step_s)


def run_rack_experiment(n_nodes: int = 4, duration_s: float = 3600.0,
                        seed: int = 0,
                        characterize: bool = False,
                        eop_policy=None,
                        proactive_migration: bool = True,
                        base_rate_per_hour: float = 12.0,
                        step_s: float = 60.0,
                        degradation=None,
                        fault_plan=None,
                        scheduler=None,
                        predictor=None) -> RackExperiment:
    """One fully seeded rack run: :func:`build_rack_simulation`, run
    over its whole ``duration_s`` window."""
    simulation = build_rack_simulation(
        n_nodes=n_nodes, duration_s=duration_s, seed=seed,
        characterize=characterize, eop_policy=eop_policy,
        proactive_migration=proactive_migration,
        base_rate_per_hour=base_rate_per_hour, step_s=step_s,
        degradation=degradation, fault_plan=fault_plan,
        scheduler=scheduler, predictor=predictor)
    stats = simulation.run(duration_s)
    return RackExperiment(cloud=simulation.cloud, stats=stats)
