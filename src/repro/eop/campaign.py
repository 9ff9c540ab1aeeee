"""Error-injecting EOP campaigns: the governor's proving ground.

A campaign runs one fully characterised node under a chosen
:class:`~repro.eop.policy.EOPPolicy` while a deterministic error
injector feeds correctable errors into named components through the
event bus (so the HealthLog ledger — the governor's evidence — sees
them exactly as it would see organic hardware errors).  The reduction
answers the tentpole questions: did the governor demote every breaching
component, how fast, and how much of the clean-run energy saving
survived the rollbacks.

Everything derives from one seed and the injections are cumulative-count
deterministic, so same-seed campaigns replay bit-for-bit; a mid-campaign
snapshot can be resumed and must land on the same final state table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.exceptions import ConfigurationError

#: Fixed workload horizon: long enough that no campaign VM completes.
_VM_DURATION_CYCLES = 1e12


@dataclass(frozen=True)
class ErrorInjection:
    """A deterministic correctable-error storm against one component.

    Errors are spread evenly over the window at ``rate_per_s``; the
    count emitted by any step is the difference of cumulative counts at
    its endpoints, so the storm is independent of step size.
    """

    component: str
    start_s: float
    duration_s: float
    rate_per_s: float

    def __post_init__(self) -> None:
        if not self.component:
            raise ConfigurationError("injection component must be non-empty")
        if self.start_s < 0 or self.duration_s <= 0 or self.rate_per_s <= 0:
            raise ConfigurationError(
                "injection needs start >= 0, duration > 0 and rate > 0")

    def errors_before(self, t: float) -> int:
        """Cumulative errors injected strictly before time ``t``."""
        elapsed = min(max(0.0, t - self.start_s), self.duration_s)
        return int(math.floor(self.rate_per_s * elapsed + 1e-9))

    def as_dict(self) -> Dict[str, object]:
        """Plain-JSON form."""
        return {
            "component": self.component,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "rate_per_s": self.rate_per_s,
        }

    @classmethod
    def from_dict(cls, state: Dict[str, object]) -> "ErrorInjection":
        """Inverse of :meth:`as_dict`."""
        return cls(
            component=str(state["component"]),
            start_s=float(state["start_s"]),  # type: ignore[arg-type]
            duration_s=float(state["duration_s"]),  # type: ignore[arg-type]
            rate_per_s=float(state["rate_per_s"]),  # type: ignore[arg-type]
        )

    @classmethod
    def parse(cls, spec: str) -> "ErrorInjection":
        """Parse the CLI form ``COMPONENT:START:DURATION:RATE``."""
        parts = spec.split(":")
        if len(parts) != 4:
            raise ConfigurationError(
                f"injection spec {spec!r} is not COMPONENT:START:DURATION:RATE")
        try:
            return cls(component=parts[0], start_s=float(parts[1]),
                       duration_s=float(parts[2]), rate_per_s=float(parts[3]))
        except ValueError:
            raise ConfigurationError(
                f"injection spec {spec!r} has non-numeric fields") from None


@dataclass(frozen=True)
class EOPCampaignConfig:
    """One error-injecting campaign, fully specified."""

    duration_s: float = 1800.0
    step_s: float = 30.0
    seed: int = 0
    policy: str = "adopt-within-budget"
    n_vms: int = 4
    #: Optional knob overrides on the named policy.
    error_budget: Optional[int] = None
    probation_s: Optional[float] = None
    error_window_s: Optional[float] = None
    injections: Tuple[ErrorInjection, ...] = ()

    def __post_init__(self) -> None:
        if self.duration_s <= 0 or self.step_s <= 0:
            raise ConfigurationError("duration and step must be positive")
        if self.n_vms < 1:
            raise ConfigurationError("campaign needs at least one VM")

    def build_policy(self):
        """The named policy with any knob overrides applied."""
        from .policy import EOPPolicy

        policy = EOPPolicy.from_name(self.policy)
        overrides: Dict[str, object] = {}
        if self.error_budget is not None:
            overrides["error_budget"] = self.error_budget
        if self.probation_s is not None:
            overrides["probation_s"] = self.probation_s
        if self.error_window_s is not None:
            overrides["error_window_s"] = self.error_window_s
        return policy.with_overrides(**overrides) if overrides else policy

    def as_dict(self) -> Dict[str, object]:
        """Plain-JSON form."""
        return {
            "duration_s": self.duration_s,
            "step_s": self.step_s,
            "seed": self.seed,
            "policy": self.policy,
            "n_vms": self.n_vms,
            "error_budget": self.error_budget,
            "probation_s": self.probation_s,
            "error_window_s": self.error_window_s,
            "injections": [inj.as_dict() for inj in self.injections],
        }


@dataclass
class EOPCampaignResult:
    """One campaign, reduced to the governor's headline numbers."""

    label: str
    duration_s: float
    seed: int
    #: Lifetime transition counters (survive snapshot-resume with the
    #: metrics registry).
    adopted: int
    demotions: int
    promotions: int
    quarantines: int
    #: Seconds from each injection's start to the component's first
    #: demotion, for demotions observed in this process (a resumed run
    #: only sees post-snapshot transitions).
    demotion_delay_s: Dict[str, float]
    energy_saving_fraction: float
    state_counts: Dict[str, int]
    state_table: List[Dict[str, object]]
    transitions: List[Dict[str, object]] = field(default_factory=list)
    #: Mid-campaign snapshot when one was requested (excluded from
    #: reports and comparisons).
    snapshot: Optional[Dict[str, object]] = field(
        default=None, repr=False, compare=False)

    def describe(self) -> str:
        """Human-readable multi-line summary."""
        delays = ", ".join(
            f"{component}:{delay:.0f}s"
            for component, delay in sorted(self.demotion_delay_s.items()))
        return "\n".join([
            f"{self.label}: {self.duration_s:.0f}s, seed {self.seed}",
            f"  adopted={self.adopted} demotions={self.demotions} "
            f"promotions={self.promotions} quarantines={self.quarantines}",
            f"  energy_saving={self.energy_saving_fraction:.4f} "
            f"states={self.state_counts}",
            f"  demotion_delays=[{delays}]" if delays
            else "  demotion_delays=[]",
        ])

    def as_dict(self) -> Dict[str, object]:
        """Plain-JSON form (snapshot handle excluded)."""
        return {
            "label": self.label,
            "duration_s": self.duration_s,
            "seed": self.seed,
            "adopted": self.adopted,
            "demotions": self.demotions,
            "promotions": self.promotions,
            "quarantines": self.quarantines,
            "demotion_delay_s": dict(sorted(self.demotion_delay_s.items())),
            "energy_saving_fraction": self.energy_saving_fraction,
            "state_counts": self.state_counts,
            "state_table": self.state_table,
            "transitions": self.transitions,
        }


def _build_node(config: EOPCampaignConfig):
    """The campaign's node plus its VM fleet (built, not yet launched)."""
    from ..cloudmgr.node import ComputeNode
    from ..core.clock import SimClock
    from ..core.runtime import NodeRuntime
    from ..hypervisor.vm import make_vm_fleet
    from ..workloads.spec import spec_workload

    clock = SimClock()
    runtime = NodeRuntime(name="eopnode0", clock=clock, seed=config.seed)
    node = ComputeNode("eopnode0", runtime=runtime, characterize=True,
                       eop_policy=config.build_policy())
    fleet = make_vm_fleet(
        spec_workload("hmmer", duration_cycles=_VM_DURATION_CYCLES),
        config.n_vms)
    return clock, node, fleet


def _run_steps(config: EOPCampaignConfig, clock, node,
               start_step: int,
               snapshot_at_s: Optional[float]) -> Tuple[
                   List[Dict[str, object]], Optional[Dict[str, object]]]:
    """Drive the campaign loop; returns (transitions, snapshot)."""
    from ..core.clock import step_count
    from ..core.events import CorrectableErrorEvent, EOPTransitionEvent

    transitions: List[Dict[str, object]] = []

    def _on_transition(event: EOPTransitionEvent) -> None:
        transitions.append({
            "timestamp": event.timestamp,
            "component": event.component,
            "from_state": event.from_state,
            "to_state": event.to_state,
            "reason": event.reason,
        })

    unsubscribe = node.bus.subscribe(EOPTransitionEvent, _on_transition)
    snapshot: Optional[Dict[str, object]] = None
    snapshot_step = (None if snapshot_at_s is None
                     else max(1, step_count(snapshot_at_s, config.step_s)))
    n_steps = step_count(config.duration_s, config.step_s)
    try:
        for index in range(start_step, n_steps):
            now = clock.now
            for injection in config.injections:
                burst = (injection.errors_before(now + config.step_s)
                         - injection.errors_before(now))
                for _ in range(burst):
                    node.bus.publish(CorrectableErrorEvent(
                        timestamp=now, source="eop-injector",
                        component=injection.component,
                        detail="injected error storm"))
            node.step(config.step_s)
            clock.advance_by(config.step_s)
            if snapshot_step is not None and index + 1 == snapshot_step:
                snapshot = {
                    "step_index": index + 1,
                    "clock": clock.state_dict(),
                    "node": node.state_dict(),
                }
    finally:
        unsubscribe()
    return transitions, snapshot


def _reduce(config: EOPCampaignConfig, node,
            transitions: List[Dict[str, object]],
            snapshot: Optional[Dict[str, object]]) -> EOPCampaignResult:
    """Fold the run down to the headline numbers."""
    counter = node.runtime.metrics.counter
    demotion_delay: Dict[str, float] = {}
    starts = {inj.component: inj.start_s for inj in config.injections}
    for transition in transitions:
        component = str(transition["component"])
        if transition["to_state"] not in ("demoted", "quarantined"):
            continue
        if component in starts and component not in demotion_delay:
            demotion_delay[component] = (
                float(transition["timestamp"]) - starts[component])  # type: ignore[arg-type]
    return EOPCampaignResult(
        label=config.policy,
        duration_s=config.duration_s,
        seed=config.seed,
        adopted=int(counter("eop.adopted")),
        demotions=int(counter("eop.demoted")),
        promotions=int(counter("eop.promoted")),
        quarantines=int(counter("eop.quarantined")),
        demotion_delay_s=demotion_delay,
        energy_saving_fraction=node.energy_report().saving_fraction,
        state_counts=node.governor.counts(),
        state_table=node.governor.state_table(),
        transitions=transitions,
        snapshot=snapshot,
    )


def run_eop_campaign(config: EOPCampaignConfig,
                     snapshot_at_s: Optional[float] = None
                     ) -> EOPCampaignResult:
    """One seeded error-injecting campaign on a characterised node.

    With ``snapshot_at_s`` the node's full state is captured after the
    covering step and returned on ``result.snapshot`` for
    :func:`resume_eop_campaign`.
    """
    clock, node, fleet = _build_node(config)
    for vm in fleet:
        node.launch_vm(vm)
    transitions, snapshot = _run_steps(
        config, clock, node, start_step=0, snapshot_at_s=snapshot_at_s)
    return _reduce(config, node, transitions, snapshot)


def resume_eop_campaign(config: EOPCampaignConfig,
                        snapshot: Dict[str, object]) -> EOPCampaignResult:
    """Continue a campaign from a mid-run snapshot to its end.

    The node is rebuilt from the same config (the snapshot convention
    everywhere in this repo: rebuild the twin, then overlay state), the
    saved state loaded on top, and the remaining steps replayed.  A
    correct governor lands on the same final state table as the
    uninterrupted run.
    """
    clock, node, fleet = _build_node(config)
    shells = {vm.name: vm for vm in fleet}
    clock.load_state_dict(snapshot["clock"])  # type: ignore[arg-type]
    node.load_state_dict(snapshot["node"],  # type: ignore[arg-type]
                         vm_factory=lambda name: shells[name])
    transitions, _ = _run_steps(
        config, clock, node,
        start_step=int(snapshot["step_index"]),  # type: ignore[arg-type]
        snapshot_at_s=None)
    return _reduce(config, node, transitions, None)
