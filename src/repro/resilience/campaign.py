"""Chaos campaigns: seeded fault storms, and the policies-on/off A/B.

A *campaign* is one trace-driven rack run with a :class:`FaultPlan`
replayed against it by a :class:`ChaosEngine`, reduced to the headline
resilience numbers: fleet availability, SLA violations, MTTR (mean VM
service-restoration time) and evacuation success rate.  Every campaign
runs through :class:`~repro.persistence.campaign.PersistentCampaign`,
with or without a snapshot store; this module holds the result type
and the A/B runner.  The A/B runner replays the *same* plan twice —
once with the full degradation ladder (:meth:`DegradationConfig.on`),
once with a naive controller (:meth:`DegradationConfig.off`) — which
is the paper-style demonstration that graceful degradation recovers
most of the availability a lying, lossy, failing control path takes
away.

Everything derives from one seed, so campaigns replay bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, TYPE_CHECKING

from ..core.exceptions import ConfigurationError
from .chaos import FaultPlan

if TYPE_CHECKING:  # runtime imports are lazy: both import us
    from ..cloudmgr.simulation import RackExperiment
    from ..persistence.campaign import CampaignConfig


@dataclass
class CampaignResult:
    """One chaos campaign, reduced to its headline numbers."""

    label: str
    n_nodes: int
    duration_s: float
    seed: int
    plan_faults: int
    fleet_availability: float
    #: Mean VM service-restoration time; None when nothing went down.
    mttr_s: Optional[float]
    sla_violations: int
    evacuation_success_rate: float
    node_crashes: int
    recoveries: int
    failovers: int
    breaker_trips: int
    flaps: int
    heartbeats_missed: int
    admitted: int
    rejected: int
    completed: int
    injections: Dict[str, int] = field(default_factory=dict)
    #: The full experiment, for drill-down (excluded from comparisons).
    experiment: Optional["RackExperiment"] = field(
        default=None, repr=False, compare=False)

    def describe(self) -> str:
        """Human-readable multi-line summary."""
        mttr = f"{self.mttr_s:.0f}s" if self.mttr_s is not None else "n/a"
        return "\n".join([
            f"{self.label}: {self.n_nodes} nodes, "
            f"{self.duration_s:.0f}s, seed {self.seed}, "
            f"{self.plan_faults} planned faults",
            f"  availability={self.fleet_availability:.4f} "
            f"mttr={mttr} sla_violations={self.sla_violations}",
            f"  evac_success={self.evacuation_success_rate:.2f} "
            f"crashes={self.node_crashes} recoveries={self.recoveries} "
            f"failovers={self.failovers}",
            f"  breaker_trips={self.breaker_trips} flaps={self.flaps} "
            f"heartbeats_missed={self.heartbeats_missed}",
            f"  admitted={self.admitted} rejected={self.rejected} "
            f"completed={self.completed}",
        ])


@dataclass
class CampaignComparison:
    """The headline A/B: same fault plan, policies on vs off."""

    on: CampaignResult
    off: CampaignResult

    @property
    def availability_gain(self) -> float:
        """Availability recovered by the degradation policies."""
        return self.on.fleet_availability - self.off.fleet_availability

    @property
    def mttr_reduction_s(self) -> Optional[float]:
        """MTTR saved by the policies (None if either arm saw no outage)."""
        if self.on.mttr_s is None or self.off.mttr_s is None:
            return None
        return self.off.mttr_s - self.on.mttr_s

    def describe(self) -> str:
        """Human-readable A/B summary."""
        lines = [self.on.describe(), self.off.describe()]
        lines.append(
            f"delta: availability {self.availability_gain:+.4f}")
        if self.mttr_reduction_s is not None:
            lines.append(f"delta: mttr {-self.mttr_reduction_s:+.0f}s")
        return "\n".join(lines)


def run_chaos_ab(n_nodes: int = 4, duration_s: float = 3600.0,
                 seed: int = 0, rate_per_hour: float = 6.0,
                 intensity: float = 0.6,
                 plan: Optional[FaultPlan] = None,
                 base_rate_per_hour: float = 12.0,
                 step_s: float = 60.0,
                 jobs: int = 1) -> CampaignComparison:
    """Replay one fault plan with the degradation ladder on, then off.

    With no explicit ``plan``, a reproducible one is drawn from the
    seed.  Each arm is one
    :class:`~repro.persistence.campaign.PersistentCampaign` run in
    memory.  With ``jobs >= 2`` the two arms run concurrently in
    shared-nothing worker subprocesses (they are independent replays of
    the same plan, so running them serially wastes an idle core and 2×
    the wall clock).  The parallel path returns bit-identical headline
    numbers to the serial one, but the per-arm ``experiment`` drill-down
    handles stay behind in the workers and come back as ``None``.
    """
    # Lazy: persistence.campaign imports CampaignResult from here.
    from ..persistence.campaign import CampaignConfig, PersistentCampaign

    if jobs < 1:
        raise ConfigurationError("jobs must be >= 1")
    config = CampaignConfig(
        n_nodes=n_nodes, duration_s=duration_s, seed=seed,
        rate_per_hour=rate_per_hour, intensity=intensity,
        base_rate_per_hour=base_rate_per_hour, step_s=step_s,
        plan=plan.as_dict() if plan is not None else None).finalized()
    if jobs >= 2:
        return _run_chaos_ab_parallel(config)
    on = PersistentCampaign(replace(
        config, policies="on", label="policies-on")).run()
    off = PersistentCampaign(replace(
        config, policies="off", label="policies-off")).run()
    return CampaignComparison(on=on, off=off)


def _run_chaos_ab_parallel(config: "CampaignConfig") -> CampaignComparison:
    """Both A/B arms of ``config`` at once, through the sweep engine."""
    from ..core.exceptions import SweepError
    from ..sweep.engine import (
        SweepSpec,
        campaign_result_from_row,
        run_sweep,
    )

    spec = SweepSpec(
        seeds=(config.seed,), n_nodes=config.n_nodes,
        duration_s=config.duration_s, rate_per_hour=config.rate_per_hour,
        intensity=config.intensity,
        base_rate_per_hour=config.base_rate_per_hour,
        step_s=config.step_s, grid={"policies": ["on", "off"]},
        plan=config.plan)
    outcome = run_sweep(spec, jobs=2)
    if outcome.failures:
        failed = outcome.failures[0]
        raise SweepError(
            f"A/B arm {failed.point!r} failed after {failed.attempts} "
            f"attempts: {failed.error}")
    by_point = {row.point: row for row in outcome.rows}
    # The arm labels ride through CampaignResult.label; restore the
    # serial path's human-readable names.
    on = replace(campaign_result_from_row(by_point["policies=on"]),
                 label="policies-on")
    off = replace(campaign_result_from_row(by_point["policies=off"]),
                  label="policies-off")
    return CampaignComparison(on=on, off=off)
