"""Low-cost countermeasures for EOP-specific threats.

Each countermeasure targets one attack surface from
:mod:`repro.security.threats` and carries a cost model (performance and
energy overhead), because the paper's constraint is that protections stay
*low cost* — a countermeasure that eats the EOP savings defeats the
purpose.  :func:`plan_countermeasures` picks the cheapest set that brings
a node's residual risk under a target.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.exceptions import ConfigurationError
from ..workloads.base import StressProfile
from .threats import (
    NodeExposure,
    ThreatAnalyzer,
    looks_like_stress_attack,
)


@dataclass(frozen=True)
class Countermeasure:
    """One deployable mitigation."""

    name: str
    surface: str
    #: Multiplier applied to the likelihood of threats on the surface.
    likelihood_reduction: float
    #: Performance overhead (fraction of throughput lost).
    performance_cost: float
    #: Energy overhead (fraction of the EOP saving given back).
    energy_cost: float
    description: str = ""

    def __post_init__(self) -> None:
        if not 0 <= self.likelihood_reduction <= 1:
            raise ConfigurationError("reduction must be in [0, 1]")
        if self.performance_cost < 0 or self.energy_cost < 0:
            raise ConfigurationError("costs must be >= 0")


STRESS_THROTTLER = Countermeasure(
    name="per-VM stress throttling",
    surface="voltage",
    likelihood_reduction=0.08,
    performance_cost=0.01,
    energy_cost=0.02,
    description=(
        "HealthLog-driven detector: guests sustaining virus-like droop "
        "signatures are frequency-capped; EOP nodes keep a dynamic guard "
        "margin while any guest is throttled."
    ),
)

REFRESH_GUARD = Countermeasure(
    name="activation-rate refresh guard",
    surface="refresh",
    likelihood_reduction=0.10,
    performance_cost=0.005,
    energy_cost=0.05,
    description=(
        "Row-activation counters temporarily restore nominal refresh on "
        "banks seeing adversarial activation patterns."
    ),
)

SENSOR_QUANTIZER = Countermeasure(
    name="sensor access control and quantisation",
    surface="sensors",
    likelihood_reduction=0.05,
    performance_cost=0.0,
    energy_cost=0.0,
    description=(
        "Guests get coarse, delayed, per-VM-normalised telemetry; raw "
        "per-component sensors stay host-only."
    ),
)

INTERFACE_AUTH = Countermeasure(
    name="authenticated margin interfaces",
    surface="interface",
    likelihood_reduction=0.05,
    performance_cost=0.0,
    energy_cost=0.0,
    description=(
        "Margin vectors are signed by the StressLog and verified by the "
        "hypervisor before adoption; out-of-range points are rejected."
    ),
)

COUNTERMEASURE_CATALOG = (
    STRESS_THROTTLER, REFRESH_GUARD, SENSOR_QUANTIZER, INTERFACE_AUTH,
)


@dataclass(frozen=True)
class MitigationPlan:
    """A chosen countermeasure set and its residual risk."""

    countermeasures: Tuple[Countermeasure, ...]
    residual_risk: float
    total_performance_cost: float
    total_energy_cost: float


def residual_risk(analyzer: ThreatAnalyzer, exposure: NodeExposure,
                  deployed: Sequence[Countermeasure]) -> float:
    """Aggregate risk with the given countermeasures deployed."""
    reduction: Dict[str, float] = {}
    for cm in deployed:
        reduction[cm.surface] = min(
            reduction.get(cm.surface, 1.0), cm.likelihood_reduction
        )
    survival = 1.0
    for entry in analyzer.assess(exposure):
        factor = reduction.get(entry.threat.surface, 1.0)
        survival *= 1.0 - entry.risk * factor
    return 1.0 - survival


def plan_countermeasures(exposure: NodeExposure,
                         risk_target: float = 0.05,
                         analyzer: Optional[ThreatAnalyzer] = None,
                         catalog: Sequence[Countermeasure]
                         = COUNTERMEASURE_CATALOG) -> MitigationPlan:
    """Greedy cheapest-first selection until the risk target is met.

    Countermeasures are added in increasing (performance + energy) cost
    order; selection stops as soon as the residual risk drops under the
    target, keeping the deployed set minimal.
    """
    if not 0 < risk_target < 1:
        raise ConfigurationError("risk target must be in (0, 1)")
    analyzer = analyzer or ThreatAnalyzer()
    chosen: List[Countermeasure] = []
    remaining = sorted(
        catalog, key=lambda cm: cm.performance_cost + cm.energy_cost
    )
    risk = residual_risk(analyzer, exposure, chosen)
    for cm in remaining:
        if risk <= risk_target:
            break
        candidate = chosen + [cm]
        new_risk = residual_risk(analyzer, exposure, candidate)
        if new_risk < risk:
            chosen = candidate
            risk = new_risk
    return MitigationPlan(
        countermeasures=tuple(chosen),
        residual_risk=risk,
        total_performance_cost=sum(c.performance_cost for c in chosen),
        total_energy_cost=sum(c.energy_cost for c in chosen),
    )


class StressThrottler:
    """Runtime enforcement of the stress-throttling countermeasure."""

    def __init__(self, frequency_cap_fraction: float = 0.7) -> None:
        if not 0 < frequency_cap_fraction <= 1:
            raise ConfigurationError("cap must be in (0, 1]")
        self.frequency_cap_fraction = frequency_cap_fraction
        self.throttled: List[str] = []

    def review_guest(self, vm_name: str,
                     profile: StressProfile) -> bool:
        """Throttle a guest whose profile looks like a stress attack.

        Returns ``True`` when the guest was (or stays) throttled.
        """
        if looks_like_stress_attack(profile):
            if vm_name not in self.throttled:
                self.throttled.append(vm_name)
            return True
        if vm_name in self.throttled:
            self.throttled.remove(vm_name)
        return False

    def effective_profile(self, vm_name: str,
                          profile: StressProfile) -> StressProfile:
        """The stress profile after throttling is applied."""
        if vm_name not in self.throttled:
            return profile
        cap = self.frequency_cap_fraction
        return replace(
            profile,
            droop_intensity=profile.droop_intensity * cap,
            activity_factor=profile.activity_factor * cap,
        )
