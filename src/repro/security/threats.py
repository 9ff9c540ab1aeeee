"""Security-threat analysis for operation under Extended Operating Points.

Paper innovation (viii): "analyze security threats in servers operating
under the new EOP and provide low cost countermeasures."  Exposing
margin/voltage/refresh knobs and fine-grained sensors to software creates
attack surface that conservative platforms simply do not have:

* **stress-induced fault attacks** — a malicious co-located VM runs a
  power-virus-like kernel to push a node operating near its EOP over the
  crash point, faulting victim VMs (an undervolting fault attack);
* **retention abuse** — adversarial access patterns on a refresh-relaxed
  domain raise the effective error rate in neighbouring data;
* **sensor side channels** — per-component power/temperature telemetry
  leaks co-tenant activity;
* **margin-interface abuse** — compromising the daemon interfaces lets an
  attacker publish unsafely aggressive margins.

The analyzer scores each threat for a concrete node configuration: a
node at nominal with no co-tenancy carries near-zero EOP-specific risk;
an aggressively undervolted multi-tenant node carries the most.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..core.exceptions import ConfigurationError
from ..workloads.base import StressProfile


@dataclass(frozen=True)
class Threat:
    """One catalogued threat."""

    name: str
    description: str
    #: Base likelihood in [0, 1] on a maximally exposed configuration.
    base_likelihood: float
    #: Impact severity in [0, 1].
    impact: float
    #: Which knob exposes it: "voltage", "refresh", "sensors", "interface".
    surface: str

    def __post_init__(self) -> None:
        if not 0 <= self.base_likelihood <= 1 or not 0 <= self.impact <= 1:
            raise ConfigurationError("likelihood/impact are in [0, 1]")


STRESS_ATTACK = Threat(
    name="stress-induced fault attack",
    description=(
        "A co-located VM runs a dI/dt stress kernel to drive a node "
        "operating near its EOP below the crash point, faulting victims."
    ),
    base_likelihood=0.6,
    impact=0.9,
    surface="voltage",
)

RETENTION_ABUSE = Threat(
    name="refresh-relaxation retention abuse",
    description=(
        "Adversarial row-activation patterns on a relaxed-refresh domain "
        "accelerate charge loss in neighbouring victim rows."
    ),
    base_likelihood=0.4,
    impact=0.7,
    surface="refresh",
)

SENSOR_SIDE_CHANNEL = Threat(
    name="telemetry side channel",
    description=(
        "Fine-grained power/temperature sensors exposed to guests leak "
        "co-tenant activity patterns (keys, workload fingerprints)."
    ),
    base_likelihood=0.5,
    impact=0.5,
    surface="sensors",
)

MARGIN_INTERFACE_ABUSE = Threat(
    name="margin-interface abuse",
    description=(
        "A compromised daemon channel publishes unsafe margins, turning "
        "the EOP mechanism itself into a fault-injection primitive."
    ),
    base_likelihood=0.2,
    impact=1.0,
    surface="interface",
)

THREAT_CATALOG = (
    STRESS_ATTACK, RETENTION_ABUSE, SENSOR_SIDE_CHANNEL,
    MARGIN_INTERFACE_ABUSE,
)


@dataclass(frozen=True)
class NodeExposure:
    """Security-relevant posture of one node configuration."""

    #: Deepest fractional undervolt adopted across cores (0 = nominal).
    voltage_margin_used: float
    #: Worst refresh relaxation factor across domains (1 = nominal).
    refresh_relaxation: float
    #: Whether multiple tenants share the node.
    multi_tenant: bool
    #: Whether guests can read fine-grained sensors.
    sensors_exposed_to_guests: bool
    #: Whether daemon interfaces are authenticated.
    margin_interface_authenticated: bool

    def __post_init__(self) -> None:
        if self.voltage_margin_used < 0:
            raise ConfigurationError("margin used must be >= 0")
        if self.refresh_relaxation < 1:
            raise ConfigurationError("relaxation factor must be >= 1")


@dataclass(frozen=True)
class RiskEntry:
    """Assessed risk of one threat on one configuration."""

    threat: Threat
    likelihood: float
    risk: float

    @property
    def severity(self) -> str:
        """Qualitative severity bucket for the risk value."""
        if self.risk >= 0.4:
            return "high"
        if self.risk >= 0.1:
            return "medium"
        return "low"


class ThreatAnalyzer:
    """Scores the threat catalog against a node's exposure."""

    def __init__(self, catalog: Sequence[Threat] = THREAT_CATALOG) -> None:
        if not catalog:
            raise ConfigurationError("threat catalog cannot be empty")
        self.catalog = tuple(catalog)

    def _exposure_factor(self, threat: Threat,
                         exposure: NodeExposure) -> float:
        """How much of the threat's base likelihood this config realises."""
        if threat.surface == "voltage":
            # No margin spent, or single tenant => no co-located attacker.
            if not exposure.multi_tenant:
                return 0.05
            return min(1.0, exposure.voltage_margin_used / 0.15)
        if threat.surface == "refresh":
            if exposure.refresh_relaxation <= 1.0:
                return 0.0
            import math
            return min(1.0, math.log2(exposure.refresh_relaxation) / 6.0) \
                * (1.0 if exposure.multi_tenant else 0.3)
        if threat.surface == "sensors":
            return 1.0 if exposure.sensors_exposed_to_guests else 0.1
        if threat.surface == "interface":
            return 0.15 if exposure.margin_interface_authenticated else 1.0
        raise ConfigurationError(f"unknown surface {threat.surface!r}")

    def assess(self, exposure: NodeExposure) -> List[RiskEntry]:
        """Risk register for one node, sorted most severe first."""
        entries = []
        for threat in self.catalog:
            likelihood = (threat.base_likelihood
                          * self._exposure_factor(threat, exposure))
            entries.append(RiskEntry(
                threat=threat,
                likelihood=likelihood,
                risk=likelihood * threat.impact,
            ))
        return sorted(entries, key=lambda e: e.risk, reverse=True)

    def overall_risk(self, exposure: NodeExposure) -> float:
        """1 − Π(1 − risk): probability-like aggregate of the register."""
        survival = 1.0
        for entry in self.assess(exposure):
            survival *= 1.0 - entry.risk
        return 1.0 - survival


def looks_like_stress_attack(profile: StressProfile,
                             droop_threshold: float = 0.9,
                             activity_threshold: float = 0.95) -> bool:
    """Signature check: does a workload profile resemble a power virus?

    Real-life workloads stay well below virus-level droop (Section 3.B) —
    the heaviest SPEC-class codes reach droop ≈0.8 with activity ≈0.9,
    so the thresholds sit just above that to avoid throttling legitimate
    guests while still catching every hand-coded or GA-evolved virus.
    """
    return (profile.droop_intensity >= droop_threshold
            or (profile.activity_factor >= activity_threshold
                and profile.droop_intensity >= 0.85))
