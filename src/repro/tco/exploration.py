"""Datacenter design-space exploration with the TCO tool.

The paper promises "a tool [...] for end-to-end estimation of the TCO
and data-center design exploration.  Among other parameters, the TCO
tool will consider specific requirements and architecture of both the
Cloud and the Edge."  This module implements that exploration: sweep
deployment site × server platform × margin policy, price every
configuration for a fixed service capacity, and extract the
cost/reliability Pareto set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Sequence

from ..core.exceptions import ConfigurationError
from .model import (
    DatacenterSpec,
    ServerSpec,
    TCOModel,
    apply_energy_efficiency,
    apply_yield_recovery,
)


@dataclass(frozen=True)
class MarginPolicy:
    """How aggressively a deployment uses Extended Operating Points.

    ``energy_gain`` is the EE factor the policy buys;
    ``failure_overhead`` is the fraction of capacity lost to masked
    errors, restarts and re-characterisation downtime — aggressive
    policies pay it back in extra provisioned servers.
    """

    name: str
    energy_gain: float
    failure_overhead: float
    recovered_yield: float

    def __post_init__(self) -> None:
        if self.energy_gain < 1.0:
            raise ConfigurationError("energy gain must be >= 1")
        if not 0.0 <= self.failure_overhead < 0.5:
            raise ConfigurationError("failure overhead must be in [0, 0.5)")
        if not 0 < self.recovered_yield <= 1:
            raise ConfigurationError("yield must be in (0, 1]")


CONSERVATIVE_POLICY = MarginPolicy(
    "conservative", energy_gain=1.0, failure_overhead=0.0,
    recovered_yield=0.85,
)
MODERATE_EOP_POLICY = MarginPolicy(
    "moderate-eop", energy_gain=1.8, failure_overhead=0.01,
    recovered_yield=0.92,
)
AGGRESSIVE_EOP_POLICY = MarginPolicy(
    "aggressive-eop", energy_gain=3.0, failure_overhead=0.04,
    recovered_yield=0.97,
)

DEFAULT_POLICIES = (CONSERVATIVE_POLICY, MODERATE_EOP_POLICY,
                    AGGRESSIVE_EOP_POLICY)


@dataclass(frozen=True)
class DesignPoint:
    """One explored configuration with its priced outcome."""

    site: str
    server: str
    policy: str
    n_servers: int
    fleet_tco_usd: float
    tco_per_capacity_usd: float
    effective_availability: float

    def dominates(self, other: "DesignPoint") -> bool:
        """Cheaper and at least as available (strictly better on one)."""
        no_worse = (self.tco_per_capacity_usd <= other.tco_per_capacity_usd
                    and self.effective_availability
                    >= other.effective_availability)
        strictly = (self.tco_per_capacity_usd < other.tco_per_capacity_usd
                    or self.effective_availability
                    > other.effective_availability)
        return no_worse and strictly


class DesignSpaceExplorer:
    """Prices every (site, server, policy) combination for a capacity."""

    def __init__(self, required_capacity_units: float = 1000.0,
                 capacity_per_server: float = 10.0,
                 base_availability: float = 0.9999) -> None:
        if required_capacity_units <= 0 or capacity_per_server <= 0:
            raise ConfigurationError("capacities must be positive")
        if not 0 < base_availability <= 1:
            raise ConfigurationError("availability must be in (0, 1]")
        self.required_capacity = required_capacity_units
        self.capacity_per_server = capacity_per_server
        self.base_availability = base_availability

    def price(self, site: DatacenterSpec, server: ServerSpec,
              policy: MarginPolicy) -> DesignPoint:
        """Price one configuration for the required capacity."""
        effective_per_server = (self.capacity_per_server
                                * (1.0 - policy.failure_overhead))
        n_servers = int(-(-self.required_capacity // effective_per_server))

        configured = apply_yield_recovery(
            apply_energy_efficiency(server, policy.energy_gain),
            policy.recovered_yield,
        )
        per_server = TCOModel(site).total(configured)
        fleet = per_server * n_servers
        availability = self.base_availability * (
            1.0 - policy.failure_overhead * 0.1)
        return DesignPoint(
            site=site.name,
            server=server.name,
            policy=policy.name,
            n_servers=n_servers,
            fleet_tco_usd=fleet,
            tco_per_capacity_usd=fleet / self.required_capacity,
            effective_availability=availability,
        )

    def explore(self, sites: Sequence[DatacenterSpec],
                servers: Sequence[ServerSpec],
                policies: Sequence[MarginPolicy] = DEFAULT_POLICIES,
                ) -> List[DesignPoint]:
        """Price the whole design space."""
        if not sites or not servers or not policies:
            raise ConfigurationError("empty design-space axis")
        return [
            self.price(site, server, policy)
            for site, server, policy
            in itertools.product(sites, servers, policies)
        ]


def cost_availability_pareto(points: Sequence[DesignPoint],
                             ) -> List[DesignPoint]:
    """Non-dominated configurations, cheapest first."""
    front = [
        candidate for candidate in points
        if not any(other.dominates(candidate) for other in points)
    ]
    return sorted(front, key=lambda p: p.tco_per_capacity_usd)


def cheapest_meeting_availability(points: Sequence[DesignPoint],
                                  min_availability: float) -> DesignPoint:
    """The SLA-style query: cheapest design at/above an availability."""
    feasible = [p for p in points
                if p.effective_availability >= min_availability]
    if not feasible:
        raise ConfigurationError(
            f"no design meets availability {min_availability}"
        )
    return min(feasible, key=lambda p: p.tco_per_capacity_usd)
