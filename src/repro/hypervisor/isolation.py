"""Isolation of problematic processing and memory resources.

Paper Section 4.A: "the Hypervisor isolates problematic processing and
memory resources experiencing high error rates, as reported by the
HealthLog".  The :class:`IsolationManager` watches the fault ledger and
fences cores (removing them from the vCPU scheduler) and memory domains
(reverting them to nominal refresh and draining allocations) whose error
rates cross the policy thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from ..core.eop import NOMINAL_REFRESH_INTERVAL_S
from ..core.exceptions import ConfigurationError, IsolationError
from ..core.runtime import MetricsRegistry, NodeRuntime
from ..hardware.faults import FaultLedger
from ..hardware.platform import ServerPlatform


@dataclass(frozen=True)
class IsolationPolicy:
    """Thresholds that trigger isolation."""

    #: Errors within the window that fence a core.
    core_error_threshold: int = 5
    #: Errors within the window that revert a memory domain to nominal.
    domain_error_threshold: int = 3
    #: Sliding window (seconds).
    window_s: float = 600.0

    def __post_init__(self) -> None:
        if self.core_error_threshold < 1 or self.domain_error_threshold < 1:
            raise ConfigurationError("thresholds must be >= 1")
        if self.window_s <= 0:
            raise ConfigurationError("window must be positive")


@dataclass(frozen=True)
class IsolationAction:
    """One isolation decision taken by the manager."""

    timestamp: float
    resource: str
    kind: str           # "core" or "domain"
    error_count: int


class IsolationManager:
    """Fences cores and memory domains with high error rates."""

    def __init__(self, platform: ServerPlatform,
                 policy: Optional[IsolationPolicy] = None,
                 runtime: Optional[NodeRuntime] = None) -> None:
        self.platform = platform
        self.policy = policy or IsolationPolicy()
        self.metrics = (runtime.metrics if runtime is not None
                        else MetricsRegistry())
        self.actions: List[IsolationAction] = []
        self._isolated_domains: Set[str] = set()

    @property
    def isolated_domains(self) -> List[str]:
        """Memory domains currently fenced, sorted."""
        return sorted(self._isolated_domains)

    def _component_errors(self, ledger: FaultLedger, component: str,
                          now: float) -> int:
        return ledger.count(component=component,
                            since=now - self.policy.window_s)

    def review(self, ledger: FaultLedger, now: float) -> List[IsolationAction]:
        """Inspect the ledger and isolate anything above threshold.

        Returns the actions taken in this review.  Refuses to isolate the
        last usable core: a hypervisor with no cores is a crash, not a
        mitigation.
        """
        taken: List[IsolationAction] = []
        self.metrics.inc("hypervisor.isolation.reviews")

        for core in self.platform.chip.cores:
            if core.isolated:
                continue
            component = f"core{core.core_id}"
            errors = self._component_errors(ledger, component, now)
            if errors >= self.policy.core_error_threshold:
                active = [c for c in self.platform.chip.cores
                          if not c.isolated]
                if len(active) <= 1:
                    raise IsolationError(
                        f"cannot isolate {component}: it is the last "
                        "active core"
                    )
                core.isolate()
                action = IsolationAction(
                    timestamp=now, resource=component, kind="core",
                    error_count=errors,
                )
                self.actions.append(action)
                taken.append(action)
                self.metrics.inc("hypervisor.isolation.cores_fenced")

        for domain in self.platform.memory.domains():
            if domain.reliable or domain.name in self._isolated_domains:
                continue
            errors = self._component_errors(ledger, domain.name, now)
            if errors >= self.policy.domain_error_threshold:
                domain.set_refresh_interval(NOMINAL_REFRESH_INTERVAL_S)
                self._isolated_domains.add(domain.name)
                action = IsolationAction(
                    timestamp=now, resource=domain.name, kind="domain",
                    error_count=errors,
                )
                self.actions.append(action)
                taken.append(action)
                self.metrics.inc("hypervisor.isolation.domains_fenced")

        return taken

    def state_dict(self) -> dict:
        """Serializable manager state (core fences live on the cores)."""
        return {
            "actions": [[a.timestamp, a.resource, a.kind, a.error_count]
                        for a in self.actions],
            "isolated_domains": sorted(self._isolated_domains),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore the state saved by :meth:`state_dict`."""
        self.actions = [
            IsolationAction(timestamp=float(row[0]), resource=str(row[1]),
                            kind=str(row[2]), error_count=int(row[3]))
            for row in state["actions"]
        ]
        self._isolated_domains = {str(n) for n in state["isolated_domains"]}

    def release_core(self, core_id: int) -> None:
        """Return a fenced core to service (after re-characterisation)."""
        self.platform.chip.core(core_id).deisolate()
