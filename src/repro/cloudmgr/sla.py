"""Service-level agreements and their tracking.

Paper Section 2: "The optimization of operations at the EOP in UniServer
is guided by the system requirements of the end-user for each VM, which
are typically communicated to the Cloud provider through Service Level
Agreements (SLAs)."  An SLA bounds how aggressively the platform may relax
margins under a VM: a gold-tier VM stays at nominal, a bronze-tier VM
tolerates the deepest characterised EOPs.

:class:`SLATracker` does the bookkeeping the scheduler and the TCO tool
consume: per-VM uptime, downtime, violations and achieved availability.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List

from ..core.exceptions import ConfigurationError


@dataclass(frozen=True)
class SLA:
    """One service-level agreement tier.

    Parameters
    ----------
    availability_target:
        Required fraction of time the VM is up (e.g. 0.999).
    failure_budget:
        Per-run hardware failure probability the VM tolerates; the
        hypervisor only adopts EOPs within this budget for the node.
    min_frequency_fraction:
        Performance floor: the scheduler will not place the VM on a node
        whose cores run below this fraction of nominal frequency.
    priority:
        Higher priorities win contended placements and migrate first.
    """

    name: str
    availability_target: float
    failure_budget: float
    min_frequency_fraction: float = 0.5
    priority: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.availability_target <= 1.0:
            raise ConfigurationError("availability target must be in (0, 1]")
        if not 0.0 < self.failure_budget <= 1.0:
            raise ConfigurationError("failure budget must be in (0, 1]")
        if not 0.0 < self.min_frequency_fraction <= 1.0:
            raise ConfigurationError(
                "min_frequency_fraction must be in (0, 1]"
            )


#: Conservative tier: user-facing, high-value workloads.  Nominal only.
GOLD = SLA("gold", availability_target=0.9999, failure_budget=1e-7,
           min_frequency_fraction=0.95, priority=2)

#: Balanced tier: modest EOPs allowed.
SILVER = SLA("silver", availability_target=0.999, failure_budget=1e-5,
             min_frequency_fraction=0.75, priority=1)

#: Aggressive tier: batch/background work chasing the deepest savings.
BRONZE = SLA("bronze", availability_target=0.99, failure_budget=1e-3,
             min_frequency_fraction=0.5, priority=0)

DEFAULT_TIERS = (GOLD, SILVER, BRONZE)


@dataclass
class SLARecord:
    """Accumulated service history for one VM."""

    sla: SLA
    uptime_s: float = 0.0
    downtime_s: float = 0.0
    violations: int = 0
    migrations: int = 0

    @property
    def availability(self) -> float:
        """Achieved availability (uptime over total time)."""
        total = self.uptime_s + self.downtime_s
        return self.uptime_s / total if total else 1.0

    @property
    def meets_target(self) -> bool:
        """Whether achieved availability meets the SLA target."""
        return self.availability >= self.sla.availability_target


class SLATracker:
    """Tracks SLA compliance across a fleet of VMs."""

    def __init__(self) -> None:
        self._records: Dict[str, SLARecord] = {}

    def state_dict(self) -> Dict[str, object]:
        """Serializable tracker state (SLA tiers are saved by value)."""
        return {
            "records": {
                name: {
                    "sla": asdict(record.sla),
                    "uptime_s": record.uptime_s,
                    "downtime_s": record.downtime_s,
                    "violations": record.violations,
                    "migrations": record.migrations,
                }
                for name, record in self._records.items()
            }
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore the tracker saved by :meth:`state_dict`."""
        self._records = {}
        for name, rec in state["records"].items():  # type: ignore[union-attr]
            self._records[str(name)] = SLARecord(
                sla=SLA(**rec["sla"]),
                uptime_s=float(rec["uptime_s"]),
                downtime_s=float(rec["downtime_s"]),
                violations=int(rec["violations"]),
                migrations=int(rec["migrations"]),
            )

    def register(self, vm_name: str, sla: SLA) -> None:
        """Start tracking a VM under a tier."""
        if vm_name in self._records:
            raise ConfigurationError(f"VM {vm_name!r} already tracked")
        self._records[vm_name] = SLARecord(sla=sla)

    def record(self, vm_name: str) -> SLARecord:
        """The service record of a tracked VM."""
        if vm_name not in self._records:
            raise KeyError(f"VM {vm_name!r} is not tracked")
        return self._records[vm_name]

    def sla_for(self, vm_name: str) -> SLA:
        """The SLA tier a VM is tracked under."""
        return self.record(vm_name).sla

    def account(self, vm_name: str, dt_s: float, up: bool) -> None:
        """Accrue ``dt_s`` of service time (up or down) for a VM."""
        if dt_s < 0:
            raise ConfigurationError("dt must be non-negative")
        record = self.record(vm_name)
        if up:
            record.uptime_s += dt_s
        else:
            record.downtime_s += dt_s
            if not record.meets_target:
                record.violations += 1

    def note_migration(self, vm_name: str) -> None:
        """Count one migration against a VM's record."""
        self.record(vm_name).migrations += 1

    def tracks(self, vm_name: str) -> bool:
        """Whether a VM is tracked."""
        return vm_name in self._records

    def tracked_vms(self) -> List[str]:
        """Names of all tracked VMs, sorted."""
        return sorted(self._records)

    def violations_total(self) -> int:
        """Summed SLA violations across the fleet."""
        return sum(r.violations for r in self._records.values())

    def availability_summary(self) -> Dict[str, float]:
        """Achieved availability per VM."""
        return {name: r.availability for name, r in self._records.items()}

    def fleet_meets_targets(self) -> bool:
        """Whether every tracked VM meets its target."""
        return all(r.meets_target for r in self._records.values())
