"""Hypervisor memory management and reliable-domain placement.

Two paper results live here:

* **Figure 3** — the hypervisor's memory footprint stays below 7 % of the
  total utilized memory while four LDBC VMs run, which "dictates placing
  the whole Hypervisor in a reliable-memory (operated at nominal V-F-R)
  domain can help ensure non-disruptive operation with low cost".
  :func:`hypervisor_footprint_mb` is the hypervisor's footprint model and
  :class:`FootprintSample` one instant's hypervisor/VM/application split.

* **Reliable-domain placement** — :class:`PlacementPolicy` allocates the
  hypervisor (and any structures marked critical) into the reliable
  refresh domain and VM pages into relaxed domains, and answers the
  question the resilience ablation (A3) asks: what is exposed when an
  error lands in a given domain?
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..core.exceptions import ConfigurationError
from ..hardware.dram import (
    MEMORY_TIERS,
    TIER_NORMAL,
    TIER_RELAXED,
    TIER_STRONG,
    DramSystem,
    MemoryDomain,
)

#: Default hypervisor resident footprint: base plus per-VM bookkeeping
#: (page tables, virtio queues, emulation state).
HYPERVISOR_BASE_MB = 200.0
HYPERVISOR_PER_VM_MB = 40.0

#: Placement classes a tier classifier buckets allocations into:
#: hypervisor state, VM-critical pages (page tables, checkpoint images),
#: tolerant VM data pages, and raw application pages.
CLASS_HYPERVISOR = "hypervisor"
CLASS_VM_CRITICAL = "vm_critical"
CLASS_VM_DATA = "vm_data"
CLASS_APPLICATION = "application"
PLACEMENT_CLASSES: Tuple[str, ...] = (
    CLASS_HYPERVISOR, CLASS_VM_CRITICAL, CLASS_VM_DATA, CLASS_APPLICATION,
)

#: Default placement-class → memory-tier mapping (the HRM matrix rows).
DEFAULT_TIER_MAP: Dict[str, str] = {
    CLASS_HYPERVISOR: TIER_STRONG,
    CLASS_VM_CRITICAL: TIER_NORMAL,
    CLASS_VM_DATA: TIER_RELAXED,
    CLASS_APPLICATION: TIER_RELAXED,
}

#: Spill order when a tier fills: critical data spills *up* (stronger
#: protection) before it ever spills down, tolerant data spills up only
#: as a last resort.
TIER_SPILL_ORDER: Dict[str, Tuple[str, ...]] = {
    TIER_STRONG: (TIER_STRONG, TIER_NORMAL, TIER_RELAXED),
    TIER_NORMAL: (TIER_NORMAL, TIER_STRONG, TIER_RELAXED),
    TIER_RELAXED: (TIER_RELAXED, TIER_NORMAL, TIER_STRONG),
}


@dataclass(frozen=True)
class TierClassifier:
    """Buckets placement classes into heterogeneous-reliability tiers."""

    tier_map: Mapping[str, str] = field(
        default_factory=lambda: dict(DEFAULT_TIER_MAP))

    def __post_init__(self) -> None:
        for cls, tier in self.tier_map.items():
            if cls not in PLACEMENT_CLASSES:
                raise ConfigurationError(f"unknown placement class {cls!r}")
            if tier not in MEMORY_TIERS:
                raise ConfigurationError(f"unknown memory tier {tier!r}")
        missing = set(PLACEMENT_CLASSES) - set(self.tier_map)
        if missing:
            raise ConfigurationError(
                f"tier map missing classes: {sorted(missing)}")

    def classify(self, placement_class: str) -> str:
        """Preferred tier for a placement class."""
        if placement_class not in PLACEMENT_CLASSES:
            raise ConfigurationError(
                f"unknown placement class {placement_class!r}")
        return self.tier_map[placement_class]


@dataclass(frozen=True)
class FootprintSample:
    """Memory accounting snapshot at one instant."""

    timestamp: float
    hypervisor_mb: float
    vm_mb: float
    application_mb: float

    @property
    def total_mb(self) -> float:
        """Hypervisor plus VM plus application megabytes."""
        return self.hypervisor_mb + self.vm_mb + self.application_mb

    @property
    def hypervisor_fraction(self) -> float:
        """The Figure 3 red line: hypervisor share of utilized memory."""
        total = self.total_mb
        return self.hypervisor_mb / total if total else 0.0


def hypervisor_footprint_mb(n_vms: int) -> float:
    """Hypervisor resident size with ``n_vms`` active VMs."""
    if n_vms < 0:
        raise ConfigurationError("n_vms must be non-negative")
    return HYPERVISOR_BASE_MB + HYPERVISOR_PER_VM_MB * n_vms


@dataclass(frozen=True)
class Allocation:
    """One memory allocation placed into a refresh domain.

    ``placement_class`` records what kind of data this is (HRM bucket);
    ``tier`` records the tier of the domain it actually landed in — they
    diverge when a full tier forces a spill.
    """

    owner: str
    size_mb: float
    domain: str
    critical: bool
    placement_class: str = CLASS_VM_DATA
    tier: str = TIER_RELAXED


class PlacementPolicy:
    """Places allocations across heterogeneous-reliability memory tiers.

    A :class:`TierClassifier` buckets each allocation's placement class
    into a preferred tier; within a tier, the emptiest domain wins, and a
    full tier spills along :data:`TIER_SPILL_ORDER` (critical data spills
    toward *stronger* tiers first).  On the paper's binary layout
    (reliable channel + relaxed channels) this reduces exactly to the
    original policy: critical allocations go to the reliable domain and
    everything else fills the relaxed domains.  With
    ``use_reliable_domain=False`` the policy degenerates to spreading
    everything across all memory — the ablation configuration showing
    why the paper isolates kernel state.
    """

    def __init__(self, memory: DramSystem,
                 use_reliable_domain: bool = True,
                 classifier: Optional[TierClassifier] = None) -> None:
        self.memory = memory
        self.use_reliable_domain = use_reliable_domain
        self.classifier = classifier or TierClassifier()
        self._allocations: List[Allocation] = []

    @property
    def allocations(self) -> List[Allocation]:
        """All live allocations."""
        return list(self._allocations)

    def _domain_usage_mb(self, domain_name: str) -> float:
        return sum(a.size_mb for a in self._allocations
                   if a.domain == domain_name)

    def _capacity_left_mb(self, domain: MemoryDomain) -> float:
        return domain.capacity_gb * 1024.0 - self._domain_usage_mb(domain.name)

    def place(self, owner: str, size_mb: float,
              critical: bool = False,
              placement_class: Optional[str] = None) -> Allocation:
        """Place one allocation; returns the placement decision.

        ``placement_class`` defaults from the legacy ``critical`` flag:
        critical allocations are hypervisor state, the rest are tolerant
        VM data.  Pass a class explicitly for finer HRM buckets
        (``vm_critical`` page tables/checkpoints, ``application`` pages).
        """
        if size_mb <= 0:
            raise ConfigurationError("allocation size must be positive")
        if placement_class is None:
            placement_class = CLASS_HYPERVISOR if critical else CLASS_VM_DATA
        preferred = self.classifier.classify(placement_class)
        target = self._choose_domain(size_mb, preferred, critical)
        if target is None:
            raise ConfigurationError(
                f"out of memory placing {size_mb:.0f} MB for {owner!r}"
            )
        allocation = Allocation(
            owner=owner, size_mb=size_mb, domain=target.name,
            critical=critical, placement_class=placement_class,
            tier=target.tier,
        )
        self._allocations.append(allocation)
        return allocation

    def _choose_domain(self, size_mb: float, preferred: str,
                       critical: bool) -> Optional[MemoryDomain]:
        """Emptiest domain in the preferred tier, spilling when full."""
        if not self.use_reliable_domain:
            # Ablation: ignore tiers entirely and spread across all memory
            # (the original A3 configuration, decision-identical).
            candidates = sorted(self.memory.domains(),
                                key=self._capacity_left_mb, reverse=True)
            if candidates and self._capacity_left_mb(candidates[0]) >= size_mb:
                return candidates[0]
            return None
        for tier in TIER_SPILL_ORDER[preferred]:
            domains = sorted(self.memory.domains_in_tier(tier),
                             key=self._capacity_left_mb, reverse=True)
            for domain in domains:
                if self._capacity_left_mb(domain) >= size_mb:
                    return domain
        return None

    def state_dict(self) -> Dict[str, object]:
        """Serializable placement state (live allocations, in order)."""
        return {
            "allocations": [
                [a.owner, a.size_mb, a.domain, a.critical,
                 a.placement_class, a.tier]
                for a in self._allocations
            ],
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore the allocations saved by :meth:`state_dict`.

        Allocations are restored verbatim — no re-placement — so the
        restored run sees the exact same domain occupancy.  Rows from
        snapshots predating the tier refactor (4 columns) reconstruct
        their class/tier from the ``critical`` flag and domain label.
        """
        restored = []
        for row in state["allocations"]:  # type: ignore[union-attr]
            owner, size_mb = str(row[0]), float(row[1])
            domain, critical = str(row[2]), bool(row[3])
            if len(row) >= 6:
                placement_class, tier = str(row[4]), str(row[5])
            else:
                placement_class = (CLASS_HYPERVISOR if critical
                                   else CLASS_VM_DATA)
                tier = (self.memory.domain(domain).tier
                        if domain in self.memory else TIER_RELAXED)
            restored.append(Allocation(
                owner=owner, size_mb=size_mb, domain=domain,
                critical=critical, placement_class=placement_class,
                tier=tier,
            ))
        self._allocations = restored

    def release(self, owner: str) -> int:
        """Free every allocation owned by ``owner``; returns the count."""
        kept = [a for a in self._allocations if a.owner != owner]
        freed = len(self._allocations) - len(kept)
        self._allocations = kept
        return freed

    def critical_exposure_mb(self) -> float:
        """Critical megabytes sitting in *relaxed* domains.

        Zero when the reliable-domain policy is active and intact; the
        A3 ablation shows this growing (and crashes following) when the
        policy is disabled.
        """
        relaxed_names = {d.name for d in self.memory.relaxed_domains()}
        return sum(
            a.size_mb for a in self._allocations
            if a.critical and a.domain in relaxed_names
        )

    def tier_usage_mb(self) -> Dict[str, float]:
        """Used megabytes per memory tier (every tier present, even empty)."""
        usage = {t: 0.0 for t in self.memory.tiers()}
        for a in self._allocations:
            usage[a.tier] = usage.get(a.tier, 0.0) + a.size_mb
        return usage

    def class_usage_mb(self) -> Dict[str, float]:
        """Used megabytes per placement class."""
        usage: Dict[str, float] = {}
        for a in self._allocations:
            usage[a.placement_class] = (
                usage.get(a.placement_class, 0.0) + a.size_mb)
        return usage

    def exposure_by_tier(self) -> Dict[str, float]:
        """Critical megabytes per tier — the fault-injection exposure map.

        Counts host-critical allocations *and* VM-critical pages (page
        tables, checkpoint images): critical MB in the strong tier is
        protected, while the same MB showing up under
        ``normal``/``relaxed`` is exposure an error-injection campaign
        can convert into crashes.
        """
        critical_classes = {CLASS_HYPERVISOR, CLASS_VM_CRITICAL}
        exposure = {t: 0.0 for t in self.memory.tiers()}
        for a in self._allocations:
            if a.critical or a.placement_class in critical_classes:
                exposure[a.tier] = exposure.get(a.tier, 0.0) + a.size_mb
        return exposure

    def spilled_mb(self) -> float:
        """Megabytes living outside their classifier-preferred tier."""
        return sum(
            a.size_mb for a in self._allocations
            if a.tier != self.classifier.classify(a.placement_class)
        )

    def critical_share(self, domain_name: str) -> Optional[float]:
        """Critical fraction of ``domain_name``'s *used* memory.

        ``None`` when nothing is allocated there: an error in an untouched
        page is harmless, and deciding that draws no random number.
        """
        used = self._domain_usage_mb(domain_name)
        if used <= 0:
            return None
        critical = sum(
            a.size_mb for a in self._allocations
            if a.domain == domain_name and a.critical
        )
        return critical / used

    def error_hits_critical(self, domain_name: str,
                            rng: np.random.Generator) -> bool:
        """Whether a bit error in ``domain_name`` lands on critical state:
        one uniform against :meth:`critical_share`."""
        share = self.critical_share(domain_name)
        if share is None:
            return False
        return bool(rng.random() < share)
