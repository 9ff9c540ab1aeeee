"""QEMU-style fault-injection campaign on hypervisor objects (Figure 4).

Methodology, mirroring Section 6.C: "for each statically allocated object
of the Hypervisor (total 16820 objects), we introduced, in independent
executions (total 5 executions), Silent Data Corruptions.  Afterwards,
for each execution we checked whether the data corruption resulted to a
non-responsive Hypervisor, and marked this object accordingly as crucial
or non-crucial".  The campaign runs both with and without VMs on top of
the victim hypervisor.

An injected SDC becomes fatal when (a) the corrupted object's state is
actually consumed during the observation window — far likelier under load
— and (b) the object is crucial, and (c) no checkpoint covers it.  The
optional :class:`~repro.hypervisor.checkpoint.CheckpointManager` lets the
resilience ablation measure how much selective protection buys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..core.exceptions import ConfigurationError
from .checkpoint import CheckpointManager
from .memory import PlacementPolicy
from .objects import ObjectCatalog

#: 64-bit data words per megabyte, for exposure arithmetic.
WORDS_PER_MB = 1024 * 1024 // 8


@dataclass
class InjectionReport:
    """Aggregated results of one campaign configuration."""

    loaded: bool
    executions: int
    fatal_by_category: Dict[str, int] = field(default_factory=dict)
    recovered_by_category: Dict[str, int] = field(default_factory=dict)
    injections_by_category: Dict[str, int] = field(default_factory=dict)
    #: Objects marked crucial (≥1 fatal outcome across executions).
    crucial_objects: Set[int] = field(default_factory=set)

    @property
    def total_fatal(self) -> int:
        """Fatal outcomes summed over categories."""
        return sum(self.fatal_by_category.values())

    @property
    def total_recovered(self) -> int:
        """Checkpoint recoveries summed over categories."""
        return sum(self.recovered_by_category.values())

    @property
    def total_injections(self) -> int:
        """Injections summed over categories."""
        return sum(self.injections_by_category.values())

    def fatal_rate(self, category: Optional[str] = None) -> float:
        """Fatal outcomes per injection (overall or for a category)."""
        if category is None:
            total = self.total_injections
            return self.total_fatal / total if total else 0.0
        injections = self.injections_by_category.get(category, 0)
        if not injections:
            return 0.0
        return self.fatal_by_category.get(category, 0) / injections

    def categories_by_sensitivity(self) -> List[Tuple[str, int]]:
        """(category, fatal count) sorted most-sensitive first."""
        return sorted(self.fatal_by_category.items(),
                      key=lambda kv: kv[1], reverse=True)


class FaultInjectionCampaign:
    """Runs SDC injections over the whole object catalog."""

    def __init__(self, catalog: Optional[ObjectCatalog] = None,
                 seed: int = 0) -> None:
        self.catalog = catalog or ObjectCatalog(seed=seed)
        self._seed = seed

    def run(self, loaded: bool, executions: int = 5,
            checkpoints: Optional[CheckpointManager] = None,
            ) -> InjectionReport:
        """One campaign configuration: every object × ``executions``.

        ``loaded`` selects whether VMs run on the victim hypervisor; with
        ``checkpoints`` active, consumed corruptions of protected objects
        are restored instead of counted fatal.
        """
        if executions < 1:
            raise ConfigurationError("executions must be >= 1")
        rng = np.random.default_rng(self._seed + (1 if loaded else 0))
        report = InjectionReport(loaded=loaded, executions=executions)
        if checkpoints is not None:
            checkpoints.snapshot()

        for obj in self.catalog:
            profile = self.catalog.profile(obj.category)
            p_consume = obj.activation_probability(loaded, profile)
            report.injections_by_category[obj.category] = (
                report.injections_by_category.get(obj.category, 0)
                + executions
            )
            for _ in range(executions):
                consumed = rng.random() < p_consume
                if not (consumed and obj.crucial):
                    continue
                if checkpoints is not None and \
                        checkpoints.handle_corruption(obj.object_id):
                    report.recovered_by_category[obj.category] = (
                        report.recovered_by_category.get(obj.category, 0) + 1
                    )
                    continue
                report.fatal_by_category[obj.category] = (
                    report.fatal_by_category.get(obj.category, 0) + 1
                )
                report.crucial_objects.add(obj.object_id)
        for category in self.catalog.categories():
            report.fatal_by_category.setdefault(category, 0)
            report.recovered_by_category.setdefault(category, 0)
        return report


@dataclass(frozen=True)
class TierExposure:
    """Fault-injection exposure of one memory tier.

    ``expected_critical_ue`` is the expected number of uncorrectable
    errors landing in *critical* data over one full pass of the tier —
    the quantity the HRM A/B campaign trades against refresh energy.
    """

    tier: str
    used_mb: float
    critical_mb: float
    raw_ber: float
    ecc_scheme: str
    ue_word_probability: float
    expected_critical_ue: float

    def as_dict(self) -> Dict[str, object]:
        """Canonical-JSON-friendly row."""
        return {
            "tier": self.tier,
            "used_mb": self.used_mb,
            "critical_mb": self.critical_mb,
            "raw_ber": self.raw_ber,
            "ecc_scheme": self.ecc_scheme,
            "ue_word_probability": self.ue_word_probability,
            "expected_critical_ue": self.expected_critical_ue,
        }


def tier_exposure_report(placement: PlacementPolicy,
                         temperature_c: Optional[float] = None,
                         ) -> List[TierExposure]:
    """Per-tier uncorrectable-error exposure of the current placement.

    For each tier present in the placement's memory system: the worst
    domain BER at the tier's refresh interval, the tier's ECC scheme's
    uncorrectable-word probability at that BER, and the expected
    critical-data UEs per full pass (critical words × UE probability).
    Strong tiers should show ~zero; an all-relaxed ablation shows the
    critical exposure the reliable/strong tier exists to remove.
    """
    usage = placement.tier_usage_mb()
    exposure = placement.exposure_by_tier()
    rows = []
    for tier in placement.memory.tiers():
        domains = placement.memory.domains_in_tier(tier)
        worst = max(domains, key=lambda d: d.ber(temperature_c))
        raw_ber = worst.ber(temperature_c)
        ue_prob = worst.uncorrectable_word_probability(temperature_c)
        critical_mb = exposure.get(tier, 0.0)
        rows.append(TierExposure(
            tier=tier,
            used_mb=usage.get(tier, 0.0),
            critical_mb=critical_mb,
            raw_ber=raw_ber,
            ecc_scheme=worst.ecc.name,
            ue_word_probability=ue_prob,
            expected_critical_ue=critical_mb * WORDS_PER_MB * ue_prob,
        ))
    return rows


@dataclass(frozen=True)
class LoadComparisonRow:
    """Figure 4's two series for one category."""

    category: str
    failures_loaded: int
    failures_unloaded: int


@dataclass
class Figure4Result:
    """The full Figure 4 reproduction: both campaigns side by side."""

    rows: List[LoadComparisonRow]
    loaded_report: InjectionReport
    unloaded_report: InjectionReport

    def load_amplification(self) -> float:
        """Overall loaded/unloaded fatal ratio (paper: ~an order of magnitude)."""
        unloaded = self.unloaded_report.total_fatal
        if unloaded == 0:
            return float("inf")
        return self.loaded_report.total_fatal / unloaded

    def sensitive_categories(self, top_n: int = 4) -> List[str]:
        """The most failure-prone categories under load."""
        ranked = self.loaded_report.categories_by_sensitivity()
        return [category for category, _ in ranked[:top_n]]

    def sensitivity_is_load_invariant(self, top_n: int = 4) -> bool:
        """Paper: "the sensitive data structures appear to be the same,
        irrespective of the load" — check the top-N sets coincide."""
        loaded = set(self.sensitive_categories(top_n))
        ranked = self.unloaded_report.categories_by_sensitivity()
        unloaded = {category for category, _ in ranked[:top_n]}
        return loaded == unloaded


def run_figure4_campaign(seed: int = 0, executions: int = 5,
                         checkpoints: Optional[CheckpointManager] = None,
                         catalog: Optional[ObjectCatalog] = None,
                         ) -> Figure4Result:
    """Both Figure 4 configurations (with and without workload)."""
    campaign = FaultInjectionCampaign(catalog=catalog, seed=seed)
    loaded = campaign.run(loaded=True, executions=executions,
                          checkpoints=checkpoints)
    unloaded = campaign.run(loaded=False, executions=executions,
                            checkpoints=checkpoints)
    rows = [
        LoadComparisonRow(
            category=category,
            failures_loaded=loaded.fatal_by_category.get(category, 0),
            failures_unloaded=unloaded.fatal_by_category.get(category, 0),
        )
        for category in campaign.catalog.categories()
    ]
    return Figure4Result(rows=rows, loaded_report=loaded,
                         unloaded_report=unloaded)
