"""QoS enforcement: EOP selection bounded by per-VM guarantees.

Paper Section 4.A: the hypervisor's "best configuration depends on a
number of different parameters, including [...] the quality of service
(QoS) requirements introduced by the cloud management framework
(OpenStack)".  Energy knobs and guarantees pull in opposite directions —
a low-power V-F point that halves a core's frequency is free energy for
a batch guest and a violation for an interactive one.

:class:`QoSGuard` holds each VM's requirement (derived from its SLA
tier), answers what a core's resident guests permit, filters a
StressLog margin vector down to the admissible subset, and audits the
current platform configuration for violations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from ..core.exceptions import ConfigurationError
from ..core.runtime import MetricsRegistry, NodeRuntime
from ..daemons.infovector import ComponentMargin, MarginVector
from .hypervisor import Hypervisor


@dataclass(frozen=True)
class QoSRequirement:
    """Per-VM service guarantees the hypervisor must uphold.

    ``min_frequency_fraction`` floors the clock of any core the VM runs
    on; ``max_failure_probability`` caps how aggressive an EOP the
    host may adopt while the VM is resident.
    """

    min_frequency_fraction: float = 0.5
    max_failure_probability: float = 1e-3

    def __post_init__(self) -> None:
        if not 0.0 < self.min_frequency_fraction <= 1.0:
            raise ConfigurationError(
                "min_frequency_fraction must be in (0, 1]"
            )
        if not 0.0 < self.max_failure_probability <= 1.0:
            raise ConfigurationError(
                "max_failure_probability must be in (0, 1]"
            )


def requirement_from_sla(sla) -> QoSRequirement:
    """Derive a hypervisor QoS requirement from a cloud SLA tier."""
    return QoSRequirement(
        min_frequency_fraction=sla.min_frequency_fraction,
        max_failure_probability=sla.failure_budget,
    )


@dataclass(frozen=True)
class QoSViolation:
    """One detected guarantee breach."""

    vm_name: str
    core_id: int
    kind: str          # "frequency" or "reliability"
    detail: str


class QoSGuard:
    """Tracks per-VM requirements and gates EOP adoption against them."""

    def __init__(self, hypervisor: Hypervisor,
                 runtime: Optional[NodeRuntime] = None) -> None:
        self.hypervisor = hypervisor
        self.metrics = (runtime.metrics if runtime is not None
                        else MetricsRegistry())
        self._requirements: Dict[str, QoSRequirement] = {}

    # -- registration ------------------------------------------------------

    def register(self, vm_name: str,
                 requirement: QoSRequirement) -> None:
        """Attach a requirement to a (resident or future) VM."""
        self._requirements[vm_name] = requirement

    def unregister(self, vm_name: str) -> None:
        """Drop a VM's requirement (e.g. after termination)."""
        self._requirements.pop(vm_name, None)

    def requirement_for(self, vm_name: str) -> Optional[QoSRequirement]:
        """The VM's requirement, or None when unregistered."""
        return self._requirements.get(vm_name)

    def state_dict(self) -> Dict[str, object]:
        """Serializable guard state (per-VM requirements, in order)."""
        return {
            "requirements": {
                name: [req.min_frequency_fraction,
                       req.max_failure_probability]
                for name, req in self._requirements.items()
            },
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore the requirements saved by :meth:`state_dict`."""
        self._requirements = {
            str(name): QoSRequirement(min_frequency_fraction=float(row[0]),
                                      max_failure_probability=float(row[1]))
            for name, row in state["requirements"].items()  # type: ignore[union-attr]
        }

    # -- what a core's residents permit -----------------------------------------

    def _residents(self, core_id: int) -> List[str]:
        return [
            vm_name for vm_name, assigned
            in self.hypervisor._assignments.items()
            if assigned == core_id
            and self.hypervisor.vm(vm_name).is_active
        ]

    def core_frequency_floor(self, core_id: int) -> float:
        """Strictest frequency floor among the core's resident VMs."""
        floors = [
            self._requirements[vm].min_frequency_fraction
            for vm in self._residents(core_id)
            if vm in self._requirements
        ]
        return max(floors) if floors else 0.0

    def core_failure_ceiling(self, core_id: int) -> float:
        """Strictest failure-probability cap among residents."""
        caps = [
            self._requirements[vm].max_failure_probability
            for vm in self._residents(core_id)
            if vm in self._requirements
        ]
        return min(caps) if caps else 1.0

    def admits(self, core_id: int, margin: ComponentMargin) -> bool:
        """Whether the core's residents permit adopting this margin."""
        nominal = self.hypervisor.platform.chip.spec.nominal
        fraction = (margin.safe_point.frequency_hz
                    / nominal.frequency_hz)
        if fraction < self.core_frequency_floor(core_id) - 1e-12:
            return False
        return margin.failure_probability <= \
            self.core_failure_ceiling(core_id)

    # -- gating and auditing -------------------------------------------------------

    def filter_margins(self, vector: MarginVector) -> MarginVector:
        """The admissible subset of a StressLog margin vector.

        Core margins violating a resident VM's frequency floor or
        failure cap are dropped (the core stays at its current, safer
        point); memory-domain margins pass through — refresh relaxation
        does not affect guest performance guarantees.  Margins naming a
        component that is not a parseable core pass through untouched;
        downstream adoption decides what to do with them.
        """
        kept: List[ComponentMargin] = []
        for margin in vector.margins:
            core_id = Hypervisor._core_id(margin.component)
            if core_id is not None:
                if not self.admits(core_id, margin):
                    self.metrics.inc("hypervisor.qos.margins_rejected")
                    continue
            kept.append(margin)
        return replace(vector, margins=tuple(kept))

    def audit(self) -> List[QoSViolation]:
        """Guarantee breaches in the *current* platform configuration."""
        violations: List[QoSViolation] = []
        platform = self.hypervisor.platform
        nominal = platform.chip.spec.nominal
        for vm_name, core_id in self.hypervisor._assignments.items():
            requirement = self._requirements.get(vm_name)
            if requirement is None:
                continue
            vm = self.hypervisor.vm(vm_name)
            if not vm.is_active:
                continue
            point = platform.core_point(core_id)
            fraction = point.frequency_hz / nominal.frequency_hz
            if fraction < requirement.min_frequency_fraction - 1e-12:
                violations.append(QoSViolation(
                    vm_name=vm_name, core_id=core_id, kind="frequency",
                    detail=(f"core at {fraction * 100:.0f}% of nominal, "
                            f"floor {requirement.min_frequency_fraction * 100:.0f}%"),
                ))
            core = platform.chip.core(core_id)
            pfail = core.crash_probability(
                point, vm.workload.profile_at(vm.progress))
            if pfail > requirement.max_failure_probability:
                violations.append(QoSViolation(
                    vm_name=vm_name, core_id=core_id,
                    kind="reliability",
                    detail=(f"p_fail {pfail:.2e} exceeds cap "
                            f"{requirement.max_failure_probability:.0e}"),
                ))
        self.metrics.set_gauge("hypervisor.qos.violations",
                               float(len(violations)))
        return violations
