"""KVM-like error-resilient hypervisor (paper Section 4.A).

Manages VMs on one platform, adopts characterised EOPs within a failure
budget, masks hardware errors from guests, keeps its own state in the
reliable memory domain, isolates failing resources and selectively
checkpoints the structures the Figure 4 analysis marks as critical.
"""

from .checkpoint import CheckpointCostModel, CheckpointManager, CheckpointStats
from .fault_injection import (
    FaultInjectionCampaign,
    Figure4Result,
    InjectionReport,
    LoadComparisonRow,
    TierExposure,
    run_figure4_campaign,
    tier_exposure_report,
)
from .hypervisor import Hypervisor, HypervisorConfig, HypervisorStats
from .isolation import IsolationAction, IsolationManager, IsolationPolicy
from .memory import (
    Allocation,
    CLASS_APPLICATION,
    CLASS_HYPERVISOR,
    CLASS_VM_CRITICAL,
    CLASS_VM_DATA,
    DEFAULT_TIER_MAP,
    FootprintSample,
    HYPERVISOR_BASE_MB,
    HYPERVISOR_PER_VM_MB,
    PLACEMENT_CLASSES,
    PlacementPolicy,
    TIER_SPILL_ORDER,
    TierClassifier,
    hypervisor_footprint_mb,
)
from .objects import (
    CATEGORY_PROFILES,
    CategoryProfile,
    HypervisorObject,
    ObjectCatalog,
    SENSITIVE_CATEGORIES,
    TOTAL_OBJECTS,
)
from .vm import ACTIVE_STATES, VirtualMachine, VMState, make_vm_fleet
from .affinity import (
    AffinityAssignment,
    AffinityPlanner,
    naive_balanced_plan,
)

from .qos import (
    QoSGuard,
    QoSRequirement,
    QoSViolation,
    requirement_from_sla,
)

__all__ = [
    "QoSGuard", "QoSRequirement", "QoSViolation", "requirement_from_sla",
    "AffinityAssignment", "AffinityPlanner", "naive_balanced_plan",
    "CheckpointCostModel", "CheckpointManager", "CheckpointStats",
    "FaultInjectionCampaign", "Figure4Result", "InjectionReport", "LoadComparisonRow", "TierExposure",
    "run_figure4_campaign", "tier_exposure_report",
    "Hypervisor", "HypervisorConfig", "HypervisorStats",
    "IsolationAction", "IsolationManager", "IsolationPolicy",
    "Allocation", "FootprintSample", "HYPERVISOR_BASE_MB",
    "HYPERVISOR_PER_VM_MB", "PlacementPolicy", "hypervisor_footprint_mb",
    "CLASS_APPLICATION", "CLASS_HYPERVISOR", "CLASS_VM_CRITICAL",
    "CLASS_VM_DATA", "DEFAULT_TIER_MAP", "PLACEMENT_CLASSES",
    "TIER_SPILL_ORDER", "TierClassifier",
    "CATEGORY_PROFILES", "CategoryProfile", "HypervisorObject",
    "ObjectCatalog", "SENSITIVE_CATEGORIES", "TOTAL_OBJECTS",
    "ACTIVE_STATES", "VirtualMachine", "VMState", "make_vm_fleet",
]
