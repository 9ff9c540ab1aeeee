"""The tiered-vs-uniform memory A/B (the ``repro hrm`` experiment).

Three arms share one deterministic per-node workload (hypervisor state,
VM-critical pages, tolerant data and application pages, sizes drawn from
counter-based hashes so any node can be evaluated in any process):

* ``tiered`` — :func:`~repro.hardware.dram.tiered_server_memory` with
  the :class:`~repro.hypervisor.memory.TierClassifier` placement matrix;
* ``all-nominal`` — the conservative baseline: every channel at nominal
  refresh behind SECDED;
* ``all-relaxed`` — the degenerate no-reliable-domain topology
  (``reliable_channel=None``) with every channel relaxed to the deep
  interval — the energy-greedy arm the tier layout must beat on
  expected critical uncorrectable errors.

Every metric is an analytic expectation (refresh power, ECC decoder
power, expected critical UEs per sweep), so the report is a pure
function of the config: byte-identical across runs, ``--jobs`` counts
and process boundaries by construction — the merge only reassembles
per-node rows in node order and sums with ``math.fsum``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial
from typing import Dict, List, Tuple

import numpy as np

from ..core.exceptions import ConfigurationError, WorkerError
from ..core.workers import farm
from ..fleet.state import shard_bounds
from ..fleet.vectors import counter_uniform, splitmix64
from ..hardware.dram import (
    DEFAULT_TIER_REFRESH_S,
    TIER_RELAXED,
    DramSystem,
    standard_server_memory,
    tiered_server_memory,
)
from ..hypervisor.fault_injection import tier_exposure_report
from ..hypervisor.memory import (
    CLASS_APPLICATION,
    CLASS_HYPERVISOR,
    CLASS_VM_CRITICAL,
    CLASS_VM_DATA,
    HYPERVISOR_BASE_MB,
    HYPERVISOR_PER_VM_MB,
    PlacementPolicy,
)

#: The A/B arms, in report order.
HRM_ARMS: Tuple[str, ...] = ("tiered", "all-nominal", "all-relaxed")

#: Counter-hash channels for the per-node draws (disjoint from the
#: fleet's step channels only by convention — the streams never mix
#: because the keys differ).
_CH_NODE_TEMP = 201
_CH_VM_SIZE = 202


@dataclass(frozen=True)
class HrmConfig:
    """Shape of the tiered-vs-uniform A/B."""

    n_nodes: int = 8
    seed: int = 0
    duration_s: float = 3600.0
    n_channels: int = 4
    dimm_gb: float = 8.0
    vms_per_node: int = 4
    vm_base_mb: float = 900.0
    vm_spread_mb: float = 600.0
    #: Fraction of a VM's memory that is criticality-sensitive (page
    #: tables, checkpoint images) and of its tolerant remainder that is
    #: raw application pages.
    vm_critical_fraction: float = 0.05
    vm_application_fraction: float = 0.4
    #: Ambient band the per-node temperatures are drawn from.
    temperature_base_c: float = 50.0
    temperature_spread_c: float = 8.0
    #: Aggregate access rate through each node's memory (for ECC
    #: decoder energy), split across domains by used capacity.
    accesses_per_s: float = 2e8

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ConfigurationError("hrm A/B needs at least one node")
        if self.duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        if self.n_channels < 2:
            raise ConfigurationError("hrm A/B needs >= 2 channels")
        if self.vms_per_node < 1:
            raise ConfigurationError("hrm A/B needs >= 1 VM per node")
        if not 0.0 <= self.vm_critical_fraction <= 0.5:
            raise ConfigurationError(
                "vm_critical_fraction must be in [0, 0.5]")
        if not 0.0 <= self.vm_application_fraction <= 1.0:
            raise ConfigurationError(
                "vm_application_fraction must be in [0, 1]")
        if self.accesses_per_s < 0:
            raise ConfigurationError("accesses_per_s cannot be negative")

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for canonical reports."""
        return asdict(self)

    @staticmethod
    def from_dict(state: Dict[str, object]) -> "HrmConfig":
        """Rebuild a config saved by :meth:`as_dict`."""
        return HrmConfig(**state)  # type: ignore[arg-type]


def _node_key(config: HrmConfig, node: int) -> np.uint64:
    """Stable per-node counter key (independent of jobs/chunking)."""
    with np.errstate(over="ignore"):
        return np.uint64(splitmix64(
            np.uint64(config.seed) * np.uint64(0x9E3779B97F4A7C15)
            ^ np.uint64(node)))


def node_temperature_c(config: HrmConfig, node: int) -> float:
    """Deterministic per-node ambient temperature."""
    u = float(counter_uniform(_node_key(config, node), _CH_NODE_TEMP))
    return (config.temperature_base_c
            + config.temperature_spread_c * (2.0 * u - 1.0))


def build_arm_node(config: HrmConfig, arm: str,
                   node: int) -> Tuple[DramSystem, PlacementPolicy]:
    """One node's memory system and fully placed allocation set."""
    if arm not in HRM_ARMS:
        raise ConfigurationError(f"unknown hrm arm {arm!r}")
    temperature = node_temperature_c(config, node)
    seed = config.seed * 100003 + node
    if arm == "tiered":
        memory = tiered_server_memory(
            n_channels=config.n_channels, dimm_gb=config.dimm_gb,
            temperature_c=temperature, seed=seed)
    elif arm == "all-nominal":
        memory = standard_server_memory(
            n_channels=config.n_channels, dimm_gb=config.dimm_gb,
            reliable_channel=0, seed=seed)
    else:
        # The degenerate topology: no reliable domain anywhere, every
        # channel relaxed to the deep interval behind baseline SECDED.
        memory = standard_server_memory(
            n_channels=config.n_channels, dimm_gb=config.dimm_gb,
            reliable_channel=None, seed=seed)
        memory.relax_all(DEFAULT_TIER_REFRESH_S[TIER_RELAXED])
    placement = PlacementPolicy(memory)
    key = _node_key(config, node)
    placement.place(
        "hypervisor",
        HYPERVISOR_BASE_MB + HYPERVISOR_PER_VM_MB * config.vms_per_node,
        critical=True, placement_class=CLASS_HYPERVISOR)
    for vm in range(config.vms_per_node):
        u = float(counter_uniform(key, _CH_VM_SIZE, np.uint64(vm)))
        total_mb = config.vm_base_mb + config.vm_spread_mb * u
        critical_mb = max(8.0, total_mb * config.vm_critical_fraction)
        tolerant_mb = total_mb - critical_mb
        app_mb = tolerant_mb * config.vm_application_fraction
        data_mb = tolerant_mb - app_mb
        name = f"vm{vm}"
        placement.place(name, critical_mb,
                        placement_class=CLASS_VM_CRITICAL)
        placement.place(name, data_mb, placement_class=CLASS_VM_DATA)
        placement.place(name, app_mb, placement_class=CLASS_APPLICATION)
    return memory, placement


def evaluate_node(config: HrmConfig, arm: str,
                  node: int) -> Dict[str, object]:
    """Analytic per-node metrics of one arm (a pure function)."""
    memory, placement = build_arm_node(config, arm, node)
    temperature = node_temperature_c(config, node)
    used_mb = sum(a.size_mb for a in placement.allocations)
    ecc_power = 0.0
    for domain in memory.domains():
        domain_used = sum(a.size_mb for a in placement.allocations
                          if a.domain == domain.name)
        share = domain_used / used_mb if used_mb else 0.0
        ecc_power += domain.ecc_power_w(config.accesses_per_s * share)
    exposure = tier_exposure_report(placement, temperature_c=temperature)
    return {
        "node": node,
        "temperature_c": temperature,
        "refresh_power_w": memory.refresh_power_w(),
        "ecc_power_w": ecc_power,
        "expected_critical_ue": math.fsum(
            row.expected_critical_ue for row in exposure),
        "exposure_mb": {row.tier: row.critical_mb for row in exposure},
        "spilled_mb": placement.spilled_mb(),
    }


def _evaluate_chunk(config_state: Dict[str, object],
                    bounds: Tuple[int, int]) -> List[Dict[str, object]]:
    """Worker entry point: all arms for nodes ``[lo, hi)``."""
    config = HrmConfig.from_dict(config_state)
    lo, hi = bounds
    return [
        {"node": node,
         "arms": {arm: evaluate_node(config, arm, node)
                  for arm in HRM_ARMS}}
        for node in range(lo, hi)
    ]


def _aggregate_arm(config: HrmConfig, arm: str,
                   rows: List[Dict[str, object]]) -> Dict[str, object]:
    """Fleet totals of one arm from per-node rows (node order)."""
    per_node = [row["arms"][arm] for row in rows]  # type: ignore[index]
    refresh_w = math.fsum(r["refresh_power_w"] for r in per_node)
    ecc_w = math.fsum(r["ecc_power_w"] for r in per_node)
    tiers: Dict[str, float] = {}
    for r in per_node:
        for tier, mb in r["exposure_mb"].items():  # type: ignore[union-attr]
            tiers[tier] = tiers.get(tier, 0.0) + mb
    return {
        "nodes": len(per_node),
        "refresh_power_w": refresh_w,
        "refresh_energy_j": refresh_w * config.duration_s,
        "ecc_power_w": ecc_w,
        "ecc_energy_j": ecc_w * config.duration_s,
        "energy_j": (refresh_w + ecc_w) * config.duration_s,
        "expected_critical_ue": math.fsum(
            r["expected_critical_ue"] for r in per_node),
        "critical_exposure_mb": {t: tiers[t] for t in sorted(tiers)},
        "spilled_mb": math.fsum(r["spilled_mb"] for r in per_node),
    }


def run_hrm_ab(config: HrmConfig, jobs: int = 1) -> Dict[str, object]:
    """Run the tiered-vs-uniform A/B; returns the canonical report.

    ``jobs`` only changes how the per-node evaluations are distributed:
    chunks are reassembled in node order and every reduction is an
    order-fixed ``fsum``, so the report bytes are jobs-invariant.
    """
    if jobs < 1:
        raise ConfigurationError("jobs must be >= 1")
    state = config.as_dict()
    bounds = shard_bounds(config.n_nodes, min(jobs, config.n_nodes))
    if len(bounds) == 1:
        chunks = [_evaluate_chunk(state, bounds[0])]
    else:
        chunks = []
        for attempt in farm(partial(_evaluate_chunk, state), bounds,
                            jobs=len(bounds)):
            if attempt.error is not None:
                raise WorkerError(f"hrm chunk {attempt.error}")
            chunks.append(attempt.result)
    rows = [row for chunk in chunks for row in chunk]
    arms = {arm: _aggregate_arm(config, arm, rows) for arm in HRM_ARMS}
    tiered = arms["tiered"]
    nominal = arms["all-nominal"]
    relaxed = arms["all-relaxed"]
    frontier = {
        "refresh_energy_savings_vs_nominal": (
            1.0 - tiered["refresh_energy_j"] / nominal["refresh_energy_j"]
            if nominal["refresh_energy_j"] else 0.0),
        "critical_ue_ratio_vs_relaxed": (
            tiered["expected_critical_ue"]
            / relaxed["expected_critical_ue"]
            if relaxed["expected_critical_ue"] else 0.0),
        "tiered_beats_nominal_energy": bool(
            tiered["refresh_energy_j"] < nominal["refresh_energy_j"]),
        "tiered_beats_relaxed_ue": bool(
            tiered["expected_critical_ue"]
            < relaxed["expected_critical_ue"]),
    }
    return {
        "version": 1,
        "config": state,
        "arms": arms,
        "frontier": frontier,
        "nodes": [
            {"node": row["node"],
             "temperature_c": row["arms"]["tiered"]["temperature_c"]}  # type: ignore[index]
            for row in rows
        ],
    }
