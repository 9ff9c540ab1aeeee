"""Fleet configuration and struct-of-arrays fleet state.

The scalar stack models one node as a graph of Python objects; at a
thousand nodes the per-step attribute churn dominates the run.  The
fleet layer flips the layout: one :class:`FleetState` holds every
per-node quantity as a numpy array (struct-of-arrays), and the batch
models in :mod:`repro.fleet.vectors` advance a whole shard per call.

Two invariants make the layout safe to shard:

* every dynamic array is indexed by node (shape ``(n,)``, or
  ``(n, lanes)`` with reductions only along axis 1), so stepping a
  contiguous slice of nodes touches no other node's state; and
* the static per-component arrays (core Vmin spread, DRAM retention
  weakness) are pure functions of the per-node counter keys, which
  derive from the same ``SeedSequence`` spawn discipline the scalar
  rack uses — a rebuilt shard always regenerates them bit-identically.

``state_dict``/``load_state_dict`` round-trip only the dynamic arrays;
statics are regenerated from :class:`FleetConfig` on rebuild, mirroring
the rebuild-from-config-then-overlay protocol of
:class:`~repro.persistence.campaign.PersistentCampaign`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..core.exceptions import ConfigurationError


@dataclass(frozen=True)
class FleetConfig:
    """Shape and physics of a homogeneous vectorized fleet.

    The hardware constants mirror the scalar models —
    :class:`~repro.hardware.power.CorePowerModel` (CV²fα dynamic power,
    exponential voltage/temperature leakage),
    :class:`~repro.hardware.thermal.ThermalModel` (exact-exponential RC
    step, temperature-halved DRAM retention) and the margin/droop
    sampling of the PDN layer — reduced to the per-step hot path.
    """

    n_nodes: int = 64
    seed: int = 0
    step_s: float = 60.0
    cores_per_node: int = 8
    vcpus_per_core: int = 2
    dimms_per_node: int = 4
    #: Supply/margin model (volts).
    nominal_v: float = 1.00
    margin_v: float = 0.12
    vmin_mean_v: float = 0.78
    vmin_sigma_v: float = 0.015
    vmin_jitter_v: float = 0.004
    droop_base_v: float = 0.045
    droop_sigma: float = 0.30
    #: CMOS power model (per core) and platform floor.
    frequency_hz: float = 2.4e9
    c_eff_f: float = 1.1e-9
    leak_per_core_w: float = 1.8
    leak_v_exp: float = 3.0
    leak_t_exp: float = 0.02
    leak_t_ref_c: float = 50.0
    idle_platform_w: float = 28.0
    #: Thermal RC.
    ambient_c: float = 25.0
    r_th_c_per_w: float = 0.45
    tau_s: float = 120.0
    #: Fault-domain topology (node -> rack -> PDU / cooling zone).
    #: Contiguous by construction — rack ``r`` owns nodes
    #: ``[r * nodes_per_rack, (r+1) * nodes_per_rack)`` — so domains
    #: compose with contiguous shard views.  The last rack/PDU/zone may
    #: be partial when the counts do not divide evenly.
    nodes_per_rack: int = 8
    racks_per_pdu: int = 2
    racks_per_cooling_zone: int = 2
    #: Correlated-fault physics: a PDU brownout sags the rail by up to
    #: ``brownout_depth_v`` (scaled by spec magnitude) and each affected
    #: node crash-rolls per step against ``magnitude *
    #: brownout_crash_scale``; a cooling failure ramps the zone's
    #: effective ambient by up to ``cooling_ramp_c``.
    brownout_depth_v: float = 0.06
    brownout_crash_scale: float = 0.02
    cooling_ramp_c: float = 20.0
    #: DRAM refresh / retention model (per DIMM).
    dram_base_w_per_dimm: float = 0.9
    dram_refresh_w_per_dimm: float = 0.35
    refresh_nominal_s: float = 0.064
    refresh_relaxed_s: float = 0.256
    retention_ref_c: float = 40.0
    retention_halving_c: float = 10.0
    retention_weak_sigma: float = 0.8
    retention_fail_scale: float = 1e-3
    #: Heterogeneous-reliability DIMM tiers.  The first
    #: ``strong_dimms_per_node`` DIMM lanes are pinned at nominal
    #: refresh even under adopted margins, the next
    #: ``normal_dimms_per_node`` lanes relax only to
    #: ``refresh_normal_s``, and the remainder relax all the way to
    #: ``refresh_relaxed_s``.  Both counts default to zero, which keeps
    #: the legacy uniform fleet — every tier-aware kernel branch is
    #: gated on :attr:`tiered` so untiered runs stay byte-identical.
    strong_dimms_per_node: int = 0
    normal_dimms_per_node: int = 0
    refresh_normal_s: float = 0.128
    #: Per-node margin governor (the fleet-wide EOP stance).
    adopt_margins: bool = True
    error_budget_per_window: int = 4
    review_every_steps: int = 10
    probation_steps: int = 30

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ConfigurationError("the fleet needs at least one node")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.step_s <= 0:
            raise ConfigurationError("step must be positive")
        if self.cores_per_node < 1 or self.dimms_per_node < 1:
            raise ConfigurationError(
                "nodes need at least one core and one DIMM")
        if self.vcpus_per_core < 1:
            raise ConfigurationError("vcpus_per_core must be >= 1")
        if self.review_every_steps < 1:
            raise ConfigurationError("review_every_steps must be >= 1")
        if self.refresh_relaxed_s < self.refresh_nominal_s:
            raise ConfigurationError(
                "relaxed refresh cannot be shorter than nominal")
        if (self.nodes_per_rack < 1 or self.racks_per_pdu < 1
                or self.racks_per_cooling_zone < 1):
            raise ConfigurationError(
                "fault-domain topology counts must be >= 1")
        if self.brownout_depth_v < 0 or self.cooling_ramp_c < 0:
            raise ConfigurationError(
                "brownout depth and cooling ramp must be >= 0")
        if not 0 <= self.brownout_crash_scale <= 1:
            raise ConfigurationError(
                "brownout_crash_scale must be in [0, 1]")
        if self.strong_dimms_per_node < 0 or self.normal_dimms_per_node < 0:
            raise ConfigurationError("tier DIMM counts must be >= 0")
        if (self.strong_dimms_per_node + self.normal_dimms_per_node
                > self.dimms_per_node):
            raise ConfigurationError(
                "strong + normal DIMMs cannot exceed dimms_per_node")
        if not (self.refresh_nominal_s <= self.refresh_normal_s
                <= self.refresh_relaxed_s):
            raise ConfigurationError(
                "refresh_normal_s must sit between nominal and relaxed")

    @property
    def vcpus_per_node(self) -> int:
        """vCPU capacity of one node."""
        return self.cores_per_node * self.vcpus_per_core

    @property
    def tiered(self) -> bool:
        """Whether any DIMM lane is pinned to a non-relaxed tier."""
        return self.strong_dimms_per_node + self.normal_dimms_per_node > 0

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for snapshots and reports."""
        return asdict(self)

    @staticmethod
    def from_dict(state: Dict[str, object]) -> "FleetConfig":
        """Rebuild a config saved by :meth:`as_dict`."""
        return FleetConfig(**state)  # type: ignore[arg-type]


#: Dynamic per-node arrays: (attribute, dtype).  Everything here is
#: saved by ``state_dict`` and shipped between shard workers; the
#: statics (keys, per-core Vmin, per-DIMM retention weakness) are
#: regenerated from config instead.
DYNAMIC_FIELDS: Tuple[Tuple[str, object], ...] = (
    ("used_vcpus", np.int64),
    ("temperature_c", np.float64),
    ("power_w", np.float64),
    ("energy_j", np.float64),
    ("margin_on", np.bool_),
    ("window_violations", np.int64),
    ("probation_until_step", np.int64),
    ("violations_total", np.int64),
    ("retention_errors_total", np.int64),
    ("demotions", np.int64),
    ("adoptions", np.int64),
    ("down_until_step", np.int64),
    ("quarantined", np.bool_),
    ("crashes_total", np.int64),
    ("domain_demotions", np.int64),
    ("refresh_energy_strong_j", np.float64),
    ("refresh_energy_normal_j", np.float64),
    ("refresh_energy_relaxed_j", np.float64),
    ("retention_errors_normal", np.int64),
    ("retention_errors_relaxed", np.int64),
)


class FleetState:
    """Struct-of-arrays state for ``n`` homogeneous nodes.

    Built by :func:`repro.fleet.vectors.build_fleet_state`; sliced into
    shard views with :meth:`view` (views share memory with the parent
    arrays, so stepping a view advances the global state in place).
    """

    def __init__(self, config: FleetConfig, keys: np.ndarray,
                 vmin_core_v: np.ndarray,
                 retention_weak: np.ndarray) -> None:
        n = keys.shape[0]
        self.config = config
        self.n = n
        self.keys = keys
        self.vmin_core_v = vmin_core_v
        self.retention_weak = retention_weak
        self.used_vcpus = np.zeros(n, dtype=np.int64)
        self.temperature_c = np.full(n, config.ambient_c,
                                     dtype=np.float64)
        self.power_w = np.zeros(n, dtype=np.float64)
        self.energy_j = np.zeros(n, dtype=np.float64)
        self.margin_on = np.full(n, config.adopt_margins, dtype=np.bool_)
        self.window_violations = np.zeros(n, dtype=np.int64)
        self.probation_until_step = np.zeros(n, dtype=np.int64)
        self.violations_total = np.zeros(n, dtype=np.int64)
        self.retention_errors_total = np.zeros(n, dtype=np.int64)
        self.demotions = np.zeros(n, dtype=np.int64)
        self.adoptions = np.zeros(n, dtype=np.int64)
        #: Chaos/supervision state: a node is DOWN while
        #: ``step < down_until_step`` (post-crash outage), and
        #: permanently once ``quarantined`` (its shard worker exhausted
        #: its restart budget).
        self.down_until_step = np.zeros(n, dtype=np.int64)
        self.quarantined = np.zeros(n, dtype=np.bool_)
        self.crashes_total = np.zeros(n, dtype=np.int64)
        #: Precautionary demotions by the correlated-demotion guard
        #: (whole fault domain demoted at a window start).
        self.domain_demotions = np.zeros(n, dtype=np.int64)
        #: Per-tier accounting, populated only by tiered configs
        #: (``config.tiered``); flat zeros otherwise.  Kept 1-D per
        #: node — snapshot resume rebuilds dynamic fields with
        #: ``np.zeros(n, dtype)``.
        self.refresh_energy_strong_j = np.zeros(n, dtype=np.float64)
        self.refresh_energy_normal_j = np.zeros(n, dtype=np.float64)
        self.refresh_energy_relaxed_j = np.zeros(n, dtype=np.float64)
        self.retention_errors_normal = np.zeros(n, dtype=np.int64)
        self.retention_errors_relaxed = np.zeros(n, dtype=np.int64)

    def view(self, lo: int, hi: int) -> "FleetState":
        """A shard view over nodes ``[lo, hi)`` sharing this state's
        memory — mutations through the view land in the parent arrays."""
        if not 0 <= lo < hi <= self.n:
            raise ConfigurationError(
                f"shard bounds [{lo}, {hi}) outside fleet of {self.n}")
        shard = FleetState.__new__(FleetState)
        shard.config = self.config
        shard.n = hi - lo
        shard.keys = self.keys[lo:hi]
        shard.vmin_core_v = self.vmin_core_v[lo:hi]
        shard.retention_weak = self.retention_weak[lo:hi]
        for name, _ in DYNAMIC_FIELDS:
            setattr(shard, name, getattr(self, name)[lo:hi])
        return shard

    # -- persistence -------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Dynamic arrays as JSON-serializable lists."""
        state: Dict[str, object] = {"n_nodes": self.n}
        for name, _ in DYNAMIC_FIELDS:
            state[name] = getattr(self, name).tolist()
        return state

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Overlay dynamic arrays saved by :meth:`state_dict`."""
        if int(state["n_nodes"]) != self.n:  # type: ignore[arg-type]
            raise ConfigurationError(
                f"state is for {state['n_nodes']} nodes, "
                f"this fleet has {self.n}")
        for name, dtype in DYNAMIC_FIELDS:
            array = getattr(self, name)
            if name in state:
                array[:] = np.asarray(state[name], dtype=dtype)
            else:
                # Snapshot predates this field (e.g. the per-tier
                # counters); its run never populated it.
                array[:] = 0


def shard_bounds(n_nodes: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` node ranges for each shard.

    Sizes differ by at most one (the first ``n % shards`` shards get the
    extra node), matching ``np.array_split`` semantics.
    """
    if shards < 1:
        raise ConfigurationError("shards must be >= 1")
    if shards > n_nodes:
        raise ConfigurationError(
            f"cannot split {n_nodes} node(s) into {shards} shard(s)")
    base, extra = divmod(n_nodes, shards)
    bounds = []
    lo = 0
    for index in range(shards):
        hi = lo + base + (1 if index < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds
