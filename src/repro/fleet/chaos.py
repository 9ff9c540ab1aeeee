"""Vectorized fleet chaos: seeded fault plans compiled to mask kernels.

The resilience layer's :class:`~repro.resilience.chaos.ChaosEngine`
walks Python node objects, which the vectorized fleet deliberately does
not have.  This module bridges the two worlds: the *same* declarative,
seeded :class:`~repro.resilience.chaos.FaultPlan` taxonomy is compiled
down to per-node step-window numpy arrays, and the per-step fault
decisions become mask kernels with the exact slice-invariance contract
the physics kernels in :mod:`repro.fleet.vectors` already honour —
row ``i`` of any mask depends only on node ``i``'s plan entries and
counter key, never on which shard or process computes it.

Three fault kinds translate to the vector fleet:

* :attr:`~repro.resilience.chaos.FaultKind.NODE_CRASH` — crash storms;
  a crashed node loses its VMs (handled by the campaign's parent-side
  admission layer), is demoted to nominal margins, and stays DOWN for
  ``crash_down_steps`` steps.  Storm profiles mirror the
  undervolting-induced crash loops of the Scrooge-attack line in
  PAPERS.md.
* :attr:`~repro.resilience.chaos.FaultKind.TELEMETRY_DROPOUT` — the
  node keeps stepping but its telemetry sample is lost with the spec's
  probability while the window lasts (a per-``(node, step)``
  counter-based draw, so any executor reproduces the same mask).
* :attr:`~repro.resilience.chaos.FaultKind.EOP_GOVERNOR_WEDGE` — the
  node's margin governor wedges: no demotions, no probation reviews,
  and its violation window stops being reset while the window lasts.

Other kinds in a hand-written plan are ignored
(:meth:`FaultPlan.for_kinds` filters them out) — they model
control-plane machinery the vector fleet does not simulate.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.exceptions import ConfigurationError
from ..resilience.chaos import FaultKind, FaultPlan, FaultSpec
from .domains import (FaultDomainTopology, cooling_zone_name, pdu_name,
                      rack_name)
from .state import FleetConfig
from .vectors import counter_bits, counter_uniform, fleet_counter_keys

#: Per-node fault kinds the vectorized fleet can express.
FLEET_FAULT_KINDS: Tuple[FaultKind, ...] = (
    FaultKind.NODE_CRASH,
    FaultKind.TELEMETRY_DROPOUT,
    FaultKind.EOP_GOVERNOR_WEDGE,
)

#: Correlated fault kinds whose specs target a *domain* name
#: (``pdu{i}``/``cooling{i}``/``rack{i}``) instead of a node.
CORRELATED_FAULT_KINDS: Tuple[FaultKind, ...] = (
    FaultKind.PDU_BROWNOUT,
    FaultKind.COOLING_FAILURE,
    FaultKind.RACK_PARTITION,
)

#: Counter channels — siblings of the ``CH_*`` channels in
#: :mod:`repro.fleet.vectors` (the chain is positional, so they only
#: need to be unique among channels).  Dropout and brownout-crash draws
#: are keyed per node; the brownout rail jitter is keyed per *domain*
#: (every node on the rail hashes the same replicated domain key), so a
#: shared rail sags identically no matter which shard asks.
CH_FLEET_DROPOUT = 6
CH_PDU_BROWNOUT = 7
CH_BROWNOUT_CRASH = 8

#: Domain-key derivation salt (folded with the fleet seed and domain
#: index to give each PDU rail its own jitter stream).
_DOMAIN_KEY_SALT = 0xD0

#: Relative weights and (min, max) window durations for the seeded
#: fleet plan generator.  NODE_CRASH is instantaneous.
_FLEET_MENU: Tuple[Tuple[FaultKind, float, Tuple[float, float]], ...] = (
    (FaultKind.NODE_CRASH, 1.5, (0.0, 0.0)),
    (FaultKind.TELEMETRY_DROPOUT, 1.5, (180.0, 900.0)),
    (FaultKind.EOP_GOVERNOR_WEDGE, 1.0, (300.0, 1200.0)),
)


def fleet_node_name(index: int) -> str:
    """The fleet node-name convention, shared with the scalar rack.

    :func:`repro.core.runtime.spawn_runtimes` names node ``i``
    ``node{i}``; fleet fault plans use the same names so one plan can
    drive the vector kernels and the object-stack rack alike.
    """
    return f"node{index}"


def fleet_node_index(name: str, n_nodes: int) -> Optional[int]:
    """Node index for a fleet node name; None for foreign names.

    Strict inverse of :func:`fleet_node_name`: the suffix must be the
    canonical decimal form, so ``node007``, ``node 7``, ``node+7`` and
    indices ``>= n_nodes`` are all foreign (None), never silently
    remapped — one plan must address the same nodes in every world.
    """
    if not name.startswith("node"):
        return None
    suffix = name[len("node"):]
    if not suffix.isdigit() or str(int(suffix)) != suffix:
        return None
    index = int(suffix)
    return index if 0 <= index < n_nodes else None


def fleet_fault_plan(n_nodes: int, duration_s: float, seed: int = 0,
                     rate_per_hour: float = 6.0,
                     intensity: float = 0.5) -> FaultPlan:
    """Draw a reproducible fleet fault plan from a seeded generator.

    The vector twin of :meth:`FaultPlan.random`, restricted to the
    kinds in :data:`FLEET_FAULT_KINDS`.  ``rate_per_hour`` is the
    expected fault count per node-hour; ``intensity`` scales dropout
    magnitudes.  Node names follow :func:`fleet_node_name`, so the same
    plan also drives an object-stack rack
    (:func:`~repro.cloudmgr.simulation.build_rack_simulation`).
    """
    if n_nodes < 1:
        raise ConfigurationError("need at least one node")
    if duration_s <= 0:
        raise ConfigurationError("duration must be positive")
    if rate_per_hour < 0:
        raise ConfigurationError("rate must be >= 0")
    if not 0 < intensity <= 1:
        raise ConfigurationError("intensity must be in (0, 1]")
    rng = np.random.default_rng(seed)
    kinds = [entry[0] for entry in _FLEET_MENU]
    weights = np.array([entry[1] for entry in _FLEET_MENU])
    weights = weights / weights.sum()
    windows = {entry[0]: entry[2] for entry in _FLEET_MENU}

    specs: List[FaultSpec] = []
    expected = rate_per_hour * duration_s / 3600.0
    for index in range(n_nodes):
        for _ in range(int(rng.poisson(expected))):
            kind = kinds[int(rng.choice(len(kinds), p=weights))]
            lo, hi = windows[kind]
            fault_duration = float(rng.uniform(lo, hi)) if hi > 0 else 0.0
            latest = max(0.0, duration_s
                         - min(fault_duration, duration_s / 2))
            start = float(rng.uniform(0.0, latest)) if latest > 0 else 0.0
            magnitude = float(np.clip(
                intensity * rng.uniform(0.6, 1.0), 0.05, 1.0))
            specs.append(FaultSpec(
                kind=kind, node=fleet_node_name(index), start_s=start,
                duration_s=fault_duration, magnitude=magnitude))
    return FaultPlan(specs)


#: (kind, domain-name helper, (min, max) window seconds) for the
#: correlated-plan generator.  Every kind is windowed.
_CORRELATED_MENU = (
    (FaultKind.PDU_BROWNOUT, pdu_name, (300.0, 900.0)),
    (FaultKind.COOLING_FAILURE, cooling_zone_name, (600.0, 1800.0)),
    (FaultKind.RACK_PARTITION, rack_name, (300.0, 900.0)),
)


def fleet_correlated_plan(config: FleetConfig, duration_s: float,
                          seed: int = 0, rate_per_hour: float = 1.0,
                          intensity: float = 0.7) -> FaultPlan:
    """Draw a reproducible *correlated* fault plan over the topology.

    The domain twin of :func:`fleet_fault_plan`: instead of i.i.d.
    per-node faults, specs target whole fault domains —
    :attr:`~repro.resilience.chaos.FaultKind.PDU_BROWNOUT` a PDU rail,
    :attr:`~repro.resilience.chaos.FaultKind.COOLING_FAILURE` a cooling
    zone, :attr:`~repro.resilience.chaos.FaultKind.RACK_PARTITION` a
    rack.  ``rate_per_hour`` is the expected event count per
    domain-hour.  Whenever the rate is positive, the plan carries at
    least one spec of *every* kind (a deterministic floor on domain 0),
    so an A/B under this plan always exercises all three blast radii.
    """
    if duration_s <= 0:
        raise ConfigurationError("duration must be positive")
    if rate_per_hour < 0:
        raise ConfigurationError("rate must be >= 0")
    if not 0 < intensity <= 1:
        raise ConfigurationError("intensity must be in (0, 1]")
    topology = FaultDomainTopology.from_config(config)
    counts = {
        FaultKind.PDU_BROWNOUT: topology.n_pdus,
        FaultKind.COOLING_FAILURE: topology.n_cooling_zones,
        FaultKind.RACK_PARTITION: topology.n_racks,
    }
    rng = np.random.default_rng(seed)
    expected = rate_per_hour * duration_s / 3600.0

    def draw(kind: FaultKind, namer, window: Tuple[float, float],
             domain: int) -> FaultSpec:
        lo, hi = window
        fault_duration = float(rng.uniform(lo, hi))
        latest = max(0.0, duration_s - min(fault_duration, duration_s / 2))
        start = float(rng.uniform(0.0, latest)) if latest > 0 else 0.0
        magnitude = float(np.clip(
            intensity * rng.uniform(0.6, 1.0), 0.05, 1.0))
        return FaultSpec(kind=kind, node=namer(domain), start_s=start,
                         duration_s=max(fault_duration, config.step_s),
                         magnitude=magnitude)

    specs: List[FaultSpec] = []
    for kind, namer, window in _CORRELATED_MENU:
        drawn = 0
        for domain in range(counts[kind]):
            for _ in range(int(rng.poisson(expected))):
                specs.append(draw(kind, namer, window, domain))
                drawn += 1
        if drawn == 0 and rate_per_hour > 0:
            specs.append(draw(kind, namer, window, 0))
    return FaultPlan(specs)


def _pad_rows(rows: Sequence[List], fill, dtype) -> np.ndarray:
    """Stack ragged per-node lists into a ``(n, k)`` padded array."""
    width = max((len(row) for row in rows), default=0)
    out = np.full((len(rows), width), fill, dtype=dtype)
    for index, row in enumerate(rows):
        if row:
            out[index, :len(row)] = row
    return out


class FleetChaos:
    """A fault plan compiled to per-node step-window mask arrays.

    Construction is a pure function of ``(plan, config,
    crash_down_steps)``, and every mask method is elementwise over
    nodes, so a :meth:`view` sliced to a shard computes bit-identical
    rows to the full fleet — the same contract as
    :class:`~repro.fleet.vectors.FleetVectors`, which is what keeps
    scalar/shard/process byte-identity intact *under* chaos.

    Spec times (seconds) quantize to steps: an instantaneous fault
    fires at the step containing its start; a window covers every step
    it overlaps.
    """

    #: Per-node compiled arrays (sliced by :meth:`view`).
    _ARRAYS = ("keys", "crash_steps", "drop_start", "drop_end",
               "drop_magnitude", "wedge_start", "wedge_end",
               "bro_start", "bro_end", "bro_magnitude", "bro_key",
               "cool_start", "cool_end", "cool_magnitude",
               "part_start", "part_end")

    def __init__(self, plan: FaultPlan, config: FleetConfig,
                 crash_down_steps: int = 5,
                 keys: Optional[np.ndarray] = None,
                 defense: bool = False) -> None:
        if crash_down_steps < 1:
            raise ConfigurationError("crash_down_steps must be >= 1")
        n = config.n_nodes
        step_s = config.step_s
        self.plan = plan.for_kinds(FLEET_FAULT_KINDS
                                   + CORRELATED_FAULT_KINDS)
        self.config = config
        self.crash_down_steps = crash_down_steps
        self.defense = defense
        self.topology = FaultDomainTopology.from_config(config)
        self.keys = (keys if keys is not None
                     else fleet_counter_keys(n, config.seed))

        crashes: List[List[int]] = [[] for _ in range(n)]
        drops: List[List[Tuple[int, int, float]]] = [[] for _ in range(n)]
        wedges: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        bros: List[List[Tuple[int, int, float, int]]] = [
            [] for _ in range(n)]
        cools: List[List[Tuple[int, int, float]]] = [[] for _ in range(n)]
        parts: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        for spec in self.plan:
            start = int(spec.start_s // step_s)
            end = max(start + 1, int(math.ceil(
                (spec.start_s + spec.duration_s) / step_s)))
            if spec.kind in CORRELATED_FAULT_KINDS:
                self._compile_domain(spec, start, end, bros, cools, parts)
                continue
            index = fleet_node_index(spec.node, n)
            if index is None:
                continue
            if spec.kind is FaultKind.NODE_CRASH:
                crashes[index].append(start)
            elif spec.kind is FaultKind.TELEMETRY_DROPOUT:
                drops[index].append((start, end, spec.magnitude))
            elif spec.kind is FaultKind.EOP_GOVERNOR_WEDGE:
                wedges[index].append((start, end))

        self.crash_steps = _pad_rows(crashes, -1, np.int64)
        self.drop_start = _pad_rows(
            [[d[0] for d in row] for row in drops], 2**62, np.int64)
        self.drop_end = _pad_rows(
            [[d[1] for d in row] for row in drops], 0, np.int64)
        self.drop_magnitude = _pad_rows(
            [[d[2] for d in row] for row in drops], 0.0, np.float64)
        self.wedge_start = _pad_rows(
            [[w[0] for w in row] for row in wedges], 2**62, np.int64)
        self.wedge_end = _pad_rows(
            [[w[1] for w in row] for row in wedges], 0, np.int64)
        self.bro_start = _pad_rows(
            [[b[0] for b in row] for row in bros], 2**62, np.int64)
        self.bro_end = _pad_rows(
            [[b[1] for b in row] for row in bros], 0, np.int64)
        self.bro_magnitude = _pad_rows(
            [[b[2] for b in row] for row in bros], 0.0, np.float64)
        self.bro_key = _pad_rows(
            [[b[3] for b in row] for row in bros], 0, np.uint64)
        self.cool_start = _pad_rows(
            [[c[0] for c in row] for row in cools], 2**62, np.int64)
        self.cool_end = _pad_rows(
            [[c[1] for c in row] for row in cools], 0, np.int64)
        self.cool_magnitude = _pad_rows(
            [[c[2] for c in row] for row in cools], 0.0, np.float64)
        self.part_start = _pad_rows(
            [[p[0] for p in row] for row in parts], 2**62, np.int64)
        self.part_end = _pad_rows(
            [[p[1] for p in row] for row in parts], 0, np.int64)

    def _compile_domain(self, spec: FaultSpec, start: int, end: int,
                        bros, cools, parts) -> None:
        """Fan one domain spec out to every member node's window list."""
        topology = self.topology
        if spec.kind is FaultKind.PDU_BROWNOUT:
            domain = topology.pdu_index(spec.node)
            if domain is None:
                return
            # Every node on the rail replicates the rail's key, so the
            # per-step sag jitter hashes (domain, step, channel) and is
            # identical across shards and processes by construction.
            key = int(counter_bits(np.uint64(self.config.seed),
                                   np.uint64(_DOMAIN_KEY_SALT),
                                   np.uint64(domain)))
            for index in np.nonzero(topology.pdu_mask(domain))[0]:
                bros[index].append((start, end, spec.magnitude, key))
        elif spec.kind is FaultKind.COOLING_FAILURE:
            domain = topology.cooling_zone_index(spec.node)
            if domain is None:
                return
            for index in np.nonzero(topology.cooling_zone_mask(domain))[0]:
                cools[index].append((start, end, spec.magnitude))
        elif spec.kind is FaultKind.RACK_PARTITION:
            domain = topology.rack_index(spec.node)
            if domain is None:
                return
            for index in np.nonzero(topology.rack_mask(domain))[0]:
                parts[index].append((start, end))

    def __len__(self) -> int:
        return len(self.plan)

    @property
    def n(self) -> int:
        """Nodes covered by this (possibly sliced) chaos view."""
        return self.keys.shape[0]

    def view(self, lo: int, hi: int) -> "FleetChaos":
        """A shard view over nodes ``[lo, hi)``, sharing array memory."""
        if not 0 <= lo < hi <= self.n:
            raise ConfigurationError(
                f"chaos view [{lo}, {hi}) outside fleet of {self.n}")
        shard = FleetChaos.__new__(FleetChaos)
        shard.plan = self.plan
        shard.config = self.config
        shard.crash_down_steps = self.crash_down_steps
        shard.defense = self.defense
        shard.topology = self.topology
        for name in self._ARRAYS:
            setattr(shard, name, getattr(self, name)[lo:hi])
        return shard

    # -- per-step masks (all elementwise over nodes) ----------------------

    def crash_mask(self, t: int) -> np.ndarray:
        """Nodes crashing exactly at step ``t`` (plan or brownout)."""
        return (np.any(self.crash_steps == t, axis=1)
                | self.brownout_crash_mask(t))

    def down_mask(self, t: int) -> np.ndarray:
        """Nodes DOWN at step ``t`` (inside a post-crash outage)."""
        live = self.crash_steps >= 0
        down = np.any(live & (self.crash_steps <= t)
                      & (t < self.crash_steps + self.crash_down_steps),
                      axis=1)
        # Brownout crashes down a node exactly like plan crashes; the
        # lookback re-derives the last few steps' draws, so the answer
        # stays a pure function of (plan, t) in any partition.
        for s in range(max(0, t - self.crash_down_steps + 1), t + 1):
            down |= self.brownout_crash_mask(s)
        return down

    def wedge_mask(self, t: int) -> np.ndarray:
        """Nodes whose margin governor is wedged at step ``t``."""
        return np.any((self.wedge_start <= t) & (t < self.wedge_end),
                      axis=1)

    def dropout_magnitude(self, t: int) -> np.ndarray:
        """Per-node drop probability at step ``t`` (max over windows)."""
        active = (self.drop_start <= t) & (t < self.drop_end)
        if self.drop_magnitude.shape[1] == 0:
            return np.zeros(self.n, dtype=np.float64)
        return np.max(np.where(active, self.drop_magnitude, 0.0), axis=1)

    def dropout_mask(self, t: int) -> np.ndarray:
        """Nodes whose telemetry sample is lost at step ``t``.

        A counter-based per-``(node, step)`` draw against the active
        window's magnitude — deterministic in any partition.
        """
        magnitude = self.dropout_magnitude(t)
        draw = counter_uniform(self.keys, np.uint64(t), CH_FLEET_DROPOUT)
        return (magnitude > 0.0) & (draw < magnitude)

    # -- correlated-domain masks ------------------------------------------

    def brownout_depth(self, t: int) -> np.ndarray:
        """Per-node rail sag (volts) at step ``t``.

        Magnitude times ``brownout_depth_v``, jittered per step by a
        draw keyed ``(domain key, step, channel)`` — one draw per rail,
        replicated to every member node, so the whole rail sags in
        lockstep no matter how the fleet is sharded.  Max over
        overlapping windows; zero outside any window (``v - 0.0`` is
        bitwise ``v``, so uncorrelated plans keep their exact bytes).
        """
        if self.bro_magnitude.shape[1] == 0:
            return np.zeros(self.n, dtype=np.float64)
        active = (self.bro_start <= t) & (t < self.bro_end)
        jitter = 0.75 + 0.25 * counter_uniform(
            self.bro_key, np.uint64(t), CH_PDU_BROWNOUT)
        depth = (self.bro_magnitude * self.config.brownout_depth_v
                 * jitter)
        return np.max(np.where(active, depth, 0.0), axis=1)

    def _brownout_crash_prob(self, t: int) -> np.ndarray:
        """Per-node crash probability from brownouts active at ``t``."""
        if self.bro_magnitude.shape[1] == 0:
            return np.zeros(self.n, dtype=np.float64)
        active = (self.bro_start <= t) & (t < self.bro_end)
        magnitude = np.max(np.where(active, self.bro_magnitude, 0.0),
                           axis=1)
        return magnitude * self.config.brownout_crash_scale

    def brownout_crash_mask(self, t: int) -> np.ndarray:
        """Nodes crash-rolled out by an active brownout at step ``t``.

        A per-``(node, step)`` counter draw against the rail's
        magnitude-scaled crash probability — independent across the
        rail's nodes (each machine's PSU rides out the sag or not), but
        deterministic in any partition.
        """
        p = self._brownout_crash_prob(t)
        draw = counter_uniform(self.keys, np.uint64(t), CH_BROWNOUT_CRASH)
        return (p > 0.0) & (draw < p)

    def cooling_delta_c(self, t: int) -> np.ndarray:
        """Per-node effective-ambient rise (°C) at step ``t``.

        A cooling failure ramps linearly from 0 at its window start to
        ``magnitude * cooling_ramp_c`` at its end — heat soak, not a
        step function.  Max over overlapping windows; zero outside
        (``ambient + 0.0`` is bitwise ``ambient``).
        """
        if self.cool_magnitude.shape[1] == 0:
            return np.zeros(self.n, dtype=np.float64)
        active = (self.cool_start <= t) & (t < self.cool_end)
        span = np.maximum(self.cool_end - self.cool_start, 1)
        ramp = (t - self.cool_start + 1).astype(np.float64) / span
        delta = (self.cool_magnitude * self.config.cooling_ramp_c
                 * np.clip(ramp, 0.0, 1.0))
        return np.max(np.where(active, delta, 0.0), axis=1)

    def partition_mask(self, t: int) -> np.ndarray:
        """Nodes inside a rack partition at step ``t``.

        Partitioned nodes keep stepping (the physics does not care
        about the network) but are blacked out for telemetry and new
        admissions — the campaign layer consumes this mask.
        """
        return np.any((self.part_start <= t) & (t < self.part_end),
                      axis=1)

    def at_risk_mask(self, t: int) -> np.ndarray:
        """Nodes inside an active brownout or cooling window at ``t``.

        The defense layers (anti-affinity placement, evacuation
        backpressure) treat these as blast radii to route around.
        """
        bro = np.any((self.bro_start <= t) & (t < self.bro_end), axis=1)
        cool = np.any((self.cool_start <= t) & (t < self.cool_end),
                      axis=1)
        return bro | cool

    def guard_demote_mask(self, t: int) -> np.ndarray:
        """Correlated-demotion guard: domains whose window opens at ``t``.

        With ``defense`` on, the whole blast radius of a brownout or
        cooling failure demotes to nominal margins the step the window
        opens — one precautionary domain demotion instead of waiting
        for every member to breach its own error budget.  Derived from
        the plan's window starts, so it is elementwise and identical
        in any partition.  All-False with ``defense`` off.
        """
        if not self.defense:
            return np.zeros(self.n, dtype=np.bool_)
        return (np.any(self.bro_start == t, axis=1)
                | np.any(self.cool_start == t, axis=1))

    def guard_probation(self, t: int) -> np.ndarray:
        """Probation horizon for nodes guard-demoted at step ``t``.

        The window's end plus the configured probation — the domain
        stays at nominal until the shared hazard has demonstrably
        passed.  Only meaningful where :meth:`guard_demote_mask` is
        True.
        """
        bro = np.max(np.where(self.bro_start == t, self.bro_end, 0),
                     axis=1) if self.bro_end.shape[1] else np.zeros(
                         self.n, dtype=np.int64)
        cool = np.max(np.where(self.cool_start == t, self.cool_end, 0),
                      axis=1) if self.cool_end.shape[1] else np.zeros(
                          self.n, dtype=np.int64)
        return (np.maximum(bro, cool)
                + np.int64(self.config.probation_steps))


__all__ = [
    "CH_BROWNOUT_CRASH",
    "CH_FLEET_DROPOUT",
    "CH_PDU_BROWNOUT",
    "CORRELATED_FAULT_KINDS",
    "FLEET_FAULT_KINDS",
    "FleetChaos",
    "fleet_correlated_plan",
    "fleet_fault_plan",
    "fleet_node_index",
    "fleet_node_name",
]
