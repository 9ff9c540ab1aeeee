"""The crash-safe campaign runtime: build, snapshot, kill, resume.

A :class:`PersistentCampaign` is the one way a rack chaos campaign runs.
It steps the world :func:`~repro.cloudmgr.simulation.build_rack_simulation`
builds in an explicit loop.  With a snapshot directory every step is
journalled and the world is snapshotted on a cadence; without one the
same loop runs in memory.  The determinism contract of the simulator
does the heavy lifting:

* construction is a pure function of :class:`CampaignConfig` (the rack,
  the arrival trace, the fault plan all derive from the seed), so a
  resume **rebuilds** the world from config and then **overlays** the
  runtime-mutated state from the newest valid snapshot;
* steps are deterministic, so the journal only needs to record step
  *intents* and post-step *digests* — replay is re-execution, with the
  digests proving bit-level agreement with the crashed process;
* a step whose intent was journalled but never committed (the crash
  step) is simply executed again.

The acceptance bar is the kill/resume equivalence harness
(``benchmarks/bench_resume_equivalence.py``): SIGKILL the campaign at a
random step, resume it, and the final availability, MTTR and metrics
snapshot must be bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, replace
from typing import Dict, Optional

from ..core.exceptions import ConfigurationError, PersistenceError
from ..hypervisor.vm import VirtualMachine
from ..resilience.campaign import CampaignResult
from ..resilience.chaos import FaultPlan
from ..resilience.policies import DegradationConfig
from .auditor import StateAuditor
from .snapshot import Journal, SnapshotStore, payload_checksum

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CampaignConfig:
    """Everything needed to rebuild a campaign world from scratch.

    The config is JSON-serializable and rides inside every snapshot, so
    a resume needs nothing but the snapshot directory.  ``plan`` holds
    the serialized :class:`~repro.resilience.chaos.FaultPlan`;
    :meth:`finalized` draws it from the seed when absent, so the plan
    is fixed once and survives restarts verbatim.
    """

    n_nodes: int = 4
    duration_s: float = 3600.0
    seed: int = 0
    policies: str = "on"
    rate_per_hour: float = 6.0
    intensity: float = 0.6
    base_rate_per_hour: float = 12.0
    step_s: float = 60.0
    label: str = "policies-on"
    plan: Optional[Dict[str, object]] = None

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ConfigurationError(
                "a chaos campaign needs at least two nodes to fail over to")
        if self.duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        if self.step_s <= 0:
            raise ConfigurationError("step must be positive")
        if self.policies not in ("on", "off"):
            raise ConfigurationError("policies must be 'on' or 'off'")

    def finalized(self) -> "CampaignConfig":
        """This config with the fault plan drawn and pinned."""
        if self.plan is not None:
            return self
        plan = FaultPlan.random(
            [f"node{i}" for i in range(self.n_nodes)], self.duration_s,
            rate_per_hour=self.rate_per_hour, seed=self.seed,
            intensity=self.intensity)
        return replace(self, plan=plan.as_dict())

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for snapshot envelopes."""
        return asdict(self)

    @staticmethod
    def from_dict(state: Dict[str, object]) -> "CampaignConfig":
        """Rebuild a config saved by :meth:`as_dict`."""
        return CampaignConfig(**state)  # type: ignore[arg-type]


class PersistentCampaign:
    """One rack chaos campaign; with a ``snapshot_dir``, its steps are
    journalled and its world is snapshotted durably."""

    def __init__(self, config: CampaignConfig,
                 snapshot_dir=None,
                 snapshot_every_s: float = 600.0,
                 keep: int = 3,
                 auditor: Optional[StateAuditor] = None) -> None:
        if snapshot_every_s <= 0:
            raise ConfigurationError("snapshot period must be positive")
        self.config = config.finalized()
        self.auditor = auditor
        self.snapshot_every_s = snapshot_every_s
        self._keep = keep
        self.step_index = 0
        self._journal: Optional[Journal] = None
        self._last_snapshot_now = 0.0
        self._build()
        self.store: Optional[SnapshotStore] = None
        if snapshot_dir is not None:
            self.attach_store(snapshot_dir)

    # -- world construction ---------------------------------------------------

    def _build(self) -> None:
        """Deterministically rebuild the campaign world from config."""
        from ..cloudmgr.simulation import build_rack_simulation

        config = self.config
        self.plan = FaultPlan.from_dict(config.plan)  # type: ignore[arg-type]
        degradation = (DegradationConfig.on() if config.policies == "on"
                       else DegradationConfig.off())
        self.simulation = build_rack_simulation(
            n_nodes=config.n_nodes, duration_s=config.duration_s,
            seed=config.seed, base_rate_per_hour=config.base_rate_per_hour,
            step_s=config.step_s, degradation=degradation,
            fault_plan=self.plan)
        self.cloud = self.simulation.cloud
        self.clock = self.cloud.clock
        self._events_by_name = {e.vm_name: e for e in self.simulation.events}

    def _vm_factory(self, name: str) -> VirtualMachine:
        """Rebuild the named VM shell exactly as admission created it."""
        from ..cloudmgr.simulation import vm_from_event

        try:
            event = self._events_by_name[name]
        except KeyError:
            raise PersistenceError(
                f"snapshot references VM {name!r} absent from the "
                "regenerated arrival trace") from None
        return vm_from_event(event)

    # -- state ------------------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """The campaign's full mutable state across every layer."""
        return {
            "clock": self.clock.state_dict(),
            "cloud": self.cloud.state_dict(),
            "simulation": self.simulation.state_dict(),
            "step_index": self.step_index,
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Overlay saved runtime state onto the freshly-built world."""
        self.clock.load_state_dict(state["clock"])  # type: ignore[arg-type]
        self.cloud.load_state_dict(
            state["cloud"], self._vm_factory)  # type: ignore[arg-type]
        self.simulation.load_state_dict(
            state["simulation"])  # type: ignore[arg-type]
        self.step_index = int(state["step_index"])  # type: ignore[arg-type]

    def _digest(self) -> str:
        """Cheap post-step world digest for journal commit records."""
        return payload_checksum({
            "now": self.clock.now,
            "sim_now": self.simulation.now,
            "launched": self.cloud.stats.launched,
            "completed": self.cloud.stats.completed,
            "node_crashes": self.cloud.stats.node_crashes,
            "heartbeats": self.cloud.stats.heartbeats_received,
            "energy_j": self.cloud.stats.energy_j,
            "admitted": self.simulation.stats.admitted,
            "violations": self.cloud.tracker.violations_total(),
        })

    # -- snapshots ---------------------------------------------------------------

    def attach_store(self, snapshot_dir) -> None:
        """Start persisting into ``snapshot_dir`` (initial snapshot now)."""
        self.store = SnapshotStore(snapshot_dir, keep=self._keep)
        self.take_snapshot()

    def take_snapshot(self) -> None:
        """Audit, write one snapshot generation, rotate the journal."""
        if self.store is None:
            raise PersistenceError("no snapshot store attached")
        if self.auditor is not None:
            self.auditor.audit(self.cloud,
                               context=f"snapshot step {self.step_index}")
        payload = {"config": self.config.as_dict(),
                   "state": self.state_dict()}
        self.store.save(self.step_index, payload)
        if self._journal is not None:
            self._journal.close()
        self._journal = Journal(self.store.journal_path(self.step_index))
        self._last_snapshot_now = self.simulation.now

    # -- execution ----------------------------------------------------------------

    @property
    def finished(self) -> bool:
        """Whether the campaign has consumed its whole trace window."""
        return self.simulation.now >= self.config.duration_s

    def step(self) -> None:
        """One journalled campaign step, snapshotting on schedule."""
        if self._journal is not None:
            self._journal.append({"type": "intent",
                                  "step": self.step_index})
        self.simulation.step_once()
        self.step_index += 1
        if self._journal is not None:
            self._journal.append({"type": "commit",
                                  "step": self.step_index - 1,
                                  "digest": self._digest()})
        if (self.store is not None and not self.finished
                and self.simulation.now - self._last_snapshot_now
                >= self.snapshot_every_s):
            self.take_snapshot()

    def run(self) -> CampaignResult:
        """Run (or finish) the campaign and reduce it to its headline
        numbers; writes a final snapshot when a store is attached."""
        while not self.finished:
            self.step()
        if self.auditor is not None:
            self.auditor.audit(self.cloud, context="campaign end")
        if self.store is not None:
            self.take_snapshot()
        return self.result()

    def result(self) -> CampaignResult:
        """The campaign reduced to its headline numbers (the one
        :class:`CampaignResult` reduction of a rack chaos campaign)."""
        from ..cloudmgr.simulation import RackExperiment

        config = self.config
        cloud = self.cloud
        experiment = RackExperiment(cloud=cloud, stats=self.simulation.stats)
        return CampaignResult(
            label=config.label, n_nodes=config.n_nodes,
            duration_s=config.duration_s, seed=config.seed,
            plan_faults=len(self.plan),
            fleet_availability=cloud.fleet_availability(),
            mttr_s=cloud.mttr_s(),
            sla_violations=cloud.tracker.violations_total(),
            evacuation_success_rate=cloud.migrations.success_rate(),
            node_crashes=cloud.stats.node_crashes,
            recoveries=cloud.stats.recoveries,
            failovers=cloud.stats.failovers,
            breaker_trips=cloud.stats.breaker_trips,
            flaps=cloud.stats.flaps,
            heartbeats_missed=cloud.stats.heartbeats_missed,
            admitted=self.simulation.stats.admitted,
            rejected=self.simulation.stats.rejected,
            completed=cloud.stats.completed,
            injections=dict(cloud.chaos.injections),
            experiment=experiment,
        )

    # -- resume ---------------------------------------------------------------------

    @classmethod
    def resume(cls, snapshot_dir,
               snapshot_every_s: float = 600.0,
               keep: int = 3,
               auditor: Optional[StateAuditor] = None,
               ) -> "PersistentCampaign":
        """Resume from the newest valid snapshot plus journal replay.

        Protocol: load the newest generation that passes its checksum
        (falling back on damage), rebuild the world from the embedded
        config, overlay the snapshot state, then re-execute every
        journalled committed step — verifying each post-step digest
        against the journal, which proves the resumed world is
        bit-identical to the one the crashed process lost.  A trailing
        uncommitted intent (the crash step) is left for the normal run
        loop to execute.
        """
        store = SnapshotStore(snapshot_dir, keep=keep)
        loaded = store.load_newest()
        if loaded is None:
            raise PersistenceError(
                f"no valid snapshot generation in {snapshot_dir}")
        generation, payload = loaded
        config = CampaignConfig.from_dict(payload["config"])  # type: ignore[arg-type]
        campaign = cls(config, snapshot_dir=None,
                       snapshot_every_s=snapshot_every_s, keep=keep,
                       auditor=auditor)
        campaign.load_state_dict(payload["state"])  # type: ignore[arg-type]
        if auditor is not None:
            auditor.reset_monotonic()
            auditor.audit(campaign.cloud,
                          context=f"restore generation {generation}")
        campaign._replay_journal(store.journal_path(generation))
        campaign.store = store
        campaign.take_snapshot()
        return campaign

    def _replay_journal(self, journal_path) -> None:
        """Re-execute the committed steps of one generation's journal."""
        commits = [r for r in Journal.read(journal_path)
                   if r.get("type") == "commit"
                   and int(r.get("step", -1)) >= self.step_index]
        commits.sort(key=lambda r: int(r["step"]))
        for record in commits:
            step = int(record["step"])
            if step != self.step_index:
                raise PersistenceError(
                    f"journal replay out of order: expected step "
                    f"{self.step_index}, journal has {step}")
            self.simulation.step_once()
            self.step_index += 1
            digest = self._digest()
            if digest != record.get("digest"):
                raise PersistenceError(
                    f"journal replay diverged at step {step}: the "
                    "re-executed world does not match the journalled "
                    "digest")
        if commits:
            logger.info("replayed %d journalled step(s) after restore",
                        len(commits))
