"""Vectorized fleet campaigns: supervised shards in parallel in one run.

The sweep engine parallelizes *across* campaigns; this module
parallelizes *within* one.  The fleet is split into contiguous node
shards (:func:`~repro.fleet.state.shard_bounds`); each shard steps
through the :class:`~repro.fleet.vectors.FleetVectors` batch models,
either in-process or across shared-nothing worker subprocesses
(:class:`~repro.core.workers.Worker`, the handle every process pool in
the repo uses).

**Determinism contract** (pinned by ``tests/test_fleet_campaign.py``
and priced by ``benchmarks/bench_fleet_scaling.py`` /
``benchmarks/bench_fleet_chaos.py``): the campaign report is
byte-identical across ``shards``, ``jobs`` — and across **worker
deaths**.  Four mechanisms carry it:

* all randomness is counter-based (:mod:`repro.fleet.vectors`,
  :mod:`repro.fleet.chaos`), so a draw depends on ``(node key, step,
  channel, lane)`` — never on which shard or process computed it;
* the arrival/placement/departure process runs entirely in the parent
  over the global node arrays, so admission decisions cannot depend on
  the shard split;
* workers advance in lockstep behind a per-step barrier — the parent
  collects every shard's acknowledgement (in worker order) before the
  next step — and telemetry reductions run in the parent over arrays
  reassembled in node-index order;
* every worker exchange is *supervised*: receives poll with a
  deadline, a dead or wedged worker is SIGKILLed, respawned, and
  deterministically **replayed** — its shards rebuilt from the last
  per-shard checkpoint plus re-stepping the counter-based kernels over
  the recorded admission inputs — so the respawned worker reaches the
  exact state the dead one would have had.

When a worker exhausts ``max_worker_restarts``, its shards are
**quarantined**: their nodes are marked DOWN in :class:`FleetState`,
admission routes around them, their physics freeze at the failure
step, and the quarantine is recorded in the report — the campaign
degrades gracefully instead of dying.

Snapshots reuse the :class:`~repro.persistence.snapshot.SnapshotStore`
rebuild-from-config-then-overlay protocol at **per-shard granularity**
(:func:`~repro.persistence.snapshot.shard_entries`): statics regenerate
from the config, each shard's dynamics ride in an individually
checksummed entry.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.clock import step_count
from ..core.exceptions import (
    ConfigurationError,
    FleetWorkerError,
    PersistenceError,
    WorkerError,
)
from ..core.workers import POLL_S, Worker
from ..persistence.snapshot import (
    SnapshotStore,
    shard_entries,
    verify_shard_entries,
)
from ..resilience.chaos import FaultPlan
from .chaos import FleetChaos, fleet_correlated_plan, fleet_fault_plan
from .domains import FaultDomainTopology
from .report import fleet_campaign_report
from .state import (
    DYNAMIC_FIELDS,
    FleetConfig,
    shard_bounds,
)
from .vectors import (
    CH_ARRIVAL_COUNT,
    CH_ARRIVAL_LIFETIME,
    CH_ARRIVAL_SIZE,
    FleetVectors,
    arrival_counter_key,
    build_fleet_state,
    counter_uniform,
)

logger = logging.getLogger(__name__)

#: ``down_until_step`` sentinel for permanently quarantined nodes.
_FOREVER = 2**62

#: Names of the dynamic per-node arrays, and the telemetry sample.
_DYNAMIC_NAMES = tuple(name for name, _ in DYNAMIC_FIELDS)
_SAMPLED = ("power_w", "margin_on")


@dataclass(frozen=True)
class FleetCampaignConfig:
    """Everything needed to rebuild a fleet campaign from scratch.

    ``shards`` is an execution knob: it rides in snapshots (a resume
    rebuilds the same execution by default) but is excluded from the
    report's config echo, because the report must not depend on it.
    The chaos knobs (``chaos_seed`` and friends) are *not* execution
    knobs — injected faults change the physics, so they stay in the
    echo.  Supervision knobs (worker timeouts, restart budgets,
    kill injection) live on :class:`FleetCampaign`, not here: they must
    never perturb the report.
    """

    fleet: FleetConfig = field(default_factory=FleetConfig)
    duration_s: float = 3600.0
    arrivals_per_hour: float = 120.0
    mean_lifetime_s: float = 1800.0
    max_vcpus: int = 4
    telemetry_every_steps: int = 10
    shards: int = 1
    label: str = "fleet"
    #: Seeded vectorized fault plan (None = no chaos).
    chaos_seed: Optional[int] = None
    chaos_rate_per_hour: float = 6.0
    chaos_intensity: float = 0.5
    #: Steps a node stays DOWN after an injected crash.
    crash_down_steps: int = 5
    #: Seeded *correlated* fault plan over the fault-domain topology
    #: (None = no correlated chaos).  Independent of ``chaos_seed`` so
    #: the two storms compose freely.
    correlated_seed: Optional[int] = None
    correlated_rate_per_hour: float = 1.0
    correlated_intensity: float = 0.7
    #: Domain-aware defenses: the correlated-demotion guard in the
    #: step kernels, rack anti-affinity + at-risk routing in admission,
    #: and bounded evacuation off at-risk domains.  A physics knob (it
    #: changes the report), which is the point — the A/B arms differ
    #: only here.
    domain_defense: bool = False
    #: Synthetic tenants for anti-affinity accounting (VM ``seq %
    #: tenants`` — deterministic, so it never needs persisting).
    tenants: int = 4
    #: Evacuation backpressure: inbound migrations per target rack per
    #: step, so fleeing a brownout cannot stampede the survivors.
    max_migrations_per_rack_step: int = 2

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        if self.arrivals_per_hour < 0:
            raise ConfigurationError("arrival rate cannot be negative")
        if self.mean_lifetime_s <= 0:
            raise ConfigurationError("mean lifetime must be positive")
        if not 1 <= self.max_vcpus <= self.fleet.vcpus_per_node:
            raise ConfigurationError(
                "max_vcpus must be in [1, vcpus_per_node]")
        if self.telemetry_every_steps < 1:
            raise ConfigurationError(
                "telemetry_every_steps must be >= 1")
        if self.chaos_rate_per_hour < 0:
            raise ConfigurationError("chaos rate cannot be negative")
        if not 0 < self.chaos_intensity <= 1:
            raise ConfigurationError(
                "chaos intensity must be in (0, 1]")
        if self.crash_down_steps < 1:
            raise ConfigurationError("crash_down_steps must be >= 1")
        if self.correlated_rate_per_hour < 0:
            raise ConfigurationError(
                "correlated rate cannot be negative")
        if not 0 < self.correlated_intensity <= 1:
            raise ConfigurationError(
                "correlated intensity must be in (0, 1]")
        if self.tenants < 1:
            raise ConfigurationError("tenants must be >= 1")
        if self.max_migrations_per_rack_step < 1:
            raise ConfigurationError(
                "max_migrations_per_rack_step must be >= 1")
        shard_bounds(self.fleet.n_nodes, self.shards)  # validates

    @property
    def n_steps(self) -> int:
        """Total steps in the campaign window."""
        return step_count(self.duration_s, self.fleet.step_s)

    def fault_plan(self):
        """The seeded fleet fault plan, or None without chaos."""
        if self.chaos_seed is None:
            return None
        return fleet_fault_plan(
            self.fleet.n_nodes, self.duration_s, seed=self.chaos_seed,
            rate_per_hour=self.chaos_rate_per_hour,
            intensity=self.chaos_intensity)

    def correlated_plan(self):
        """The seeded correlated-domain plan, or None without one."""
        if self.correlated_seed is None:
            return None
        return fleet_correlated_plan(
            self.fleet, self.duration_s, seed=self.correlated_seed,
            rate_per_hour=self.correlated_rate_per_hour,
            intensity=self.correlated_intensity)

    def build_chaos(self, keys=None) -> Optional[FleetChaos]:
        """Compile the fault plan(s) to mask kernels (None without chaos).

        Pure function of the config, so the parent, every worker, and
        every replay compile bit-identical masks independently.  The
        per-node and correlated plans merge into one compiled object.
        """
        plan = self.fault_plan()
        correlated = self.correlated_plan()
        if plan is None and correlated is None:
            return None
        specs = list(plan.specs if plan is not None else ())
        specs.extend(correlated.specs if correlated is not None else ())
        return FleetChaos(FaultPlan(specs), self.fleet,
                          crash_down_steps=self.crash_down_steps,
                          keys=keys, defense=self.domain_defense)

    def as_dict(self) -> Dict[str, object]:
        """Full plain-dict form (snapshot payloads)."""
        state = {
            "fleet": self.fleet.as_dict(),
            "duration_s": self.duration_s,
            "arrivals_per_hour": self.arrivals_per_hour,
            "mean_lifetime_s": self.mean_lifetime_s,
            "max_vcpus": self.max_vcpus,
            "telemetry_every_steps": self.telemetry_every_steps,
            "shards": self.shards,
            "label": self.label,
            "chaos_seed": self.chaos_seed,
            "chaos_rate_per_hour": self.chaos_rate_per_hour,
            "chaos_intensity": self.chaos_intensity,
            "crash_down_steps": self.crash_down_steps,
            "correlated_seed": self.correlated_seed,
            "correlated_rate_per_hour": self.correlated_rate_per_hour,
            "correlated_intensity": self.correlated_intensity,
            "domain_defense": self.domain_defense,
            "tenants": self.tenants,
            "max_migrations_per_rack_step":
                self.max_migrations_per_rack_step,
        }
        return state

    def as_report_dict(self) -> Dict[str, object]:
        """Config echo for reports: execution knobs stripped."""
        state = self.as_dict()
        del state["shards"]
        return state

    @staticmethod
    def from_dict(state: Dict[str, object]) -> "FleetCampaignConfig":
        """Rebuild a config saved by :meth:`as_dict`.

        Older snapshots also carry the key of the removed per-node loop
        option; it is dropped.
        """
        state = dict(state)
        state.pop("stepper", None)
        state["fleet"] = FleetConfig.from_dict(state["fleet"])  # type: ignore[arg-type]
        return FleetCampaignConfig(**state)  # type: ignore[arg-type]


# -- executors ----------------------------------------------------------------


class _Shards:
    """Some shards of one fleet, stepped over a full state rebuilt from
    config (statics are pure functions of it).

    The in-process executor owns every shard; a worker owns its
    round-robin share; quarantine rebuilds a dead worker's share in the
    parent.  All three step through :meth:`step`.
    """

    def __init__(self, config: FleetCampaignConfig,
                 indices: Sequence[int]) -> None:
        self.config = config
        self.state = build_fleet_state(config.fleet)
        self.vectors = FleetVectors(config.fleet)
        self.chaos = config.build_chaos(keys=self.state.keys)
        self.bounds = shard_bounds(config.fleet.n_nodes, config.shards)
        #: Shard index -> (view, chaos view), in ``indices`` order.
        self.views = {}
        for i in indices:
            lo, hi = self.bounds[i]
            self.views[i] = (
                self.state.view(lo, hi),
                self.chaos.view(lo, hi) if self.chaos is not None else None)

    def step(self, t: int, used) -> None:
        self.state.used_vcpus[:] = used
        for view, chaos_view in self.views.values():
            self.vectors.step(view, t, chaos_view)

    def overlay(self, pieces) -> None:
        """Load the ``(index, dynamics)`` pieces of owned shards; None
        keeps the fresh build."""
        for i, piece in pieces:
            if piece is None or i not in self.views:
                continue
            view = self.views[i][0]
            for name, dtype in DYNAMIC_FIELDS:
                getattr(view, name)[:] = np.asarray(piece[name],
                                                    dtype=dtype)

    def pieces(self, names: Sequence[str]) -> List[Tuple[int, Dict]]:
        """``(index, {name: copy})`` for every owned shard."""
        return [(i, {name: getattr(view, name).copy() for name in names})
                for i, (view, _c) in self.views.items()]


class _InProcessExecutor(_Shards):
    """Steps every shard sequentially in the calling process."""

    worker_restarts_total = 0

    def __init__(self, config: FleetCampaignConfig) -> None:
        super().__init__(config, range(config.shards))

    def step_and_sample(self, t: int,
                        used: np.ndarray) -> Dict[str, np.ndarray]:
        self.step(t, used)
        return {name: getattr(self.state, name).copy() for name in _SAMPLED}

    def gather(self) -> Dict[str, object]:
        return self.state.state_dict()

    def quarantined_mask(self) -> np.ndarray:
        """In-process stepping has no workers, hence no quarantine."""
        return np.zeros(self.config.fleet.n_nodes, dtype=bool)

    def load(self, state: Dict[str, object]) -> None:
        self.state.load_state_dict(state)

    def close(self) -> None:
        pass


def _fleet_worker_main(config_state: Dict[str, object],
                       shard_indices: List[int], conn) -> None:
    """Worker entry: own a subset of shards, step on command.

    Shared-nothing over shards, byte-identical to any other partition.
    Every reply carries the step it acknowledges (-1 for non-step
    commands), feeding the parent's liveness ledger.
    """
    shards = _Shards(FleetCampaignConfig.from_dict(config_state),
                     shard_indices)
    while True:
        message = conn.recv()
        kind = message[0]
        if kind == "stop":
            break
        if kind == "restore":
            _, pieces, replay = message
            shards.overlay(pieces)
            for t, used in replay:
                shards.step(t, used)
            reply = ("ok", -1)
        elif kind == "step":
            _, t, used, want_sample = message
            shards.step(t, used)
            reply = ("sample", shards.pieces(_SAMPLED), t) \
                if want_sample else ("ok", t)
        elif kind == "gather":
            reply = ("state", shards.pieces(_DYNAMIC_NAMES), -1)
        else:
            raise RuntimeError(f"unknown fleet worker command {kind!r}")
        conn.send(reply)
    conn.close()


class _ProcessExecutor:
    """Steps shards across supervised shared-nothing worker processes.

    Shards are dealt round-robin to ``jobs`` workers
    (:class:`~repro.core.workers.Worker` handles); every step is a
    barrier: the parent broadcasts, then collects acknowledgements in
    worker order before continuing.  Every receive has a deadline; a
    dead, wedged, or straggling worker is SIGKILLed, respawned, and
    deterministically replayed from the last per-shard checkpoint plus
    the recorded admission inputs.  A worker that exhausts
    ``max_worker_restarts`` has its shards quarantined: the parent
    replays them in-process to the failure step, marks their nodes
    DOWN, and freezes them for the rest of the campaign.
    """

    #: First patience for ``close()``; escalation halves it.
    CLOSE_JOIN_TIMEOUT_S = 10.0

    def __init__(self, config: FleetCampaignConfig, jobs: int,
                 worker_timeout_s: float = 30.0,
                 max_worker_restarts: int = 2,
                 checkpoint_every_steps: Optional[int] = 25,
                 kill_worker_at: Sequence[Tuple[int, int]] = ()) -> None:
        if worker_timeout_s <= 0:
            raise ConfigurationError("worker timeout must be positive")
        if max_worker_restarts < 0:
            raise ConfigurationError(
                "max_worker_restarts cannot be negative")
        if checkpoint_every_steps is not None \
                and checkpoint_every_steps < 1:
            raise ConfigurationError(
                "checkpoint_every_steps must be >= 1")
        self.config = config
        self.bounds = shard_bounds(config.fleet.n_nodes, config.shards)
        jobs = min(jobs, len(self.bounds))
        self.jobs = jobs
        self.worker_timeout_s = worker_timeout_s
        self.max_worker_restarts = max_worker_restarts
        self.checkpoint_every_steps = checkpoint_every_steps
        self._assignment = [list(range(w, len(self.bounds), jobs))
                            for w in range(jobs)]
        self._kill_at: Dict[int, List[int]] = {}
        for step, worker in kill_worker_at:
            if not 0 <= worker < jobs:
                raise ConfigurationError(
                    f"kill target worker {worker} outside [0, {jobs})")
            if step < 0:
                raise ConfigurationError("kill step must be >= 0")
            self._kill_at.setdefault(int(step), []).append(int(worker))
        self._config_state = config.as_dict()
        self.chaos = config.build_chaos()
        self._restarts = [0] * jobs
        self._last_acked: List[Optional[int]] = [None] * jobs
        self._quarantined_workers: set = set()
        #: Last known-good per-shard dynamics (None = fresh build).
        self._ckpt: Dict[int, Optional[Dict[str, np.ndarray]]] = {
            i: None for i in range(len(self.bounds))}
        #: Admission inputs since the last checkpoint — the replay log.
        self._history: List[Tuple[int, np.ndarray]] = []
        self.worker_restarts_total = 0
        self._workers = [self._spawn(worker) for worker in range(jobs)]

    # -- supervised plumbing ----------------------------------------------

    def _spawn(self, worker: int) -> Worker:
        self._last_acked[worker] = None
        return Worker(
            _fleet_worker_main,
            (self._config_state, self._assignment[worker]),
            name=f"fleet worker {worker} "
                 f"(shards {self._assignment[worker]})")

    def _live_workers(self) -> List[int]:
        return [w for w in range(self.jobs)
                if w not in self._quarantined_workers]

    def _failure(self, worker: int, what: str) -> FleetWorkerError:
        return FleetWorkerError(
            f"{what}; last acked step: {self._last_acked[worker]}",
            worker=worker, shards=self._assignment[worker],
            last_acked_step=self._last_acked[worker])

    def _recv(self, worker: int, timeout: Optional[float] = None):
        """Deadline-bounded receive: never blocks on a dead worker."""
        try:
            return self._workers[worker].recv(
                self.worker_timeout_s if timeout is None else timeout)
        except WorkerError as exc:
            raise self._failure(worker, str(exc)) from exc

    def _note_ack(self, worker: int, reply) -> None:
        step = reply[-1] if reply and isinstance(reply[-1], int) else -1
        if reply[0] in ("ok", "sample") and step >= 0:
            self._last_acked[worker] = step

    def _restart(self, worker: int) -> bool:
        """Kill + respawn one worker; False once the budget is spent."""
        handle = self._workers[worker]
        handle.kill()
        handle.close()
        self._restarts[worker] += 1
        self.worker_restarts_total += 1
        if self._restarts[worker] > self.max_worker_restarts:
            return False
        self._workers[worker] = self._spawn(worker)
        logger.warning(
            "fleet worker %d respawned (restart %d/%d)", worker,
            self._restarts[worker], self.max_worker_restarts)
        return True

    def _restore(self, worker: int,
                 replay: List[Tuple[int, np.ndarray]]) -> None:
        """Rebuild a respawned worker: checkpoint overlay + re-step."""
        handle = self._workers[worker]
        handle.send(("restore", [(i, self._ckpt[i])
                                 for i in self._assignment[worker]],
                     list(replay)))
        reply = self._recv(worker, timeout=self.worker_timeout_s
                           + POLL_S * len(replay))
        if reply[0] != "ok":
            raise self._failure(
                worker, f"{handle.name} broke protocol on restore "
                        f"({reply[0]!r})")

    def _collect(self, worker: int, message,
                 replay: List[Tuple[int, np.ndarray]]):
        """Receive one reply, recovering through worker failures.

        ``message`` is the already-sent command (resent after a
        respawn); ``replay`` is the admission-input log to re-step
        first.  Returns None when the worker got quarantined instead.
        """
        while True:
            try:
                reply = self._recv(worker)
            except FleetWorkerError as failure:
                logger.warning("supervising: %s", failure)
                if not self._restart(worker):
                    self._quarantine(worker, message, replay)
                    return None
                try:
                    self._restore(worker, replay)
                    self._workers[worker].send(message)
                except FleetWorkerError as exc:
                    logger.warning(
                        "respawned worker failed during replay: %s",
                        exc)
                continue
            self._note_ack(worker, reply)
            return reply

    # -- quarantine escalation --------------------------------------------

    def _quarantine(self, worker: int, message,
                    replay: List[Tuple[int, np.ndarray]]) -> None:
        """Freeze a hopeless worker's shards at the failure step.

        The parent replays the shards in-process (checkpoint overlay +
        recorded admission inputs + the in-flight step, if any) so the
        frozen state is exactly what the worker would have computed,
        then marks every node DOWN and quarantined.
        """
        logger.error(
            "fleet worker %d exhausted %d restart(s); quarantining "
            "shards %s", worker, self.max_worker_restarts,
            self._assignment[worker])
        shards = _Shards(self.config, self._assignment[worker])
        shards.overlay(self._ckpt.items())
        steps = list(replay)
        if message and message[0] == "step":
            steps.append((message[1], message[2]))
        for t, used in steps:
            shards.step(t, used)
        for view, _c in shards.views.values():
            view.quarantined[:] = True
            view.down_until_step[:] = _FOREVER
        self._ckpt.update(shards.pieces(_DYNAMIC_NAMES))
        self._quarantined_workers.add(worker)

    def quarantined_mask(self) -> np.ndarray:
        """Boolean per-node mask of quarantined (frozen) shards."""
        mask = np.zeros(self.config.fleet.n_nodes, dtype=bool)
        for worker in self._quarantined_workers:
            for i in self._assignment[worker]:
                lo, hi = self.bounds[i]
                mask[lo:hi] = True
        return mask

    # -- the per-step barrier ----------------------------------------------

    def _maybe_kill(self, t: int) -> None:
        """Deliver injected SIGKILLs scheduled for step ``t``."""
        for worker in self._kill_at.get(t, ()):
            if worker in self._quarantined_workers:
                continue
            handle = self._workers[worker]
            if handle.alive():
                handle.kill()
                logger.warning(
                    "injected SIGKILL into fleet worker %d at step %d",
                    worker, t)

    def _exchange(self, message, expect: str,
                  replay: List[Tuple[int, np.ndarray]]) -> Dict[int, Dict]:
        """The barrier: send ``message`` to every live worker, then
        collect their ``expect`` replies in worker order.

        Returns shard index -> dynamics: the replies' shard pieces laid
        over the checkpoints, which hold the frozen state of quarantined
        shards.
        """
        live = self._live_workers()
        for worker in live:
            self._workers[worker].send(message)
        pieces: Dict[int, Dict] = {}
        for worker in live:
            reply = self._collect(worker, message, replay)
            if reply is None:
                continue
            if reply[0] != expect:
                raise PersistenceError(
                    f"fleet worker protocol error: {reply[0]!r}")
            if expect != "ok":
                pieces.update(reply[1])
        return {**self._ckpt, **pieces}

    def _step_exchange(self, t: int, used: np.ndarray,
                       want_sample: bool) -> Dict[int, Dict]:
        self._maybe_kill(t)
        used = np.array(used, dtype=np.int64)
        self._history.append((t, used))
        pieces = self._exchange(("step", t, used, want_sample),
                                "sample" if want_sample else "ok",
                                self._history[:-1])
        if (self.checkpoint_every_steps is not None
                and len(self._history) >= self.checkpoint_every_steps):
            self._checkpoint()
        return pieces

    def step(self, t: int, used: np.ndarray) -> None:
        self._step_exchange(t, used, False)

    def _assemble(self, by_shard: Dict[int, Dict],
                  names: Sequence[str]) -> Dict[str, np.ndarray]:
        n = self.config.fleet.n_nodes
        out = {}
        for name in names:
            parts = [np.asarray(by_shard[i][name])
                     for i in range(len(self.bounds))]
            out[name] = np.concatenate(parts)
            if out[name].shape[0] != n:
                raise PersistenceError("shard reassembly size mismatch")
        return out

    def step_and_sample(self, t: int,
                        used: np.ndarray) -> Dict[str, np.ndarray]:
        pieces = self._step_exchange(t, used, True)
        return self._assemble(pieces, _SAMPLED)

    # -- checkpoints, gather, load -----------------------------------------

    def _gather_pieces(self) -> Dict[int, Dict]:
        return self._exchange(("gather",), "state", list(self._history))

    def _checkpoint(self) -> None:
        """Refresh the per-shard replay baseline, trim the input log."""
        self._ckpt.update(self._gather_pieces())
        self._history.clear()

    def gather(self) -> Dict[str, object]:
        arrays = self._assemble(self._gather_pieces(), _DYNAMIC_NAMES)
        state: Dict[str, object] = {
            "n_nodes": self.config.fleet.n_nodes}
        for name in _DYNAMIC_NAMES:
            state[name] = arrays[name].tolist()
        return state

    def load(self, state: Dict[str, object]) -> None:
        n = self.config.fleet.n_nodes
        if int(state["n_nodes"]) != n:  # type: ignore[arg-type]
            raise ConfigurationError(
                f"state is for {state['n_nodes']} nodes, "
                f"this fleet has {n}")
        arrays = {name: np.asarray(state[name], dtype=dtype)
                  for name, dtype in DYNAMIC_FIELDS}
        for i, (lo, hi) in enumerate(self.bounds):
            self._ckpt[i] = {name: arrays[name][lo:hi].copy()
                             for name, _ in DYNAMIC_FIELDS}
        self._history.clear()
        self._exchange(("restore", list(self._ckpt.items()), []), "ok", [])

    def close(self) -> None:
        """Stop every worker, then reap each with escalation."""
        for handle in self._workers:
            handle.send(("stop",))
        for handle in self._workers:
            handle.close(self.CLOSE_JOIN_TIMEOUT_S)


# -- the campaign loop --------------------------------------------------------


class FleetCampaign:
    """One vectorized fleet campaign: arrivals, stepping, telemetry.

    The parent owns the whole admission layer (arrival draws, argmax
    placement over global free capacity, the departure heap) plus the
    fault consequences that touch it (crashed nodes lose their VMs,
    DOWN/quarantined nodes are routed around); the executor owns only
    physics stepping.  Everything the parent does is therefore
    trivially shard- and jobs-invariant.

    ``kill_worker_at`` is a supervision test hook: real SIGKILLs
    delivered to worker processes at given steps — the report must not
    change (deterministic replay absorbs them), which is exactly what
    ``benchmarks/bench_fleet_chaos.py`` enforces.
    """

    def __init__(self, config: FleetCampaignConfig, jobs: int = 1,
                 snapshot_dir=None,
                 snapshot_every_steps: Optional[int] = None,
                 worker_timeout_s: float = 30.0,
                 max_worker_restarts: int = 2,
                 checkpoint_every_steps: Optional[int] = 25,
                 kill_worker_at: Sequence[Tuple[int, int]] = ()) -> None:
        if jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        if snapshot_every_steps is not None and snapshot_every_steps < 1:
            raise ConfigurationError(
                "snapshot period must be >= 1 step, got "
                f"{snapshot_every_steps}")
        kill_worker_at = tuple(
            (int(step), int(worker)) for step, worker in kill_worker_at)
        if kill_worker_at and jobs == 1:
            raise ConfigurationError(
                "worker kill injection needs jobs >= 2 (the in-process "
                "executor has no workers)")
        self.config = config
        self.jobs = jobs
        if jobs == 1:
            self.executor = _InProcessExecutor(config)
        else:
            self.executor = _ProcessExecutor(
                config, jobs, worker_timeout_s=worker_timeout_s,
                max_worker_restarts=max_worker_restarts,
                checkpoint_every_steps=checkpoint_every_steps,
                kill_worker_at=kill_worker_at)
        self.chaos = self.executor.chaos
        self.store = (SnapshotStore(snapshot_dir)
                      if snapshot_dir is not None else None)
        self.snapshot_every_steps = snapshot_every_steps
        n = config.fleet.n_nodes
        self._arrival_key = arrival_counter_key(config.fleet.seed)
        self._used = np.zeros(n, dtype=np.int64)
        #: Min-heap of (departure_time_s, seq, node_index, vcpus).
        self._departures: List[Tuple[float, int, int, int]] = []
        self._arrival_seq = 0
        self._known_quarantined = np.zeros(n, dtype=bool)
        #: Fault-domain occupancy bookkeeping (rebuilt from the
        #: departure heap on resume, so it never rides in snapshots).
        self.topology = FaultDomainTopology.from_config(config.fleet)
        self._vms_on = np.zeros(n, dtype=np.int64)
        self._tenant_rack = np.zeros(
            (config.tenants, self.topology.n_racks), dtype=np.int64)
        self.step_index = 0
        self.admitted = 0
        self.rejected = 0
        self.completed = 0
        self.vm_failures = 0
        self.sla_unreachable_steps = 0
        self.migrations = 0
        self.migrations_deferred = 0
        self.series: List[Dict[str, object]] = []

    # -- admission (parent-side, partition-invariant) ---------------------

    def _tenant_of(self, seq: int) -> int:
        """The VM's synthetic tenant — a pure function of its seq."""
        return seq % self.config.tenants

    def _occupy(self, seq: int, node: int, vcpus: int,
                sign: int) -> None:
        """Add (+1) or remove (-1) one VM's occupancy bookkeeping."""
        self._used[node] += sign * vcpus
        self._vms_on[node] += sign
        self._tenant_rack[self._tenant_of(seq),
                          self.topology.rack_of[node]] += sign

    def _rebuild_occupancy(self) -> None:
        """Re-derive per-node/per-rack occupancy from the heap."""
        self._vms_on[:] = 0
        self._tenant_rack[:] = 0
        for _when, seq, node, vcpus in self._departures:
            self._vms_on[node] += 1
            self._tenant_rack[self._tenant_of(seq),
                              self.topology.rack_of[node]] += 1

    def _terminate_departed(self, now_s: float) -> None:
        while self._departures and self._departures[0][0] <= now_s:
            _, seq, node, vcpus = heapq.heappop(self._departures)
            self._occupy(seq, node, vcpus, -1)
            self.completed += 1

    def _quarantine_mask(self) -> np.ndarray:
        """Quarantined nodes: live executor state plus resumed flags."""
        return self.executor.quarantined_mask() | self._known_quarantined

    def _fail_unavailable_vms(self, t: int) -> None:
        """Kill VMs on nodes that just crashed or got quarantined."""
        newly = self.executor.quarantined_mask() \
            & ~self._known_quarantined
        self._known_quarantined |= newly
        dead = newly
        if self.chaos is not None:
            dead = dead | self.chaos.crash_mask(t)
        if not dead.any():
            return
        survivors = []
        for entry in self._departures:
            if dead[entry[2]]:
                self._occupy(entry[1], entry[2], entry[3], -1)
                self.vm_failures += 1
            else:
                survivors.append(entry)
        if len(survivors) != len(self._departures):
            heapq.heapify(survivors)
            self._departures = survivors
        self._used[dead] = 0

    def _admit_arrivals(self, t: int) -> None:
        cfg = self.config
        step_s = cfg.fleet.step_s
        expected = cfg.arrivals_per_hour * step_s / 3600.0
        count = int(math.floor(expected))
        fraction = expected - count
        if fraction > 0 and float(counter_uniform(
                self._arrival_key, np.uint64(t),
                CH_ARRIVAL_COUNT)) < fraction:
            count += 1
        capacity = cfg.fleet.vcpus_per_node
        now_s = t * step_s
        unavailable = self._quarantine_mask()
        if self.chaos is not None:
            unavailable = unavailable | self.chaos.down_mask(t)
            partitioned = self.chaos.partition_mask(t)
            at_risk = self.chaos.at_risk_mask(t)
        else:
            partitioned = at_risk = None
        route_around = unavailable.any()
        defended = cfg.domain_defense and self.chaos is not None
        for _ in range(count):
            seq = self._arrival_seq
            self._arrival_seq += 1
            size_draw = float(counter_uniform(
                self._arrival_key, np.uint64(seq), CH_ARRIVAL_SIZE))
            vcpus = min(cfg.max_vcpus, 1 + int(size_draw * cfg.max_vcpus))
            life_draw = float(counter_uniform(
                self._arrival_key, np.uint64(seq), CH_ARRIVAL_LIFETIME))
            lifetime_s = -cfg.mean_lifetime_s * math.log1p(-life_draw)
            if defended:
                node = self._place_defended(
                    seq, vcpus, unavailable, partitioned, at_risk)
                if node is None:
                    self.rejected += 1
                    continue
            else:
                free = capacity - self._used
                if route_around:
                    free = np.where(unavailable, -1, free)
                node = int(np.argmax(free))
                if free[node] < vcpus:
                    self.rejected += 1
                    continue
                if partitioned is not None and partitioned[node]:
                    # A partitioned rack is an admission blackout: the
                    # topology-blind baseline picks it on raw capacity,
                    # the launch times out, the request bounces.
                    self.rejected += 1
                    continue
            self._occupy(seq, node, vcpus, +1)
            heapq.heappush(self._departures,
                           (now_s + lifetime_s, seq, node, vcpus))
            self.admitted += 1

    def _anti_affinity_score(self, seq: int, free: np.ndarray,
                             eligible: np.ndarray) -> np.ndarray:
        """Placement score: spread the tenant across racks, then fill.

        Fewest of this tenant's VMs on the node's rack dominates; free
        capacity breaks ties; ``argmax`` takes the lowest index on
        exact ties — all integer math, so the choice is deterministic
        in any partition.
        """
        capacity = self.config.fleet.vcpus_per_node
        penalty = self._tenant_rack[self._tenant_of(seq)][
            self.topology.rack_of]
        score = free - penalty * np.int64(capacity + 1)
        return np.where(eligible, score, np.int64(-(2 ** 62)))

    def _place_defended(self, seq: int, vcpus: int,
                        unavailable: np.ndarray,
                        partitioned: np.ndarray,
                        at_risk: np.ndarray) -> Optional[int]:
        """Domain-aware placement: route around blast radii, spread
        tenants across racks; None when nothing can host the VM."""
        capacity = self.config.fleet.vcpus_per_node
        free = capacity - self._used
        blocked = unavailable | partitioned
        eligible = (free >= vcpus) & ~blocked & ~at_risk
        if not eligible.any():
            # Every safe node is full: placing inside a blast radius
            # beats bouncing the request.
            eligible = (free >= vcpus) & ~blocked
            if not eligible.any():
                return None
        score = self._anti_affinity_score(seq, free, eligible)
        return int(np.argmax(score))

    def _evacuate_at_risk(self, t: int) -> None:
        """Defense: drain VMs off at-risk domains, with backpressure.

        VMs migrate in seq order (deterministic in any partition) to
        the anti-affinity winner among safe targets, capped at
        ``max_migrations_per_rack_step`` inbound per target rack per
        step so a browning-out rack cannot stampede the survivors —
        the rest defer to the next step (``migrations_deferred``).
        """
        chaos = self.chaos
        at_risk = chaos.at_risk_mask(t)
        if not at_risk.any():
            return
        unavailable = self._quarantine_mask() | chaos.down_mask(t)
        partitioned = chaos.partition_mask(t)
        blocked = unavailable | partitioned | at_risk
        movable = at_risk & ~unavailable & ~partitioned
        capacity = self.config.fleet.vcpus_per_node
        cap = self.config.max_migrations_per_rack_step
        inflow = np.zeros(self.topology.n_racks, dtype=np.int64)
        moved = False
        entries = sorted(self._departures, key=lambda e: e[1])
        relocated = []
        for when, seq, node, vcpus in entries:
            if not movable[node]:
                relocated.append((when, seq, node, vcpus))
                continue
            free = capacity - self._used
            rack_open = inflow[self.topology.rack_of] < cap
            eligible = (free >= vcpus) & ~blocked & rack_open
            if not eligible.any():
                self.migrations_deferred += 1
                relocated.append((when, seq, node, vcpus))
                continue
            score = self._anti_affinity_score(seq, free, eligible)
            target = int(np.argmax(score))
            self._occupy(seq, node, vcpus, -1)
            self._occupy(seq, target, vcpus, +1)
            inflow[self.topology.rack_of[target]] += 1
            self.migrations += 1
            moved = True
            relocated.append((when, seq, target, vcpus))
        if moved:
            heapq.heapify(relocated)
            self._departures = relocated

    def _account_sla(self, t: int) -> None:
        """Count unreachable VM-steps (outage or partition blackout)."""
        if self.chaos is None:
            return
        affected = (self.chaos.down_mask(t)
                    | self.chaos.partition_mask(t)
                    | self._quarantine_mask())
        if affected.any():
            self.sla_unreachable_steps += int(
                self._vms_on[affected].sum())

    # -- telemetry reduction ----------------------------------------------

    def _record_sample(self, t: int,
                       arrays: Dict[str, np.ndarray]) -> None:
        cfg = self.config.fleet
        n = cfg.n_nodes
        unavailable = self._quarantine_mask()
        if self.chaos is not None:
            unavailable = unavailable | self.chaos.down_mask(t)
            dropped = self.chaos.dropout_mask(t)
            partitioned = self.chaos.partition_mask(t)
        else:
            dropped = np.zeros(n, dtype=bool)
            partitioned = np.zeros(n, dtype=bool)
        observed = ~(dropped | unavailable | partitioned)
        power = arrays["power_w"]
        fleet_power = math.fsum(float(p) for p in power[observed])
        observed_n = int(np.count_nonzero(observed))
        total_used = int(self._used.sum())
        self.series.append({
            "step": t,
            "time_s": (t + 1) * cfg.step_s,
            "fleet_power_w": fleet_power,
            "mean_power_w": (fleet_power / observed_n
                             if observed_n else 0.0),
            "mean_util": total_used / (n * cfg.vcpus_per_node),
            "active_vcpus": total_used,
            "margins_adopted": int(np.count_nonzero(
                arrays["margin_on"])),
            "telemetry_observed": observed_n,
            "telemetry_dropped": int(np.count_nonzero(
                dropped & ~unavailable & ~partitioned)),
            "nodes_down": int(np.count_nonzero(unavailable)),
            "nodes_partitioned": int(np.count_nonzero(
                partitioned & ~unavailable)),
        })

    # -- snapshots ----------------------------------------------------------

    def take_snapshot(self) -> None:
        """Persist config + campaign dynamics + per-shard fleet state."""
        if self.store is None:
            raise PersistenceError(
                "campaign was built without a snapshot directory")
        dynamics = self.executor.gather()
        payload = {
            "config": self.config.as_dict(),
            "campaign": {
                "step_index": self.step_index,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "completed": self.completed,
                "vm_failures": self.vm_failures,
                "sla_unreachable_steps": self.sla_unreachable_steps,
                "migrations": self.migrations,
                "migrations_deferred": self.migrations_deferred,
                "arrival_seq": self._arrival_seq,
                "used": self._used.tolist(),
                "departures": sorted(
                    [list(entry) for entry in self._departures]),
                "series": list(self.series),
            },
            "fleet": {
                "n_nodes": self.config.fleet.n_nodes,
                "shards": shard_entries(
                    (lo, hi, {name: dynamics[name][lo:hi]
                              for name in _DYNAMIC_NAMES})
                    for lo, hi in self.executor.bounds),
            },
        }
        self.store.save(self.step_index, payload)

    def _load_snapshot(self, payload: Dict[str, object]) -> None:
        campaign = payload["campaign"]
        self.step_index = int(campaign["step_index"])  # type: ignore[index]
        self.admitted = int(campaign["admitted"])  # type: ignore[index]
        self.rejected = int(campaign["rejected"])  # type: ignore[index]
        self.completed = int(campaign["completed"])  # type: ignore[index]
        self.vm_failures = int(campaign.get("vm_failures", 0))  # type: ignore[union-attr]
        self.sla_unreachable_steps = int(
            campaign.get("sla_unreachable_steps", 0))  # type: ignore[union-attr]
        self.migrations = int(campaign.get("migrations", 0))  # type: ignore[union-attr]
        self.migrations_deferred = int(
            campaign.get("migrations_deferred", 0))  # type: ignore[union-attr]
        self._arrival_seq = int(campaign["arrival_seq"])  # type: ignore[index]
        self._used[:] = np.asarray(campaign["used"], dtype=np.int64)  # type: ignore[index]
        self._departures = [
            (float(when), int(seq), int(node), int(vcpus))
            for when, seq, node, vcpus in campaign["departures"]]  # type: ignore[index]
        heapq.heapify(self._departures)
        self._rebuild_occupancy()
        self.series = [dict(entry) for entry in campaign["series"]]  # type: ignore[index]
        fleet = payload["fleet"]
        n = int(fleet["n_nodes"])  # type: ignore[index, arg-type]
        if n != self.config.fleet.n_nodes:
            raise PersistenceError(
                f"snapshot is for {n} nodes, campaign has "
                f"{self.config.fleet.n_nodes}")
        arrays = {name: np.zeros(n, dtype=dtype)
                  for name, dtype in DYNAMIC_FIELDS}
        covered = np.zeros(n, dtype=bool)
        for lo, hi, state in verify_shard_entries(fleet["shards"]):  # type: ignore[index]
            if covered[lo:hi].any():
                raise PersistenceError(
                    f"snapshot shards overlap at [{lo}, {hi})")
            covered[lo:hi] = True
            for name, dtype in DYNAMIC_FIELDS:
                arrays[name][lo:hi] = np.asarray(state[name],
                                                 dtype=dtype)
        if not covered.all():
            raise PersistenceError(
                "snapshot shards do not cover the fleet")
        merged: Dict[str, object] = {"n_nodes": n}
        for name, _ in DYNAMIC_FIELDS:
            merged[name] = arrays[name].tolist()
        self.executor.load(merged)
        self._known_quarantined = arrays["quarantined"].astype(bool)

    def resume(self) -> bool:
        """Load the newest valid snapshot; False when starting fresh."""
        if self.store is None:
            raise PersistenceError(
                "campaign was built without a snapshot directory")
        loaded = self.store.load_newest()
        if loaded is None:
            return False
        _generation, payload = loaded
        saved = FleetCampaignConfig.from_dict(payload["config"])  # type: ignore[arg-type]
        ours = replace(self.config, shards=saved.shards)
        if saved != ours:
            raise PersistenceError(
                "snapshot belongs to a different campaign config")
        self._load_snapshot(payload)
        return True

    # -- the loop -----------------------------------------------------------

    def run(self, until_step: Optional[int] = None) -> None:
        """Advance to ``until_step`` (exclusive; default: completion)."""
        cfg = self.config
        n_steps = cfg.n_steps
        stop = n_steps if until_step is None \
            else min(until_step, n_steps)
        telemetry_every = cfg.telemetry_every_steps
        while self.step_index < stop:
            t = self.step_index
            self._terminate_departed(t * cfg.fleet.step_s)
            self._fail_unavailable_vms(t)
            if cfg.domain_defense and self.chaos is not None:
                self._evacuate_at_risk(t)
            self._admit_arrivals(t)
            self._account_sla(t)
            want_sample = ((t + 1) % telemetry_every == 0
                           or t == n_steps - 1)
            if want_sample:
                self._record_sample(
                    t, self.executor.step_and_sample(t, self._used))
            else:
                self.executor.step(t, self._used)
            self.step_index = t + 1
            if (self.store is not None
                    and self.snapshot_every_steps is not None
                    and self.step_index % self.snapshot_every_steps
                    == 0):
                self.take_snapshot()

    def _quarantine_block(self) -> Optional[Dict[str, object]]:
        """Report block naming quarantined nodes; None when clean.

        Only emitted when quarantine actually happened, so a campaign
        whose injected worker kills were absorbed by replay stays
        byte-identical to a clean run.
        """
        mask = self._quarantine_mask()
        if not mask.any():
            return None
        flat = np.flatnonzero(mask)
        ranges: List[List[int]] = []
        for node in flat:
            node = int(node)
            if ranges and ranges[-1][1] == node:
                ranges[-1][1] = node + 1
            else:
                ranges.append([node, node + 1])
        return {
            "nodes": int(mask.sum()),
            "node_ranges": ranges,
            "worker_restarts": self.executor.worker_restarts_total,
        }

    def report(self) -> Dict[str, object]:
        """The canonical campaign report (shards/jobs invariant, and
        invariant to replayed worker deaths)."""
        final = self.executor.gather()
        last_step = self.step_index - 1
        down_final = (
            (np.asarray(final["down_until_step"], dtype=np.int64)
             > last_step)
            | np.asarray(final["quarantined"], dtype=bool))
        totals = {
            "steps": self.step_index,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "completed": self.completed,
            "vm_failures": self.vm_failures,
            "active_vcpus_final": int(self._used.sum()),
            "energy_j": math.fsum(float(e) for e in final["energy_j"]),  # type: ignore[union-attr]
            "violations": int(sum(final["violations_total"])),  # type: ignore[arg-type]
            "retention_errors": int(sum(
                final["retention_errors_total"])),  # type: ignore[arg-type]
            "demotions": int(sum(final["demotions"])),  # type: ignore[arg-type]
            "adoptions": int(sum(final["adoptions"])),  # type: ignore[arg-type]
            "crashes": int(sum(final["crashes_total"])),  # type: ignore[arg-type]
            "margins_adopted_final": int(sum(final["margin_on"])),  # type: ignore[arg-type]
            "nodes_down_final": int(np.count_nonzero(down_final)),
            "domain_demotions": int(sum(final["domain_demotions"])),  # type: ignore[arg-type]
            "migrations": self.migrations,
            "migrations_deferred": self.migrations_deferred,
            # An SLA violation is a promise broken: a failed VM, an
            # unreachable VM-step, or a bounced admission.
            "sla_violations": (self.vm_failures
                               + self.sla_unreachable_steps
                               + self.rejected),
            "availability": (
                self.completed / (self.completed + self.vm_failures)
                if self.completed + self.vm_failures else 1.0),
        }
        if self.config.fleet.tiered:
            # Per-tier block only for tiered fleets — untiered reports
            # keep their exact legacy shape (and bytes).
            totals["tiers"] = {
                "refresh_energy_j": {
                    "strong": math.fsum(
                        float(e) for e in final["refresh_energy_strong_j"]),  # type: ignore[union-attr]
                    "normal": math.fsum(
                        float(e) for e in final["refresh_energy_normal_j"]),  # type: ignore[union-attr]
                    "relaxed": math.fsum(
                        float(e) for e in final["refresh_energy_relaxed_j"]),  # type: ignore[union-attr]
                },
                "retention_errors": {
                    "normal": int(sum(final["retention_errors_normal"])),  # type: ignore[arg-type]
                    "relaxed": int(sum(final["retention_errors_relaxed"])),  # type: ignore[arg-type]
                },
            }
        return fleet_campaign_report(
            self.config.as_report_dict(), self.config.fleet,
            totals, self.series, quarantine=self._quarantine_block(),
            fault_domains=self._fault_domains_block())

    def _fault_domains_block(self) -> Optional[Dict[str, object]]:
        """Report block describing the correlated plan; None without
        one, so uncorrelated campaigns keep their report shape."""
        correlated = self.config.correlated_plan()
        if correlated is None or not len(correlated):
            return None
        by_kind: Dict[str, int] = {}
        for spec in correlated:
            by_kind[spec.kind.value] = by_kind.get(spec.kind.value, 0) + 1
        return {
            "specs": len(correlated),
            "by_kind": by_kind,
            "topology": self.topology.as_dict(),
            "defense": self.config.domain_defense,
        }

    def close(self) -> None:
        """Tear down the executor (a no-op for the in-process one)."""
        self.executor.close()


def run_fleet_campaign(config: FleetCampaignConfig, jobs: int = 1,
                       worker_timeout_s: float = 30.0,
                       max_worker_restarts: int = 2,
                       checkpoint_every_steps: Optional[int] = 25,
                       kill_worker_at: Sequence[Tuple[int, int]] = (),
                       ) -> Dict[str, object]:
    """Run one fleet campaign to completion and return its report."""
    campaign = FleetCampaign(
        config, jobs=jobs,
        worker_timeout_s=worker_timeout_s,
        max_worker_restarts=max_worker_restarts,
        checkpoint_every_steps=checkpoint_every_steps,
        kill_worker_at=kill_worker_at)
    try:
        campaign.run()
        return campaign.report()
    finally:
        campaign.close()
