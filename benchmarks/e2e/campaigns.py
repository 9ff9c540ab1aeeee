"""The six pinned campaigns, composed from the repository's public APIs.

Each campaign is built in :meth:`setup`, stepped in :meth:`run` (the
timed part) and reduced in :meth:`outcome` to a report digest, its
headline simulated statistics and the problems its workload check
found.  ``repro`` is imported lazily inside these methods, so the
repetition process can start its set-up clock before the first import
and the harness can read :data:`WORKLOADS` without importing it.

The simulator is deterministic for a fixed seed: the digest and every
``sim.*`` statistic repeat exactly across repetitions, and only host
time varies.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import asdict, dataclass, replace
from time import perf_counter
from typing import Dict, Optional, Tuple

from spans import FLEET_STEP, ratio


class RackRun:
    """``build_rack`` + ``CloudController`` + ``TraceGenerator`` +
    ``TraceDrivenSimulation.run``: the pieces ``run_rack_experiment``
    composes, with the same defaults."""

    def __init__(self, seed: int, work_dir: str, nodes: int,
                 duration_s: float, arrivals_per_hour: float,
                 characterize: bool) -> None:
        self.seed = seed
        self.nodes = nodes
        self.duration_s = duration_s
        self.arrivals_per_hour = arrivals_per_hour
        self.characterize = characterize

    @property
    def node_hours(self) -> float:
        return self.nodes * self.duration_s / 3600.0

    def setup(self) -> None:
        from repro.cloudmgr import (
            CloudController,
            TraceDrivenSimulation,
            build_rack,
        )
        from repro.core.clock import SimClock
        from repro.workloads.traces import TraceConfig, TraceGenerator

        clock = SimClock()
        nodes = build_rack(self.nodes, clock=clock, seed=self.seed,
                           characterize=self.characterize)
        self.cloud = CloudController(clock, nodes, control_seed=self.seed)
        events = TraceGenerator(
            TraceConfig(base_rate_per_hour=self.arrivals_per_hour),
            seed=self.seed).generate(self.duration_s)
        self.simulation = TraceDrivenSimulation(self.cloud, events)

    def run(self, recorder=None) -> None:
        self.stats = self.simulation.run(self.duration_s)

    def outcome(self) -> Dict[str, object]:
        stats = self.stats
        cloud = self.cloud
        problems = []
        if stats.admitted + stats.rejected != stats.arrivals:
            problems.append(
                f"admitted {stats.admitted} + rejected {stats.rejected} "
                f"!= arrivals {stats.arrivals}")
        nodes = cloud.node_list()
        adopted = [node.governor.adopted_count() for node in nodes]
        relaxed = [len(node.platform.memory.relaxed_domains())
                   for node in nodes]
        if self.characterize:
            for node, n_adopted, n_relaxed in zip(nodes, adopted, relaxed):
                if n_adopted < 1 or n_relaxed < 1:
                    problems.append(
                        f"{node.name}: {n_adopted} adopted EOPs, "
                        f"{n_relaxed} relaxed domains")
        return {
            "digest": rack_digest(stats, cloud),
            "sim": {
                "arrivals": stats.arrivals,
                "admitted": stats.admitted,
                "rejected": stats.rejected,
                "terminated": stats.terminated,
                "energy_j": cloud.stats.energy_j,
                "adopted_eops": sum(adopted),
                "relaxed_domains": sum(relaxed),
            },
            "problems": problems,
            "layers": {
                "cloudmgr.admission.arrivals": stats.arrivals,
                "cloudmgr.admission.accept_ratio": ratio(
                    stats.admitted, stats.arrivals),
                "cloudmgr.migration.succeeded": _migrations_succeeded(cloud),
            },
        }

    def close(self) -> None:
        pass


def rack_digest(stats, cloud) -> str:
    """Digest of a rack run: admission counters + every node's metrics."""
    from repro.persistence import payload_checksum

    return payload_checksum({"stats": asdict(stats),
                             "metrics": cloud.metrics_snapshot()})


def _migrations_succeeded(cloud) -> int:
    return sum(1 for record in cloud.migrations.records if record.succeeded)


class SoakRun:
    """A crash-safe ``PersistentCampaign``: chaos, policies on, a
    snapshot every ``snapshot_every_s`` into a temporary directory, and a
    tolerant ``StateAuditor`` at every snapshot."""

    def __init__(self, seed: int, work_dir: str, nodes: int,
                 duration_s: float, arrivals_per_hour: float,
                 chaos_per_node_hour: float,
                 snapshot_every_s: float) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.nodes = nodes
        self.duration_s = duration_s
        self.arrivals_per_hour = arrivals_per_hour
        self.chaos_per_node_hour = chaos_per_node_hour
        self.snapshot_every_s = snapshot_every_s
        self.directory: Optional[str] = None

    @property
    def node_hours(self) -> float:
        return self.nodes * self.duration_s / 3600.0

    def setup(self) -> None:
        from repro.persistence.auditor import StateAuditor
        from repro.persistence.campaign import (
            CampaignConfig,
            PersistentCampaign,
        )

        self.directory = tempfile.mkdtemp(prefix="soak-", dir=self.work_dir)
        self.auditor = StateAuditor(strict=False)
        self.campaign = PersistentCampaign(
            CampaignConfig(n_nodes=self.nodes, duration_s=self.duration_s,
                           seed=self.seed, policies="on",
                           rate_per_hour=self.chaos_per_node_hour,
                           base_rate_per_hour=self.arrivals_per_hour),
            snapshot_dir=self.directory,
            snapshot_every_s=self.snapshot_every_s, auditor=self.auditor)

    def run(self, recorder=None) -> None:
        self.result = self.campaign.run()

    def outcome(self) -> Dict[str, object]:
        from repro.persistence import SnapshotStore, payload_checksum

        result = self.result
        cloud = self.campaign.cloud
        headline = asdict(replace(result, experiment=None))
        headline.pop("experiment", None)
        problems = []
        if self.auditor.violation_count:
            problems.append(
                f"{self.auditor.violation_count} auditor violations")
        store = SnapshotStore(self.directory)
        newest = store.load_newest()
        snapshot_bytes = 0
        if newest is None:
            problems.append("no snapshot generation reloads")
        else:
            snapshot_bytes = os.path.getsize(store.snapshot_path(newest[0]))
            if newest[0] != self.campaign.step_index:
                problems.append(
                    f"newest snapshot is step {newest[0]}, the campaign "
                    f"ended at step {self.campaign.step_index}")
        stats = self.campaign.simulation.stats
        return {
            "digest": payload_checksum({
                "result": headline, "metrics": cloud.metrics_snapshot()}),
            "sim": {
                "availability": result.fleet_availability,
                "sla_violations": result.sla_violations,
                "node_crashes": result.node_crashes,
                "plan_faults": result.plan_faults,
                "admitted": result.admitted,
                "rejected": result.rejected,
                "snapshot_bytes": snapshot_bytes,
            },
            "problems": problems,
            "layers": {
                "cloudmgr.admission.arrivals": stats.arrivals,
                "cloudmgr.admission.accept_ratio": ratio(
                    stats.admitted, stats.arrivals),
                "cloudmgr.migration.succeeded": _migrations_succeeded(cloud),
                "persistence.audit.failed": self.auditor.violation_count,
                "persistence.snapshot.mb": snapshot_bytes / 1e6,
            },
        }

    def close(self) -> None:
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)


class FleetRun:
    """A ``FleetCampaign`` driven one ``run(until_step=t + 1)`` at a time,
    so each step can be timed; ``test_e2e.py`` pins that this drive
    reports byte-identically to a single ``run()``."""

    def __init__(self, seed: int, work_dir: str, nodes: int,
                 duration_s: float, arrivals_per_hour: float, shards: int,
                 jobs: int, chaos: bool) -> None:
        self.seed = seed
        self.nodes = nodes
        self.duration_s = duration_s
        self.arrivals_per_hour = arrivals_per_hour
        self.shards = shards
        self.jobs = jobs
        self.chaos = chaos
        self.campaign = None

    @property
    def node_hours(self) -> float:
        return self.nodes * self.duration_s / 3600.0

    def config(self):
        from repro.fleet import FleetCampaignConfig, FleetConfig

        chaos = {}
        if self.chaos:
            chaos = {"chaos_seed": self.seed,
                     "correlated_seed": self.seed + 1,
                     "domain_defense": True}
        return FleetCampaignConfig(
            fleet=FleetConfig(n_nodes=self.nodes, seed=self.seed),
            duration_s=self.duration_s,
            arrivals_per_hour=self.arrivals_per_hour,
            shards=self.shards, **chaos)

    def setup(self) -> None:
        from repro.fleet import FleetCampaign

        self.campaign = FleetCampaign(self.config(), jobs=self.jobs)
        if self.jobs > 1:
            # Worker processes build their shards after they start; one
            # gather round trip waits for that, so set-up ends when the
            # campaign can step.
            self.campaign.executor.gather()

    def run(self, recorder=None) -> None:
        campaign = self.campaign
        for t in range(campaign.config.n_steps):
            if recorder is None:
                campaign.run(until_step=t + 1)
            else:
                recorder.span(FLEET_STEP, campaign.run, until_step=t + 1)
        self.report = campaign.report()

    def outcome(self) -> Dict[str, object]:
        from repro.persistence import payload_checksum

        totals = self.report["totals"]
        restarts = self.campaign.executor.worker_restarts_total
        n_steps = self.campaign.config.n_steps
        problems = []
        if totals["steps"] != n_steps:
            problems.append(f"{totals['steps']} steps of {n_steps}")
        if "quarantine" in self.report:
            problems.append("the report has a quarantine block")
        if restarts:
            problems.append(f"{restarts} worker restarts")
        arrivals = totals["admitted"] + totals["rejected"]
        return {
            "digest": payload_checksum(self.report),
            "sim": {key: totals[key] for key in (
                "steps", "admitted", "rejected", "vm_failures", "crashes",
                "migrations", "energy_j", "availability")},
            "problems": problems,
            "layers": {
                "fleet.admission.arrivals": arrivals,
                "fleet.admission.accept_ratio": ratio(
                    totals["admitted"], arrivals),
                "fleet.executor.worker_restarts": restarts,
            },
        }

    def close(self) -> None:
        if self.campaign is not None:
            self.campaign.close()


class TaskTimer:
    """``run_sweep(worker=...)`` wrapper: runs the task and writes one
    sidecar file with its busy time from inside the worker process."""

    def __init__(self, directory: str) -> None:
        self.directory = directory

    def __call__(self, task):
        from repro.sweep import run_sweep_task

        start = perf_counter()
        row = run_sweep_task(task)
        busy_s = perf_counter() - start
        path = os.path.join(self.directory,
                            f"task-{task.index:04d}-{os.getpid()}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"{busy_s!r}\n")
        return row


class SweepRun:
    """``run_sweep`` over ``n_seeds`` chaos campaigns with ``jobs``
    fork-per-task workers."""

    def __init__(self, seed: int, work_dir: str, n_seeds: int, nodes: int,
                 duration_s: float, arrivals_per_hour: float,
                 jobs: int) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.seeds = tuple(seed * 1000 + i for i in range(n_seeds))
        self.nodes = nodes
        self.duration_s = duration_s
        self.arrivals_per_hour = arrivals_per_hour
        self.jobs = jobs
        self.sidecars: Optional[str] = None

    @property
    def node_hours(self) -> float:
        return len(self.seeds) * self.nodes * self.duration_s / 3600.0

    def setup(self) -> None:
        from repro.sweep import SweepSpec

        self.spec = SweepSpec(seeds=self.seeds, n_nodes=self.nodes,
                              duration_s=self.duration_s,
                              base_rate_per_hour=self.arrivals_per_hour)

    def run(self, recorder=None) -> None:
        from repro.sweep import run_sweep, run_sweep_task, sweep_report

        worker = run_sweep_task
        if recorder is not None:
            self.sidecars = tempfile.mkdtemp(prefix="sweep-",
                                             dir=self.work_dir)
            worker = TaskTimer(self.sidecars)
        start = perf_counter()
        self.result = run_sweep(self.spec, jobs=self.jobs, worker=worker)
        self.wall_s = perf_counter() - start
        self.report = sweep_report(self.result)

    def outcome(self) -> Dict[str, object]:
        from repro.sweep import report_digest

        rows = self.result.rows
        failures = self.result.failures
        problems = [f"task {row.index} seed {row.seed} failed: {row.error}"
                    for row in failures]
        ok = [row.result for row in rows if row.ok and row.result]
        layers: Dict[str, float] = {
            "sweep.tasks.retries": sum(row.attempts - 1 for row in rows),
            "sweep.tasks.failed": len(failures),
        }
        if self.sidecars is not None:
            busy = []
            for name in sorted(os.listdir(self.sidecars)):
                with open(os.path.join(self.sidecars, name),
                          encoding="utf-8") as handle:
                    busy.append(float(handle.read()))
            layers["sweep.tasks.calls"] = len(busy)
            layers["sweep.tasks.busy_s"] = sum(busy)
            layers["sweep.wall_s"] = self.wall_s
            layers["sweep.parallel_efficiency"] = ratio(
                sum(busy), self.jobs * self.wall_s)
        return {
            "digest": report_digest(self.report),
            "sim": {
                "tasks": len(rows),
                "failures": len(failures),
                "availability_mean": (
                    sum(r["fleet_availability"] for r in ok) / len(ok)
                    if ok else 0.0),
                "sla_violations": sum(r["sla_violations"] for r in ok),
                "node_crashes": sum(r["node_crashes"] for r in ok),
            },
            "problems": problems,
            "layers": layers,
        }

    def close(self) -> None:
        if self.sidecars is not None:
            shutil.rmtree(self.sidecars, ignore_errors=True)


@dataclass(frozen=True)
class Workload:
    """One pinned campaign: its size and the layers whose self time it
    is meant to be dominated by (why it exists is in BENCHMARK.json)."""

    name: str
    kind: type
    size: Dict[str, object]
    smoke: Dict[str, object]
    #: Per-layer ``self_s``/``wait_s`` metrics whose summed share of the
    #: traced run shows the workload stresses the layer it was built for.
    targets: Tuple[str, ...]
    #: Whether spans are installed.  Sweep tasks run in forked workers,
    #: where spans would only add cost: the sweep is traced by per-task
    #: sidecars instead.
    spans: bool = True

    @property
    def jobs(self) -> int:
        """Worker processes the campaign uses (1 = in-process)."""
        return int(self.size.get("jobs", 1))

    def make(self, seed: int, work_dir: str, smoke: bool = False):
        size = self.smoke if smoke else self.size
        return self.kind(seed=seed, work_dir=work_dir, **size)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="rack-dense",
        kind=RackRun,
        # Arrivals far beyond capacity fill the rack within about a minute
        # and keep it full (about 67 VMs), so the cost hardly depends on
        # the seed's arrival draws.
        size={"nodes": 4, "duration_s": 450.0, "arrivals_per_hour": 4800.0,
              "characterize": False},
        smoke={"nodes": 2, "duration_s": 600.0, "arrivals_per_hour": 120.0,
               "characterize": False},
        targets=("hardware.core_model.self_s", "hardware.cache.self_s")),
    Workload(
        name="rack-eop",
        kind=RackRun,
        size={"nodes": 8, "duration_s": 900.0, "arrivals_per_hour": 12.0,
              "characterize": True},
        smoke={"nodes": 2, "duration_s": 600.0, "arrivals_per_hour": 12.0,
               "characterize": True},
        targets=("hardware.dram.self_s",)),
    Workload(
        name="rack-soak",
        kind=SoakRun,
        # A VM costs about as much host time as a node, so VMs are kept
        # rare: a Poisson VM count would swing the cost with the seed.
        size={"nodes": 16, "duration_s": 1800.0, "arrivals_per_hour": 0.5,
              "chaos_per_node_hour": 6.0, "snapshot_every_s": 300.0},
        smoke={"nodes": 2, "duration_s": 1200.0, "arrivals_per_hour": 12.0,
               "chaos_per_node_hour": 6.0, "snapshot_every_s": 600.0},
        targets=("persistence.snapshot.self_s",
                 "persistence.state_dict.self_s", "persistence.audit.self_s",
                 "persistence.journal.self_s")),
    Workload(
        name="fleet-50k",
        kind=FleetRun,
        size={"nodes": 50_000, "duration_s": 600.0,
              "arrivals_per_hour": 120.0, "shards": 1, "jobs": 1,
              "chaos": False},
        smoke={"nodes": 2000, "duration_s": 600.0,
               "arrivals_per_hour": 120.0, "shards": 1, "jobs": 1,
               "chaos": False},
        targets=("fleet.kernels.self_s", "fleet.rng.self_s")),
    Workload(
        name="fleet-chaos",
        kind=FleetRun,
        size={"nodes": 4000, "duration_s": 1200.0,
              "arrivals_per_hour": 16_000.0, "shards": 4, "jobs": 2,
              "chaos": True},
        smoke={"nodes": 512, "duration_s": 600.0,
               "arrivals_per_hour": 1600.0, "shards": 4, "jobs": 2,
               "chaos": True},
        targets=("fleet.admission.self_s", "fleet.chaos.self_s",
                 "fleet.executor.wait_s")),
    Workload(
        name="sweep",
        kind=SweepRun,
        # Near-idle racks keep the tasks about equal in cost, so the
        # seed barely changes how evenly they share the workers.
        size={"n_seeds": 8, "nodes": 8, "duration_s": 1800.0,
              "arrivals_per_hour": 0.5, "jobs": 2},
        smoke={"n_seeds": 2, "nodes": 2, "duration_s": 600.0,
               "arrivals_per_hour": 12.0, "jobs": 2},
        targets=(), spans=False),
)}
