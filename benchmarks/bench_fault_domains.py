"""Bench — correlated fault domains: defense A/B and replay identity.

The acceptance bar for topology-aware chaos (``repro.fleet.domains``,
the correlated kinds in ``repro.fleet.chaos``) and the domain-aware
defenses (anti-affinity placement, partition routing, evacuation
backpressure, the correlated-demotion guard):

* under one seeded correlated plan containing **at least one PDU
  brownout, one cooling failure and one rack partition**, the
  defended arm must beat the undefended arm on **both** fleet
  availability and total SLA violations — and must actually exercise
  the machinery (migrations > 0, domain demotions > 0);
* the defended campaign's report must be **byte-identical** across
  ``--shards 1`` vs ``--shards 4`` and across an injected worker
  SIGKILL with deterministic replay — correlated blast radii must not
  leak execution geometry into the physics;
* the EOP governor's correlated guard must demote a whole component
  kind (the browned-out rail's cores) in **one** batch transaction
  when K budget breaches land inside the correlation window.

Scale knobs from the environment:

``FAULT_DOMAINS_NODES``     fleet size for every arm   (default 32)
``FAULT_DOMAINS_DURATION``  campaign seconds           (default 7200)
"""

import json
import os
import pathlib
import subprocess
import sys

from conftest import run_once

NODES = int(os.environ.get("FAULT_DOMAINS_NODES", "32"))
DURATION_S = float(os.environ.get("FAULT_DOMAINS_DURATION", "7200"))
ARRIVALS_PER_HOUR = 240.0
CORRELATED_SEED = 7
CORRELATED_RATE = 0.6
CORRELATED_INTENSITY = 0.6

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _env():
    env = dict(os.environ)
    src = str(_REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _fleet_argv(report_path, *extra):
    return [sys.executable, "-m", "repro", "fleet",
            "--nodes", str(NODES),
            "--duration", str(DURATION_S),
            "--rate", str(ARRIVALS_PER_HOUR),
            "--correlated-seed", str(CORRELATED_SEED),
            "--correlated-rate", str(CORRELATED_RATE),
            "--correlated-intensity", str(CORRELATED_INTENSITY),
            "--domain-defense",
            "--report-json", str(report_path), *extra]


def test_domain_defense_ab(benchmark, emit):
    """Defenses on vs off under one plan: both headline metrics win."""
    from dataclasses import replace

    from repro.fleet import FleetCampaignConfig, FleetConfig
    from repro.fleet.campaign import run_fleet_campaign

    base = FleetCampaignConfig(
        fleet=FleetConfig(n_nodes=NODES, seed=0),
        duration_s=DURATION_S,
        arrivals_per_hour=ARRIVALS_PER_HOUR,
        mean_lifetime_s=1800.0,
        correlated_seed=CORRELATED_SEED,
        correlated_rate_per_hour=CORRELATED_RATE,
        correlated_intensity=CORRELATED_INTENSITY,
        domain_defense=False)

    def harness():
        baseline = run_fleet_campaign(base)
        defended = run_fleet_campaign(
            replace(base, domain_defense=True))
        return baseline, defended

    baseline, defended = run_once(benchmark, harness)
    kinds = sorted({spec.kind.value for spec in base.correlated_plan()})
    b, d = baseline["totals"], defended["totals"]

    emit("fault_domains_ab", "\n".join([
        f"fault-domain defense A/B: {NODES} nodes, "
        f"{int(DURATION_S)} s, correlated seed {CORRELATED_SEED}",
        f"plan kinds: {kinds}",
        f"{'metric':<22}{'baseline':>12}{'defended':>12}",
        f"{'availability':<22}{b['availability']:>12.4f}"
        f"{d['availability']:>12.4f}",
        f"{'sla_violations':<22}{b['sla_violations']:>12}"
        f"{d['sla_violations']:>12}",
        f"{'vm_failures':<22}{b['vm_failures']:>12}"
        f"{d['vm_failures']:>12}",
        f"{'rejected':<22}{b['rejected']:>12}{d['rejected']:>12}",
        f"{'migrations':<22}{b['migrations']:>12}"
        f"{d['migrations']:>12}",
        f"{'domain_demotions':<22}{b['domain_demotions']:>12}"
        f"{d['domain_demotions']:>12}",
    ]))

    assert {"pdu_brownout", "cooling_failure",
            "rack_partition"} <= set(kinds), (
        f"the seeded plan must carry every correlated kind, got {kinds}")
    assert d["availability"] > b["availability"], (
        "domain defenses did not improve availability")
    assert d["sla_violations"] < b["sla_violations"], (
        "domain defenses did not reduce SLA violations")
    assert d["migrations"] > 0, "at-risk evacuation never moved a VM"
    assert d["domain_demotions"] > 0, (
        "the correlated-demotion guard never fired")
    assert b["migrations"] == 0 and b["domain_demotions"] == 0, (
        "the undefended arm must not run defense machinery")


def test_correlated_identity_across_shards_and_replay(
        benchmark, emit, tmp_path):
    """Shards 1 vs 4, and a SIGKILLed worker, report identical bytes."""
    shards1 = tmp_path / "fault-domains-shards1.json"
    shards4 = tmp_path / "fault-domains-shards4.json"
    killed = tmp_path / "fault-domains-killed.json"

    def harness():
        subprocess.run(
            _fleet_argv(shards1, "--shards", "1"),
            check=True, env=_env(), cwd=_REPO_ROOT,
            stdout=subprocess.DEVNULL, timeout=600)
        subprocess.run(
            _fleet_argv(shards4, "--shards", "4"),
            check=True, env=_env(), cwd=_REPO_ROOT,
            stdout=subprocess.DEVNULL, timeout=600)
        subprocess.run(
            _fleet_argv(killed, "--shards", "4", "--jobs", "2",
                        "--kill-worker-at", "11:0",
                        "--max-worker-restarts", "3"),
            check=True, env=_env(), cwd=_REPO_ROOT,
            stdout=subprocess.DEVNULL, timeout=600)

    run_once(benchmark, harness)

    base_bytes = shards1.read_bytes()
    shard_identical = base_bytes == shards4.read_bytes()
    replay_identical = base_bytes == killed.read_bytes()
    report = json.loads(shards1.read_text())

    emit("fault_domains_identity", "\n".join([
        f"fault-domain identity: {NODES} nodes, correlated seed "
        f"{CORRELATED_SEED}, defense on",
        f"shards 1 == shards 4:      {shard_identical}",
        f"clean == SIGKILL + replay: {replay_identical}",
        f"fault_domains block: {report['fault_domains']['by_kind']}",
    ]))

    assert shard_identical, (
        "correlated chaos leaked the shard split into the report")
    assert replay_identical, (
        "worker SIGKILL replay diverged under correlated chaos")
    assert report["fault_domains"]["defense"] is True


def test_correlated_guard_demotes_rail_in_one_transaction(
        benchmark, emit):
    """K budget breaches inside the window demote every remaining
    adopted core in a single batch — one event, no individual strikes.
    """
    from repro.core import UniServerNode
    from repro.core.events import CorrectableErrorEvent
    from repro.daemons.healthlog import HealthLogConfig
    from repro.eop import EOPPolicy, EOPState

    policy = EOPPolicy.adopt_within_budget().with_overrides(
        error_budget=3, correlated_k=2, correlated_window_s=120.0)

    def harness():
        node = UniServerNode(
            seed=3, eop_policy=policy,
            healthlog_config=HealthLogConfig(error_threshold=100))
        node.pre_deploy()
        node.deploy()
        adopted_before = node.governor.adopted_count()
        # A sagging rail: two cores breach their error budget back to
        # back (below the HealthLog anomaly threshold, so only the
        # governor's own supervision loop sees them).
        for component in ("core1", "core2"):
            for _ in range(3):
                node.bus.publish(CorrectableErrorEvent(
                    timestamp=node.clock.now, source="hw",
                    component=component, detail="brownout"))
        node.governor.step()
        return node, adopted_before

    node, adopted_before = run_once(benchmark, harness)
    events = node.governor.domain_demotion_events
    cores = [r for r in node.governor.records() if r.kind == "core"]
    batch = [r for r in cores
             if r.component not in ("core1", "core2")]

    emit("fault_domains_guard", "\n".join([
        f"correlated guard: {adopted_before} components adopted, "
        f"K=2 breaches in 120 s",
        f"guard firings (transactions): {len(events)}",
        f"batch-demoted components: "
        f"{events[0]['components'] if events else []}",
        f"individual strikes on the batch: "
        f"{[r.demotions for r in batch]}",
    ]))

    assert len(events) == 1, (
        "the guard must fire exactly once per correlated episode")
    assert events[0]["kind"] == "core"
    assert all(r.state is EOPState.DEMOTED for r in cores), (
        "the whole rail must come off its extended points")
    assert set(events[0]["components"]) == \
        {r.component for r in batch}, (
        "the batch must cover exactly the not-yet-demoted rail members")
    assert all(r.demotions == 0 for r in batch), (
        "a domain fault must not charge individual demotion strikes")
    assert node.runtime.metrics.counter("eop.correlated_demotions") == 1.0
