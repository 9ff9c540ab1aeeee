"""Bench — fault-tolerant fleet execution: replay identity and cost.

The acceptance bar for the supervised fleet executor
(``repro.fleet.campaign._ProcessExecutor``) and the vectorized chaos
layer (``repro.fleet.chaos``):

* a campaign with a seeded fault plan *and* injected worker SIGKILLs
  must produce a report **byte-identical** to the clean run — the
  supervisor detects every death, respawns the worker, and
  deterministically replays its shards from the last per-shard
  checkpoint;
* a campaign whose restart budget is exhausted must *complete* (exit
  0) with the quarantined shards recorded in the report, instead of
  raising;
* supervision must be cheap: the supervised executor with periodic
  checkpointing enabled must cost no more than 10% wall-clock over the
  same executor with checkpointing disabled.

Scale knobs from the environment:

``FLEET_CHAOS_NODES``          CLI fleet size            (default 16)
``FLEET_CHAOS_OVERHEAD_NODES`` overhead-arm fleet size   (default 128)
``FLEET_CHAOS_OVERHEAD_PCT``   supervision cost ceiling  (default 10)
``FLEET_CHAOS_SMOKE``          set to relax the overhead assert to a
                               report line (shared CI boxes)
"""

import json
import os
import pathlib
import subprocess
import sys
import time

from conftest import run_once

NODES = int(os.environ.get("FLEET_CHAOS_NODES", "16"))
OVERHEAD_NODES = int(os.environ.get("FLEET_CHAOS_OVERHEAD_NODES",
                                    "128"))
OVERHEAD_PCT = float(os.environ.get("FLEET_CHAOS_OVERHEAD_PCT", "10"))
SMOKE = bool(os.environ.get("FLEET_CHAOS_SMOKE"))
DURATION_S = 1800.0
CHAOS_SEED = 5

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
            "--shards", "4",
            "--chaos-seed", str(CHAOS_SEED),
            "--report-json", str(report_path), *extra]


def test_worker_kills_replay_to_identical_report(
        benchmark, emit, tmp_path):
    """Two SIGKILLed workers + chaos == the clean report, bytewise."""
    clean = tmp_path / "fleet-chaos-clean.json"
    killed = tmp_path / "fleet-chaos-killed.json"
    quarantined = tmp_path / "fleet-chaos-quarantined.json"

    def harness():
        subprocess.run(_fleet_argv(clean), check=True, env=_env(),
                       cwd=_REPO_ROOT, stdout=subprocess.DEVNULL,
                       timeout=600)
        subprocess.run(
            _fleet_argv(killed, "--jobs", "2",
                        "--kill-worker-at", "7:0",
                        "--kill-worker-at", "19:1",
                        "--max-worker-restarts", "3"),
            check=True, env=_env(), cwd=_REPO_ROOT,
            stdout=subprocess.DEVNULL, timeout=600)
        # Restart budget 0: the first kill must quarantine, and the
        # campaign must still exit 0 with the block in the report.
        subprocess.run(
            _fleet_argv(quarantined, "--jobs", "2",
                        "--kill-worker-at", "7:0",
                        "--max-worker-restarts", "0"),
            check=True, env=_env(), cwd=_REPO_ROOT,
            stdout=subprocess.DEVNULL, timeout=600)

    run_once(benchmark, harness)

    clean_bytes = clean.read_bytes()
    identical = clean_bytes == killed.read_bytes()
    q_report = json.loads(quarantined.read_text())
    quarantine = q_report.get("quarantine")
    clean_report = json.loads(clean.read_text())

    emit("fleet_chaos_identity", "\n".join([
        f"fleet chaos identity: {NODES} nodes, chaos seed "
        f"{CHAOS_SEED}, 2 injected SIGKILLs",
        f"killed run byte-identical to clean: {identical}",
        f"clean report has quarantine block: "
        f"{'quarantine' in clean_report}",
        f"quarantined run completed with block: {quarantine}",
    ]))

    assert identical, (
        "worker SIGKILLs leaked into the report: deterministic "
        "replay failed")
    assert "quarantine" not in clean_report, (
        "clean run must not carry a quarantine block")
    assert quarantine and quarantine["nodes"] > 0, (
        "exhausted restart budget did not record a quarantine")
    assert q_report["totals"]["steps"] \
        == clean_report["totals"]["steps"], (
        "quarantined campaign did not run to completion")


def test_supervision_overhead_is_bounded(benchmark, emit):
    """Checkpointing + supervised receives cost <= the ceiling.

    Runs a larger fleet than the identity arms: the costs being priced
    (poll-based receives, the periodic checkpoint gather) are per-step
    constants, so a too-small campaign would measure scheduler noise
    instead of supervision.
    """
    from repro.fleet import FleetCampaignConfig, FleetConfig
    from repro.fleet.campaign import FleetCampaign

    config = FleetCampaignConfig(
        fleet=FleetConfig(n_nodes=OVERHEAD_NODES, seed=0),
        duration_s=DURATION_S, shards=4, chaos_seed=CHAOS_SEED)

    def run_campaign(checkpoint_every):
        campaign = FleetCampaign(
            config, jobs=2, checkpoint_every_steps=checkpoint_every)
        try:
            start = time.perf_counter()
            campaign.run()
            campaign.report()
            return time.perf_counter() - start
        finally:
            campaign.close()

    def harness():
        run_campaign(None)  # warm both paths once
        bare = min(run_campaign(None) for _ in range(3))
        supervised = min(run_campaign(25) for _ in range(3))
        return bare, supervised

    bare_s, supervised_s = run_once(benchmark, harness)
    overhead_pct = (supervised_s / bare_s - 1.0) * 100.0

    emit("fleet_chaos_overhead", "\n".join([
        f"supervision overhead: {OVERHEAD_NODES} nodes, jobs=2, "
        f"{int(DURATION_S // 60)} steps",
        f"no checkpoints:       {bare_s:8.3f} s",
        f"checkpoint every 25:  {supervised_s:8.3f} s",
        f"overhead: {overhead_pct:+.1f}% "
        f"(ceiling {OVERHEAD_PCT:.0f}%)",
        f"smoke mode (assert relaxed): {SMOKE}",
    ]))

    if not SMOKE:
        assert overhead_pct <= OVERHEAD_PCT, (
            f"supervision overhead {overhead_pct:.1f}% exceeds the "
            f"{OVERHEAD_PCT:.0f}% ceiling")
