"""Tests for supervised fleet workers: kills, wedges, quarantine."""

import json
import os
import pathlib
import signal
import subprocess
import sys

import pytest

from repro.core.exceptions import (
    ConfigurationError,
    FleetWorkerError,
    PersistenceError,
)
from repro.fleet import (
    FleetCampaign,
    FleetCampaignConfig,
    FleetConfig,
    run_fleet_campaign,
)
from repro.persistence.snapshot import (
    canonical_json,
    shard_entries,
    verify_shard_entries,
)

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def small_config(**overrides):
    fleet = overrides.pop("fleet", None) or FleetConfig(
        n_nodes=overrides.pop("n_nodes", 8),
        seed=overrides.pop("seed", 0))
    defaults = dict(fleet=fleet, duration_s=1800.0,
                    arrivals_per_hour=240.0, mean_lifetime_s=600.0,
                    telemetry_every_steps=5, shards=4)
    defaults.update(overrides)
    return FleetCampaignConfig(**defaults)


class TestWorkerError:
    def test_carries_worker_and_progress(self):
        error = FleetWorkerError("worker 1 died", worker=1,
                                 shards=[1, 3], last_acked_step=6)
        assert error.worker == 1
        assert error.shards == (1, 3)
        assert error.last_acked_step == 6

    def test_defaults(self):
        error = FleetWorkerError("anonymous")
        assert error.worker == -1
        assert error.shards == ()
        assert error.last_acked_step is None


class TestKillInjection:
    def test_killed_workers_replay_to_identical_report(self):
        config = small_config(chaos_seed=5)
        clean = canonical_json(run_fleet_campaign(config, jobs=1))
        killed = canonical_json(run_fleet_campaign(
            config, jobs=2, kill_worker_at=[(7, 0), (19, 1)],
            max_worker_restarts=3, checkpoint_every_steps=6))
        assert killed == clean
        assert "quarantine" not in json.loads(killed)

    def test_kill_without_checkpoints_replays_from_genesis(self):
        config = small_config()
        clean = canonical_json(run_fleet_campaign(config, jobs=1))
        killed = canonical_json(run_fleet_campaign(
            config, jobs=2, kill_worker_at=[(13, 0)],
            checkpoint_every_steps=None))
        assert killed == clean

    def test_kill_validation(self):
        with pytest.raises(ConfigurationError):
            run_fleet_campaign(small_config(), jobs=1,
                               kill_worker_at=[(3, 0)])
        with pytest.raises(ConfigurationError):
            run_fleet_campaign(small_config(), jobs=2,
                               kill_worker_at=[(3, 9)])
        with pytest.raises(ConfigurationError):
            run_fleet_campaign(small_config(), jobs=2,
                               kill_worker_at=[(-1, 0)])


class TestWedgedWorker:
    def test_sigstopped_worker_is_replaced_and_replayed(self):
        config = small_config(chaos_seed=5)
        clean = canonical_json(run_fleet_campaign(config, jobs=1))
        campaign = FleetCampaign(config, jobs=2,
                                 worker_timeout_s=1.5,
                                 max_worker_restarts=2)
        try:
            campaign.run(until_step=5)
            process = campaign.executor._workers[0].process
            os.kill(process.pid, signal.SIGSTOP)
            campaign.run()
            report = campaign.report()
        finally:
            campaign.close()
        assert canonical_json(report) == clean
        assert campaign.executor.worker_restarts_total >= 1

    def test_quarantine_after_exhausted_restarts(self):
        config = small_config(chaos_seed=5)
        report = run_fleet_campaign(
            config, jobs=2, kill_worker_at=[(7, 0)],
            max_worker_restarts=0)
        quarantine = report["quarantine"]
        assert quarantine["nodes"] == 4  # two of four 2-node shards
        assert quarantine["worker_restarts"] == 1
        assert report["totals"]["steps"] == config.n_steps
        assert report["totals"]["nodes_down_final"] >= 4
        # Clean runs never carry the block.
        clean = run_fleet_campaign(config, jobs=1)
        assert "quarantine" not in clean

    def test_full_quarantine_still_completes(self):
        config = small_config(chaos_seed=None)
        report = run_fleet_campaign(
            config, jobs=2, kill_worker_at=[(3, 0), (4, 1)],
            max_worker_restarts=0)
        assert report["quarantine"]["nodes"] == 8
        assert report["totals"]["steps"] == config.n_steps
        # With every node quarantined, admission rejects everything
        # after the freeze.
        assert report["totals"]["rejected"] > 0


class TestCloseEscalation:
    def test_close_kills_wedged_worker(self):
        campaign = FleetCampaign(small_config(), jobs=2)
        executor = campaign.executor
        executor.CLOSE_JOIN_TIMEOUT_S = 0.5  # shadow the class attr
        campaign.run(until_step=3)
        processes = [worker.process for worker in executor._workers]
        # A SIGSTOPped worker ignores both "stop" and SIGTERM; close()
        # must escalate to SIGKILL instead of hanging.
        os.kill(processes[0].pid, signal.SIGSTOP)
        campaign.close()
        for process in processes:
            assert not process.is_alive()

    def test_close_joins_cooperative_workers(self):
        campaign = FleetCampaign(small_config(), jobs=2)
        campaign.run(until_step=3)
        processes = [worker.process
                     for worker in campaign.executor._workers]
        campaign.close()
        for process in processes:
            assert not process.is_alive()


class TestPerShardSnapshots:
    def test_snapshot_carries_checksummed_shards(self, tmp_path):
        campaign = FleetCampaign(small_config(),
                                 snapshot_dir=tmp_path)
        campaign.run(until_step=10)
        campaign.take_snapshot()
        campaign.close()
        snapshot = json.loads(
            (tmp_path / "snapshot-00000010.json").read_text())
        shards = snapshot["body"]["payload"]["fleet"]["shards"]
        assert len(shards) == 4
        assert all("sha256" in entry for entry in shards)

    def test_damaged_shard_is_named(self):
        entries = shard_entries([(0, 2, {"n_nodes": 2}),
                                 (2, 4, {"n_nodes": 2})])
        entries[1]["state"] = {"n_nodes": 99}
        with pytest.raises(PersistenceError, match=r"shard \[2, 4\)"):
            verify_shard_entries(entries)

    def test_resume_across_worker_counts(self, tmp_path):
        config = small_config(chaos_seed=5)
        full = canonical_json(run_fleet_campaign(config, jobs=2))
        campaign = FleetCampaign(config, jobs=2,
                                 snapshot_dir=tmp_path)
        campaign.run(until_step=15)
        campaign.take_snapshot()
        campaign.close()
        resumed = FleetCampaign(config, jobs=1,
                                snapshot_dir=tmp_path)
        assert resumed.resume()
        resumed.run()
        report = canonical_json(resumed.report())
        resumed.close()
        assert report == full


class TestCliKill:
    def test_cli_worker_kill_matches_clean_report(self, tmp_path):
        """A real SIGKILL inside the CLI subprocess leaves no trace."""
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(_REPO_ROOT / "src") + os.pathsep
                             + env.get("PYTHONPATH", ""))
        env["PYTHONHASHSEED"] = "0"
        clean = tmp_path / "clean.json"
        killed = tmp_path / "killed.json"

        def run(path, *extra):
            subprocess.run(
                [sys.executable, "-m", "repro", "fleet",
                 "--nodes", "8", "--duration", "1800",
                 "--shards", "4", "--chaos-seed", "5",
                 "--report-json", str(path), *extra],
                check=True, env=env, cwd=_REPO_ROOT,
                stdout=subprocess.DEVNULL, timeout=240)

        run(clean)
        run(killed, "--jobs", "2", "--kill-worker-at", "11:1",
            "--max-worker-restarts", "2")
        assert clean.read_bytes() == killed.read_bytes()
