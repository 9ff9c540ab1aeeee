"""Tests for the vectorized fleet campaign and its executors."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.core.exceptions import ConfigurationError, PersistenceError
from repro.fleet import (
    FleetCampaign,
    FleetCampaignConfig,
    FleetConfig,
    run_fleet_campaign,
)
from repro.persistence.snapshot import canonical_json


_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Run in a fresh interpreter: import the fleet, list the rack-stack and
#: scipy modules that loaded, then resolve the names exported lazily.
_IMPORT_PROBE = """
import json, sys
import repro.fleet
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                or m.startswith(("repro.hardware", "repro.hypervisor",
                                 "repro.daemons", "repro.cloudmgr")))
import repro, repro.core, repro.persistence
print(json.dumps({"loaded": loaded, "names": [
    repro.UniServerNode.__name__, repro.core.LifetimeSimulator.__name__,
    repro.persistence.PersistentCampaign.__name__]}))
"""


def test_fleet_imports_without_the_object_stack():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=120).stdout
    probe = json.loads(out)
    assert probe["loaded"] == []
    assert probe["names"] == ["UniServerNode", "LifetimeSimulator",
                              "PersistentCampaign"]


def small_config(**overrides):
    fleet = overrides.pop("fleet", None) or FleetConfig(
        n_nodes=overrides.pop("n_nodes", 8),
        seed=overrides.pop("seed", 0))
    defaults = dict(fleet=fleet, duration_s=1800.0,
                    arrivals_per_hour=240.0, mean_lifetime_s=600.0,
                    telemetry_every_steps=5)
    defaults.update(overrides)
    return FleetCampaignConfig(**defaults)


def report_json(**kwargs):
    jobs = kwargs.pop("jobs", 1)
    config = kwargs.pop("config", None) or small_config(**kwargs)
    return canonical_json(run_fleet_campaign(config, jobs=jobs))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            small_config(duration_s=0.0)
        with pytest.raises(ConfigurationError):
            small_config(mean_lifetime_s=0.0)
        with pytest.raises(ConfigurationError):
            small_config(max_vcpus=99)
        with pytest.raises(ConfigurationError):
            small_config(shards=9)  # more shards than nodes

    def test_round_trip_and_report_echo(self):
        config = small_config(shards=2)
        assert FleetCampaignConfig.from_dict(config.as_dict()) == config
        assert "shards" not in config.as_report_dict()

    def test_older_config_with_a_stepper_key_loads(self):
        """Snapshots from before the per-node stepper was retired carry
        a ``stepper`` key; loading drops it."""
        config = small_config(shards=2)
        for stepper in ("vector", "scalar"):
            older = dict(config.as_dict(), stepper=stepper)
            assert FleetCampaignConfig.from_dict(older) == config

    def test_n_steps(self):
        assert small_config(duration_s=1800.0).n_steps == 30


class TestExecutionInvariance:
    def test_report_invariant_to_shards_jobs_stepper(self):
        baseline = report_json()
        assert report_json(config=small_config(shards=3)) == baseline
        assert report_json(config=small_config(shards=4),
                           jobs=2) == baseline

    def test_report_depends_on_seed_and_size(self):
        baseline = report_json()
        assert report_json(seed=1) != baseline
        assert report_json(n_nodes=6) != baseline


class TestCampaignLoop:
    def test_totals_and_series(self):
        report = run_fleet_campaign(small_config())
        totals = report["totals"]
        assert totals["steps"] == 30
        assert totals["admitted"] > 0
        assert 0 < totals["completed"] <= totals["admitted"]
        assert totals["active_vcpus_final"] >= 0
        assert totals["energy_j"] > 0
        assert len(report["series"]) == 6
        ep = report["energy_proportionality"]
        assert 0.0 < ep["dynamic_range"] < 1.0
        assert ep["proportionality_index"] is not None
        assert "report_sha256" in report

    def test_rejections_under_overload(self):
        config = small_config(n_nodes=1, arrivals_per_hour=2000.0,
                              mean_lifetime_s=7200.0)
        report = run_fleet_campaign(config)
        assert report["totals"]["rejected"] > 0

    def test_jobs_validation(self):
        with pytest.raises(ConfigurationError):
            FleetCampaign(small_config(), jobs=0)


class TestSnapshotResume:
    def test_resume_matches_uninterrupted(self, tmp_path):
        config = small_config()
        baseline = canonical_json(run_fleet_campaign(config))

        first = FleetCampaign(config, snapshot_dir=tmp_path)
        first.run(until_step=13)
        first.take_snapshot()
        first.close()

        second = FleetCampaign(config, snapshot_dir=tmp_path)
        assert second.resume() is True
        assert second.step_index == 13
        second.run()
        resumed = canonical_json(second.report())
        second.close()
        assert resumed == baseline

    def test_resume_across_shard_counts(self, tmp_path):
        # Execution knobs may change across a resume; the report not.
        config = small_config(shards=2)
        first = FleetCampaign(config, snapshot_dir=tmp_path)
        first.run(until_step=10)
        first.take_snapshot()
        first.close()

        second = FleetCampaign(small_config(shards=4),
                               snapshot_dir=tmp_path)
        assert second.resume() is True
        second.run()
        resumed = canonical_json(second.report())
        second.close()
        assert resumed == canonical_json(
            run_fleet_campaign(small_config()))

    def test_resume_rejects_different_campaign(self, tmp_path):
        first = FleetCampaign(small_config(), snapshot_dir=tmp_path)
        first.run(until_step=5)
        first.take_snapshot()
        first.close()

        other = FleetCampaign(small_config(arrivals_per_hour=60.0),
                              snapshot_dir=tmp_path)
        with pytest.raises(PersistenceError):
            other.resume()
        other.close()

    def test_resume_without_snapshot_starts_fresh(self, tmp_path):
        campaign = FleetCampaign(small_config(), snapshot_dir=tmp_path)
        assert campaign.resume() is False
        campaign.close()

    def test_periodic_snapshots_written(self, tmp_path):
        campaign = FleetCampaign(small_config(), snapshot_dir=tmp_path,
                                 snapshot_every_steps=10)
        campaign.run()
        campaign.close()
        resumer = FleetCampaign(small_config(), snapshot_dir=tmp_path)
        assert resumer.resume() is True
        assert resumer.step_index == 30
        resumer.close()

    @pytest.mark.parametrize("every", [0, -3])
    def test_rejects_nonpositive_snapshot_period(self, tmp_path, every):
        with pytest.raises(ConfigurationError, match="snapshot period"):
            FleetCampaign(small_config(), snapshot_dir=tmp_path,
                          snapshot_every_steps=every)

    def test_snapshot_requires_store(self):
        campaign = FleetCampaign(small_config())
        with pytest.raises(PersistenceError):
            campaign.take_snapshot()
        with pytest.raises(PersistenceError):
            campaign.resume()
        campaign.close()
