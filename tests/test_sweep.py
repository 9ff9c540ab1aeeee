"""Tests for the parallel multi-seed sweep engine."""

import multiprocessing
import os
from dataclasses import replace

import pytest

from repro.core.exceptions import ConfigurationError
from repro.resilience import run_chaos_ab
from repro.sweep import (
    SweepRow,
    SweepSpec,
    campaign_result_from_row,
    report_digest,
    run_sweep,
    run_sweep_task,
    summarize,
    sweep_report,
)

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

#: Small-but-real campaign shape shared by the subprocess tests.
_SMALL = dict(n_nodes=2, duration_s=240.0, rate_per_hour=20.0,
              intensity=0.8)


def _small_spec(**overrides):
    params = dict(_SMALL, seeds=(0, 1),
                  grid={"policies": ["on", "off"]})
    params.update(overrides)
    return SweepSpec(**params)


# -- deterministic workers for the crash/retry paths ----------------------

_SENTINEL_ENV = "REPRO_SWEEP_TEST_SENTINEL"


def _crash_once_worker(task):
    """Dies hard on task 1's first attempt, then behaves."""
    sentinel = f"{os.environ[_SENTINEL_ENV]}.{task.index}"
    if task.index == 1 and not os.path.exists(sentinel):
        with open(sentinel, "w", encoding="utf-8"):
            pass
        os._exit(3)
    return run_sweep_task(task)


def _crash_always_worker(task):
    os._exit(9)


def _error_row_worker(task):
    return SweepRow(index=task.index, point=task.point, seed=task.seed,
                    ok=False, error="synthetic failure")


class TestSweepSpec:
    def test_expansion_crosses_grid_and_seeds(self):
        spec = SweepSpec(
            seeds=(0, 1), n_nodes=2, duration_s=240.0,
            grid={"policies": ["on", "off"], "intensity": [0.5, 0.8]})
        tasks = spec.expand()
        assert len(tasks) == 8
        assert [t.index for t in tasks] == list(range(8))
        assert tasks[0].point == "policies=on/intensity=0.5"
        assert tasks[0].config.policies == "on"
        assert tasks[0].config.intensity == 0.5
        assert tasks[-1].point == "policies=off/intensity=0.8"
        assert {t.seed for t in tasks} == {0, 1}

    def test_expansion_is_deterministic(self):
        a = _small_spec().expand()
        b = _small_spec().expand()
        assert a == b

    def test_no_grid_yields_base_point(self):
        tasks = SweepSpec(seeds=(7,), n_nodes=2).expand()
        assert len(tasks) == 1
        assert tasks[0].point == "base"
        assert tasks[0].config.seed == 7

    def test_grid_axis_overrides_base_value(self):
        spec = SweepSpec(seeds=(0,), n_nodes=2,
                         grid={"nodes": [3, 4]})
        tasks = spec.expand()
        assert [t.config.n_nodes for t in tasks] == [3, 4]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(seeds=())
        with pytest.raises(ConfigurationError):
            SweepSpec(seeds=(0, 0))
        with pytest.raises(ConfigurationError):
            SweepSpec(grid={"voltage": [1.0]})
        with pytest.raises(ConfigurationError):
            SweepSpec(grid={"nodes": []})

    def test_explicit_plan_rejects_plan_shaping_axes(self):
        plan = {"specs": []}
        with pytest.raises(ConfigurationError):
            SweepSpec(plan=plan, grid={"intensity": [0.5, 0.8]})
        # The policies axis does not shape the plan, so it is fine.
        SweepSpec(plan=plan, grid={"policies": ["on", "off"]})

    def test_run_sweep_validation(self):
        spec = _small_spec()
        with pytest.raises(ConfigurationError):
            run_sweep(spec, jobs=0)
        with pytest.raises(ConfigurationError):
            run_sweep(spec, max_retries=-1)


class TestWorker:
    def test_task_matches_direct_campaign(self):
        from repro.persistence import PersistentCampaign, payload_checksum

        task = SweepSpec(seeds=(5,), **_SMALL).expand()[0]
        row = run_sweep_task(task)
        assert row.ok and row.error is None
        result = campaign_result_from_row(row)
        assert result.experiment is None
        direct = PersistentCampaign(task.config).run()
        assert result == replace(direct, experiment=None)
        assert row.metrics_sha256 == payload_checksum(
            direct.experiment.metrics_snapshot())

    def test_failed_row_has_no_result(self):
        row = SweepRow(index=0, point="base", seed=0, ok=False,
                       error="boom")
        with pytest.raises(ConfigurationError):
            campaign_result_from_row(row)


@pytest.mark.skipif(not _HAS_FORK, reason="needs the fork start method")
class TestRunSweep:
    def test_jobs_1_and_jobs_2_reports_are_identical(self):
        spec = _small_spec()
        serial = sweep_report(run_sweep(spec, jobs=1))
        parallel = sweep_report(run_sweep(_small_spec(), jobs=2))
        assert serial == parallel
        assert report_digest(serial) == report_digest(parallel)
        assert len(serial["rows"]) == 4
        assert not serial["failures"]

    def test_progress_stream(self):
        lines = []
        run_sweep(SweepSpec(seeds=(0,), **_SMALL), jobs=1,
                  progress=lines.append)
        assert len(lines) == 1
        assert "[1/1]" in lines[0] and "seed=0" in lines[0]

    def test_crashed_worker_is_retried(self, tmp_path, monkeypatch):
        monkeypatch.setenv(_SENTINEL_ENV, str(tmp_path / "sentinel"))
        spec = SweepSpec(seeds=(0, 1), **_SMALL)
        outcome = run_sweep(spec, jobs=2, max_retries=1,
                            worker=_crash_once_worker)
        assert not outcome.failures
        assert [row.attempts for row in outcome.rows] == [1, 2]

    def test_retries_exhausted_records_failure(self):
        spec = SweepSpec(seeds=(0,), **_SMALL)
        outcome = run_sweep(spec, jobs=1, max_retries=1,
                            worker=_crash_always_worker)
        assert len(outcome.failures) == 1
        failed = outcome.failures[0]
        assert failed.attempts == 2
        assert "exit code 9" in failed.error
        report = sweep_report(outcome)
        assert report["failures"][0]["error"] == failed.error
        assert report["summary"] == {}

    def test_error_rows_are_retried_then_recorded(self):
        spec = SweepSpec(seeds=(0,), **_SMALL)
        outcome = run_sweep(spec, jobs=1, max_retries=0,
                            worker=_error_row_worker)
        assert len(outcome.failures) == 1
        assert outcome.failures[0].error == "synthetic failure"
        assert outcome.failures[0].attempts == 1

    def test_snapshot_root_gives_each_task_a_store(self, tmp_path):
        spec = SweepSpec(seeds=(0,), duration_s=240.0, n_nodes=2,
                         snapshot_root=str(tmp_path))
        outcome = run_sweep(spec, jobs=1)
        assert not outcome.failures
        task_dir = tmp_path / "task-0000"
        assert list(task_dir.glob("snapshot-*.json"))

    def test_parallel_ab_matches_serial(self):
        serial = run_chaos_ab(jobs=1, **_SMALL)
        parallel = run_chaos_ab(jobs=2, **_SMALL)
        assert parallel.on.experiment is None
        assert (replace(parallel.on, experiment=None)
                == replace(serial.on, experiment=None))
        assert (replace(parallel.off, experiment=None)
                == replace(serial.off, experiment=None))
        assert parallel.availability_gain == serial.availability_gain


class TestSummarize:
    @staticmethod
    def _row(index, point, availability, mttr):
        return SweepRow(
            index=index, point=point, seed=index, ok=True,
            result={"fleet_availability": availability, "mttr_s": mttr,
                    "sla_violations": 0})

    def test_moments_per_point(self):
        rows = [self._row(0, "a", 0.9, 10.0),
                self._row(1, "a", 0.7, None),
                self._row(2, "b", 1.0, 5.0)]
        summary = summarize(rows)
        availability = summary["a"]["fleet_availability"]
        assert availability["count"] == 2
        assert availability["mean"] == pytest.approx(0.8)
        assert availability["min"] == 0.7
        # None mttr rows are skipped for that metric only.
        assert summary["a"]["mttr_s"]["count"] == 1
        assert summary["b"]["mttr_s"]["mean"] == 5.0

    def test_failed_rows_excluded(self):
        rows = [self._row(0, "a", 0.9, None),
                SweepRow(index=1, point="a", seed=1, ok=False,
                         error="x")]
        assert summarize(rows)["a"]["fleet_availability"]["count"] == 1
