"""Tests of the end-to-end benchmark's own machinery.

Run from the repository root (not part of the tier-1 suite)::

    python3 -m pytest benchmarks/e2e/test_e2e.py
"""

import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import campaigns  # noqa: E402
import compare  # noqa: E402
import spans  # noqa: E402


@pytest.mark.parametrize("characterize", [False, True])
def test_rack_composition_matches_run_rack_experiment(tmp_path,
                                                      characterize):
    from repro.cloudmgr import run_rack_experiment

    run = campaigns.RackRun(seed=3, work_dir=str(tmp_path), nodes=2,
                            duration_s=900.0, arrivals_per_hour=120.0,
                            characterize=characterize)
    run.setup()
    run.run()
    experiment = run_rack_experiment(
        n_nodes=2, duration_s=900.0, seed=3, characterize=characterize,
        base_rate_per_hour=120.0)
    assert run.outcome()["digest"] == campaigns.rack_digest(
        experiment.stats, experiment.cloud)


def test_stepwise_fleet_drive_matches_single_run(tmp_path):
    from repro.fleet import FleetCampaign
    from repro.persistence import payload_checksum

    run = campaigns.FleetRun(seed=5, work_dir=str(tmp_path), nodes=256,
                             duration_s=1200.0, arrivals_per_hour=3000.0,
                             shards=2, jobs=1, chaos=True)
    run.setup()
    try:
        run.run(spans.SpanRecorder())
    finally:
        run.close()
    whole = FleetCampaign(run.config())
    try:
        whole.run()
        report = whole.report()
    finally:
        whole.close()
    assert run.outcome()["digest"] == payload_checksum(report)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_wrapped_children(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(spans, "perf_counter", clock)
    recorder = spans.SpanRecorder(keep=True)

    def leaf():
        clock.now += 4.0

    def failing():
        clock.now += 1.0
        raise ValueError("boom")

    traced_leaf = recorder.wrap("leaf", leaf)
    traced_failing = recorder.wrap("failing", failing)

    def middle():
        clock.now += 2.0
        traced_leaf()
        traced_leaf()
        with pytest.raises(ValueError):
            traced_failing()

    traced_middle = recorder.wrap("middle", middle)

    def outer():
        clock.now += 1.0
        traced_middle()
        clock.now += 3.0

    recorder.span(spans.FLEET_STEP, outer)
    recorder.span(spans.FLEET_STEP, lambda: None)
    totals = recorder.totals
    calls, total_s, self_s, failed = totals[spans.FLEET_STEP]
    assert (calls, total_s, self_s, failed) == (2, 15.0, 4.0, 0)
    assert totals["middle"] == [1, 11.0, 2.0, 0]
    assert totals["leaf"] == [2, 8.0, 8.0, 0]
    assert totals["failing"] == [1, 1.0, 1.0, 1]
    assert sum(row[spans.SELF_S] for row in totals.values()) == 15.0
    assert recorder.samples[spans.FLEET_STEP] == [15.0, 0.0]
    parents = {span_id: parent for span_id, parent, *_ in recorder.spans}
    names = {span_id: name for span_id, _, name, *_ in recorder.spans}
    assert {names[i]: names.get(parents[i]) for i in names} == {
        spans.FLEET_STEP: None, "middle": spans.FLEET_STEP,
        "leaf": "middle", "failing": "middle"}


def test_only_outermost_spans_are_latency_samples(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(spans, "perf_counter", clock)
    recorder = spans.SpanRecorder()
    name = spans.SAMPLED[0]

    def inner():
        clock.now += 1.0

    traced_inner = recorder.wrap(name, inner)
    recorder.span(name, lambda: (traced_inner(), traced_inner()))
    assert recorder.samples[name] == [2.0]
    assert recorder.totals[name][:3] == [3, 4.0, 2.0]


@pytest.mark.parametrize("name", sorted(campaigns.WORKLOADS))
def test_traced_and_untraced_digests_match(tmp_path, name):
    workload = campaigns.WORKLOADS[name]

    def digest(recorder):
        run = workload.make(0, str(tmp_path), smoke=True)
        try:
            run.setup()
            run.run(recorder)
            outcome = run.outcome()
        finally:
            run.close()
        assert outcome["problems"] == []
        return outcome["digest"]

    plain = digest(None)
    recorder = spans.SpanRecorder()
    uninstall = spans.install(recorder)
    try:
        traced = digest(recorder)
    finally:
        uninstall()
    assert traced == plain
    if workload.spans:
        assert recorder.totals
    # Only the crash-safe campaign writes snapshots.
    writes_snapshots = workload.kind is campaigns.SoakRun
    assert (recorder.snapshot_bytes > 0) == writes_snapshots
    assert os.listdir(tmp_path) == []


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(base, [110.0] * 5, "higher", 0.1)[0] == "improved"
    assert compare.verdict(base, [99.8] * 5, "higher", 0.1)[0] == "no worse"
    assert compare.verdict(base, [80.0] * 5, "higher", 0.1)[0] == "regressed"
    assert compare.verdict(base, [80.0] * 5, "lower", 0.1)[0] == "improved"
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0]
    assert compare.verdict(noisy, [95.0] * 5, "higher", 0.1)[0] \
        == "unresolved"
    assert compare.verdict(noisy, [200.0] * 5, "higher", 0.1)[0] \
        == "improved"
    assert compare.verdict(base, [80.0] * 5, "higher", None)[0] \
        == "regressed"


def test_compare_refuses_runs_of_different_lengths(tmp_path):
    def result_file(index, seconds):
        path = tmp_path / f"r{index}.json"
        path.write_text(json.dumps({
            "workload": "sweep", "seconds": seconds, "smoke": False,
            "unresolved": False, "metrics": {"setup_s": 1.0 + index}}))
        return str(path)

    base = [result_file(0, 20.0), result_file(1, 20.0)]
    assert compare.main(["--base", *base, "--head", result_file(2, 20.0),
                         result_file(3, 20.0)]) == 0
    assert compare.main(["--base", *base, "--head", result_file(4, 20.0),
                         result_file(5, 10.0)]) == 2


def test_smoke_run_of_all_workloads_is_quick_and_correct():
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    assert len(results) == len(campaigns.WORKLOADS)
    assert all(r["correct"] and r["failed"] == 0 for r in results)
    assert elapsed < 60.0
