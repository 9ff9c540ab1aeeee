"""Crash-safe campaign runtime: snapshots, journal, auditor, resume."""

import hashlib
import io
import json
import shutil
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import InvariantViolation, PersistenceError
from repro.daemons.healthlog import LOGFILE_LINES
from repro.persistence import (
    CampaignConfig,
    Journal,
    PersistentCampaign,
    SnapshotStore,
    StateAuditor,
    canonical_json,
    payload_checksum,
)
from repro.persistence.snapshot import SNAPSHOT_VERSION, _coerce

#: Tiny but chaotic: enough faults that crashes, recoveries, breaker
#: trips and RNG-consuming interceptions all actually happen.
CONFIG = CampaignConfig(n_nodes=3, duration_s=1800.0, seed=1,
                        rate_per_hour=25.0, intensity=0.9, step_s=60.0)

RESULT_FIELDS = (
    "label", "n_nodes", "duration_s", "seed", "plan_faults",
    "fleet_availability", "mttr_s", "sla_violations",
    "evacuation_success_rate", "node_crashes", "recoveries", "failovers",
    "breaker_trips", "flaps", "heartbeats_missed", "admitted",
    "rejected", "completed", "injections",
)


def _headline(result):
    return {field: getattr(result, field) for field in RESULT_FIELDS}


def _metrics_digest(campaign):
    return payload_checksum(campaign.cloud.metrics_snapshot())


def _run_digest(campaign, result):
    """Digest of a finished campaign: headline numbers plus metrics."""
    return payload_checksum({"result": _headline(result),
                             "metrics": campaign.cloud.metrics_snapshot()})


# -- snapshot store --------------------------------------------------------


class TestSnapshotStore:
    def test_atomic_write_and_reload(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(5, {"hello": [1, 2.5, None]})
        step, payload = store.load_newest()
        assert step == 5
        assert payload == {"hello": [1, 2.5, None]}
        assert not list(tmp_path.glob("*.tmp"))

    def test_keeps_only_n_generations(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=2)
        for step in (0, 10, 20, 30):
            store.save(step, {"step": step})
            Journal(store.journal_path(step)).close()
        assert store.generations() == [20, 30]
        assert not store.journal_path(0).exists()

    def test_corrupted_newest_falls_back_a_generation(
            self, tmp_path, caplog):
        store = SnapshotStore(tmp_path)
        store.save(0, {"generation": 0})
        store.save(7, {"generation": 7})
        # Bit-flip in the middle of the newest snapshot.
        path = store.snapshot_path(7)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with caplog.at_level("WARNING"):
            step, payload = store.load_newest()
        assert step == 0
        assert payload == {"generation": 0}
        assert any("damaged" in r.message for r in caplog.records)

    def test_truncated_newest_falls_back(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(0, {"generation": 0})
        store.save(3, {"generation": 3})
        path = store.snapshot_path(3)
        path.write_bytes(path.read_bytes()[: 40])
        step, payload = store.load_newest()
        assert step == 0

    def test_all_generations_damaged_returns_none(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(0, {"generation": 0})
        store.snapshot_path(0).write_text("not json")
        assert store.load_newest() is None

    def test_checksum_covers_payload(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(0, {"value": 1})
        # A *valid-JSON* tamper must still fail the checksum.
        path = store.snapshot_path(0)
        envelope = json.loads(path.read_text())
        envelope["body"]["payload"]["value"] = 2
        path.write_text(json.dumps(envelope))
        with pytest.raises(PersistenceError):
            store.load_generation(0)


    def test_file_bytes_are_the_json_dump_encoding(self, tmp_path):
        """One C-encoded write gives the bytes the streaming ``json.dump``
        gave: insertion order (not sorted), numpy scalars coerced, every
        float's repr, non-ASCII escaped."""
        payload = {
            "zeta": {"b": np.int64(7), "a": [np.float64(0.1), 1e-300]},
            "alpha": {"naïve": "café ✓", "on": np.bool_(True)},
            "mid": [np.float32(1.5), np.uint8(3), -0.0, 2 ** 70, None],
        }
        path = SnapshotStore(tmp_path).save(42, payload)
        body = {"version": SNAPSHOT_VERSION, "step": 42, "payload": payload}
        envelope = {"checksum": payload_checksum(body), "body": body}
        streamed = io.StringIO()
        json.dump(envelope, streamed, default=_coerce)
        written = path.read_bytes()
        assert written == streamed.getvalue().encode("utf-8")
        assert written.index(b'"zeta"') < written.index(b'"alpha"')


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = Journal(path)
        journal.append({"type": "intent", "step": 0})
        journal.append({"type": "commit", "step": 0, "digest": "abc"})
        journal.close()
        assert Journal.read(path) == [
            {"type": "intent", "step": 0},
            {"type": "commit", "step": 0, "digest": "abc"},
        ]

    def test_torn_final_line_truncates_cleanly(self, tmp_path, caplog):
        path = tmp_path / "journal.jsonl"
        journal = Journal(path)
        journal.append({"step": 0})
        journal.append({"step": 1})
        journal.close()
        # Chop the last line in half: the SIGKILL-mid-append signature.
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 9])
        with caplog.at_level("WARNING"):
            records = Journal.read(path)
        assert records == [{"step": 0}]

    def test_missing_file_reads_empty(self, tmp_path):
        assert Journal.read(tmp_path / "absent.jsonl") == []


def test_canonical_json_is_key_sorted_and_compact():
    assert canonical_json({"b": 1, "a": [1.5]}) == '{"a":[1.5],"b":1}'
    assert payload_checksum({"a": 1, "b": 2}) \
        == payload_checksum({"b": 2, "a": 1})


# -- state round-trip -------------------------------------------------------


class TestStateRoundTrip:
    def test_midstream_state_restores_bit_identically(self):
        first = PersistentCampaign(CONFIG)
        for _ in range(12):
            first.step()
        # Force the state through JSON: what a snapshot actually stores.
        payload = json.loads(canonical_json(
            {"config": first.config.as_dict(),
             "state": first.state_dict()}))
        second = PersistentCampaign(
            CampaignConfig.from_dict(payload["config"]))
        second.load_state_dict(payload["state"])
        result_a = first.run()
        result_b = second.run()
        assert _headline(result_a) == _headline(result_b)
        assert _metrics_digest(first) == _metrics_digest(second)

    def test_matches_unpersisted_campaign(self):
        from repro.cloudmgr import run_rack_experiment
        from repro.resilience import DegradationConfig, FaultPlan

        campaign = PersistentCampaign(CONFIG)
        persistent = campaign.run()
        classic = run_rack_experiment(
            n_nodes=CONFIG.n_nodes, duration_s=CONFIG.duration_s,
            seed=CONFIG.seed, step_s=CONFIG.step_s,
            base_rate_per_hour=CONFIG.base_rate_per_hour,
            degradation=DegradationConfig.on(),
            fault_plan=FaultPlan.from_dict(CONFIG.finalized().plan))
        cloud = classic.cloud
        assert _metrics_digest(campaign) == payload_checksum(
            classic.metrics_snapshot())
        expected = {
            "fleet_availability": cloud.fleet_availability(),
            "mttr_s": cloud.mttr_s(),
            "sla_violations": cloud.tracker.violations_total(),
            "evacuation_success_rate": cloud.migrations.success_rate(),
            "admitted": classic.stats.admitted,
            "rejected": classic.stats.rejected,
            "injections": dict(cloud.chaos.injections),
        }
        expected.update({name: getattr(cloud.stats, name) for name in (
            "node_crashes", "recoveries", "failovers", "breaker_trips",
            "flaps", "heartbeats_missed", "completed")})
        assert {name: getattr(persistent, name)
                for name in expected} == expected

    def test_rng_streams_survive_the_round_trip(self):
        campaign = PersistentCampaign(CONFIG)
        for _ in range(5):
            campaign.step()
        state = json.loads(canonical_json(campaign.state_dict()))
        twin = PersistentCampaign(CONFIG)
        twin.load_state_dict(state)
        for node_a, node_b in zip(campaign.cloud.node_list(),
                                  twin.cloud.node_list()):
            draws_a = node_a.runtime.rng("chaos.telemetry").random(4)
            draws_b = node_b.runtime.rng("chaos.telemetry").random(4)
            assert list(draws_a) == list(draws_b)

    def test_clock_restore_rejects_mismatched_queue(self):
        campaign = PersistentCampaign(CONFIG)
        state = campaign.clock.state_dict()
        state["pending"] = list(state["pending"]) + [99.0]
        with pytest.raises(PersistenceError):
            campaign.clock.load_state_dict(state)


@pytest.mark.parametrize("seed", range(4))
def test_state_does_not_grow_with_campaign_length(seed):
    """A 2 h campaign's state is well under twice its state at 1 h: no
    per-tick history (footprint rows, logfile lines) accumulates in it."""
    campaign = PersistentCampaign(CampaignConfig(
        n_nodes=4, duration_s=7200.0, seed=seed, rate_per_hour=6.0,
        base_rate_per_hour=12.0))
    sizes = []
    for until_s in (3600.0, 7200.0):
        while campaign.simulation.now < until_s:
            campaign.step()
        sizes.append(len(canonical_json(campaign.state_dict())))
    assert sizes[1] <= 1.6 * sizes[0]


# -- disk resume -------------------------------------------------------------


class TestDiskResume:
    def test_abandoned_run_resumes_to_identical_end_state(self, tmp_path):
        reference = PersistentCampaign(CONFIG)
        result_ref = reference.run()

        abandoned = PersistentCampaign(
            CONFIG, snapshot_dir=tmp_path, snapshot_every_s=300.0)
        for _ in range(17):  # dies between generations, mid-journal
            abandoned.step()
        del abandoned  # the "crash"

        resumed = PersistentCampaign.resume(
            tmp_path, snapshot_every_s=300.0,
            auditor=StateAuditor(strict=True))
        result = resumed.run()
        assert _headline(result) == _headline(result_ref)
        assert _metrics_digest(resumed) == _metrics_digest(reference)

    @given(seed=st.integers(min_value=0, max_value=2**16),
           policies=st.sampled_from(["on", "off"]),
           n_nodes=st.sampled_from([2, 3]),
           snapshot_every_s=st.sampled_from([120.0, 300.0]),
           abandon_step=st.integers(min_value=1, max_value=9))
    @settings(max_examples=10, deadline=None)
    def test_any_abandoned_run_resumes_to_the_unstored_end_state(
            self, seed, policies, n_nodes, snapshot_every_s, abandon_step):
        config = replace(CONFIG, n_nodes=n_nodes, duration_s=600.0,
                         seed=seed, policies=policies,
                         label=f"policies-{policies}")
        reference = PersistentCampaign(config)
        result_ref = reference.run()
        # tmp_path would be shared by every example: one dir each.
        with tempfile.TemporaryDirectory() as directory:
            abandoned = PersistentCampaign(
                config, snapshot_dir=directory,
                snapshot_every_s=snapshot_every_s)
            for _ in range(abandon_step):
                abandoned.step()
            del abandoned  # the "crash"
            resumed = PersistentCampaign.resume(
                directory, snapshot_every_s=snapshot_every_s,
                auditor=StateAuditor(strict=True))
            result = resumed.run()
        assert _headline(result) == _headline(result_ref)
        assert _metrics_digest(resumed) == _metrics_digest(reference)

    def test_dense_rack_resumes_from_each_generation(self, tmp_path):
        """Restore order is behaviour: a dense rack resumed from any
        generation ends where the uninterrupted run does.  A file with
        sorted keys would restore ``trace-vm10`` before ``trace-vm9``
        and diverge."""
        dense = CampaignConfig(n_nodes=2, duration_s=900.0, seed=0,
                               policies="on", rate_per_hour=2.0,
                               base_rate_per_hour=1200.0)
        full = tmp_path / "full"
        reference = PersistentCampaign(
            dense, snapshot_dir=full, snapshot_every_s=300.0, keep=10)
        digest = _run_digest(reference, reference.run())
        assert SnapshotStore(full, keep=10).generations() == [0, 5, 10, 15]
        for cut in (5, 10):
            directory = tmp_path / f"after-{cut}"
            shutil.copytree(full, directory)
            store = SnapshotStore(directory, keep=10)
            for step in store.generations():
                if step > cut:
                    store.snapshot_path(step).unlink()
                    store.journal_path(step).unlink(missing_ok=True)
            resumed = PersistentCampaign.resume(
                directory, snapshot_every_s=300.0, keep=10)
            assert _run_digest(resumed, resumed.run()) == digest

    def test_resumed_run_writes_the_uninterrupted_generations(
            self, tmp_path):
        """Resume is exact down to the bytes: every snapshot and journal
        generation written after a resume equals the uninterrupted
        run's."""
        full = tmp_path / "full"
        PersistentCampaign(CONFIG, snapshot_dir=full,
                           snapshot_every_s=300.0, keep=10).run()
        generations = SnapshotStore(full, keep=10).generations()
        assert generations == [0, 5, 10, 15, 20, 25, 30]
        resumed_dir = tmp_path / "resumed"
        shutil.copytree(full, resumed_dir)
        store = SnapshotStore(resumed_dir, keep=10)
        for step in (20, 25, 30):
            store.snapshot_path(step).unlink()
            store.journal_path(step).unlink(missing_ok=True)
        PersistentCampaign.resume(
            resumed_dir, snapshot_every_s=300.0, keep=10).run()
        assert store.generations() == generations
        for path in sorted(full.iterdir()):
            assert (resumed_dir / path.name).read_bytes() \
                == path.read_bytes(), path.name

    def test_generation_with_older_telemetry_keys_resumes(self, tmp_path):
        """Older versions also saved the controller's telemetry copy, the
        health and per-VM samples of each believed heartbeat, per-VM
        series, EWMA windows and an anomaly log in every node's ring,
        each hypervisor's footprint samples, a HealthLog logfile and the
        controller's placement log.  A generation still carrying them
        resumes to the uninterrupted end state."""
        reference = PersistentCampaign(CONFIG)
        digest = _run_digest(reference, reference.run())
        logfiles = [node.healthlog.logfile
                    for node in reference.cloud.node_list()]
        abandoned = PersistentCampaign(
            CONFIG, snapshot_dir=tmp_path, snapshot_every_s=300.0)
        for _ in range(12):  # generations 0, 5, 10 and two journalled steps
            abandoned.step()
        del abandoned
        store = SnapshotStore(tmp_path)
        generation = store.generations()[-1]
        payload = store.load_generation(generation)
        cloud = payload["state"]["cloud"]
        vm_sample = {"timestamp": 600.0, "vm_name": "trace-vm0",
                     "node": "node0", "cpu_utilization": 0.6,
                     "memory_mb": 812.5, "progress_rate": 0.001}
        window = {"values": [0.5, 0.6], "ewma": 0.52, "ewmvar": 0.0016}
        older_keys = {
            "vm_samples": {"trace-vm0": [vm_sample]},
            "vm_windows": [["trace-vm0", "cpu", window]],
            "node_windows": [["node0", "util", window]],
            "anomalies": ["t=600.0 node=node0 metric=power value=4000"],
        }
        older_lines = [f"t={t}.000 sample v=0.9000 temp=45.00 p=80.00"
                       for t in range(LOGFILE_LINES)]
        for name, node in cloud["nodes"].items():
            node["hypervisor"]["accountant"] = {
                "samples": [[600.0, 280.0, 600.0, 812.5]]}
            node["healthlog"]["logfile"] = older_lines
            node["local_telemetry"].update(older_keys)
            samples = node["local_telemetry"]["node_samples"][name]
            last = cloud["health"]["views"][name]["last"]
            if last is not None:
                last.update(sample=samples[-1], vm_samples=[vm_sample])
        cloud["placement_log"] = [
            {"vm_name": "trace-vm0", "node": "node0", "score": 0.5}]
        cloud["telemetry"] = {
            "node_samples": {name: node["local_telemetry"]["node_samples"][name]
                             for name, node in cloud["nodes"].items()},
            **older_keys}
        store.save(generation, payload)
        resumed = PersistentCampaign.resume(tmp_path, snapshot_every_s=300.0)
        assert resumed.step_index == 12
        assert _run_digest(resumed, resumed.run()) == digest
        assert [node.healthlog.logfile
                for node in resumed.cloud.node_list()] == logfiles

    def test_resume_replays_journal_to_the_crash_step(self, tmp_path):
        campaign = PersistentCampaign(
            CONFIG, snapshot_dir=tmp_path, snapshot_every_s=300.0)
        for _ in range(13):
            campaign.step()
        del campaign
        resumed = PersistentCampaign.resume(tmp_path)
        assert resumed.step_index == 13

    def test_resume_survives_corrupted_newest_snapshot(
            self, tmp_path, caplog):
        reference = PersistentCampaign(CONFIG).run()
        campaign = PersistentCampaign(
            CONFIG, snapshot_dir=tmp_path, snapshot_every_s=300.0)
        for _ in range(17):
            campaign.step()
        del campaign
        newest = sorted(tmp_path.glob("snapshot-*.json"))[-1]
        raw = bytearray(newest.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        newest.write_bytes(bytes(raw))
        with caplog.at_level("WARNING"):
            resumed = PersistentCampaign.resume(tmp_path)
        assert any("damaged" in r.message for r in caplog.records)
        result = resumed.run()
        assert _headline(result) == _headline(reference)

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(PersistenceError):
            PersistentCampaign.resume(tmp_path)

    def test_tampered_journal_digest_fails_replay(self, tmp_path):
        campaign = PersistentCampaign(
            CONFIG, snapshot_dir=tmp_path, snapshot_every_s=300.0)
        for _ in range(7):
            campaign.step()
        del campaign
        journal_path = sorted(tmp_path.glob("journal-*.jsonl"))[-1]
        lines = journal_path.read_text().splitlines()
        doctored = []
        for line in lines:
            if '"type":"commit"' in line:
                _, _, body = line.partition(" ")
                record = json.loads(body)
                record["digest"] = "0" * 64
                rewritten = canonical_json(record)
                checksum = hashlib.sha256(
                    rewritten.encode()).hexdigest()[:16]
                doctored.append(f"{checksum} {rewritten}")
            else:
                doctored.append(line)
        journal_path.write_text("\n".join(doctored) + "\n")
        with pytest.raises(PersistenceError, match="diverged"):
            PersistentCampaign.resume(tmp_path)


# -- auditor ------------------------------------------------------------------


class TestStateAuditor:
    def test_chaotic_campaign_stays_invariant_clean(self):
        auditor = StateAuditor(strict=True)
        campaign = PersistentCampaign(CONFIG, auditor=auditor)
        # Audit every few steps, not just at snapshots.
        while not campaign.finished:
            campaign.step()
            if campaign.step_index % 5 == 0:
                auditor.audit(campaign.cloud,
                              context=f"step {campaign.step_index}")
        campaign.run()
        assert auditor.violation_count == 0
        assert auditor.metrics.counter(
            "persistence.auditor.passes") > 0

    def test_strict_mode_raises_on_forged_double_residency(self):
        # Calm weather, busy trace: the forge needs a resident VM.
        campaign = PersistentCampaign(CampaignConfig(
            n_nodes=3, duration_s=1800.0, seed=1, rate_per_hour=2.0,
            intensity=0.2, base_rate_per_hour=120.0, step_s=60.0))
        donor = None
        while donor is None and not campaign.finished:
            campaign.step()
            nodes = campaign.cloud.node_list()
            donor = next((n for n in nodes if n.hypervisor.vms), None)
        assert donor is not None, "campaign never admitted a VM"
        vm = donor.hypervisor.vms[0]
        other = next(n for n in nodes if n.name != donor.name)
        # Forge the corruption the auditor exists to catch.
        other.hypervisor._vms[vm.name] = vm
        with pytest.raises(InvariantViolation, match="resident on both"):
            StateAuditor(strict=True).audit(campaign.cloud)

    def test_tolerant_mode_counts_instead_of_raising(self):
        campaign = PersistentCampaign(CONFIG)
        for _ in range(10):
            campaign.step()
        campaign.cloud._vm_homes["ghost-vm"] = "node0"
        campaign.cloud.stats.energy_j = -1.0
        auditor = StateAuditor(strict=False)
        auditor.audit(campaign.cloud)
        campaign.cloud.stats.energy_j = -2.0
        problems = auditor.audit(campaign.cloud)
        assert problems  # energy decreased between the two audits
        assert auditor.violation_count >= 1
        assert auditor.metrics.counter(
            "persistence.auditor.violations") == auditor.violation_count

    def test_clock_regression_is_flagged(self):
        campaign = PersistentCampaign(CONFIG)
        auditor = StateAuditor(strict=False)
        campaign.step()
        auditor.audit(campaign.cloud)
        campaign.clock._now -= 100.0
        problems = auditor.audit(campaign.cloud)
        assert any("backwards" in p for p in problems)


# -- predictor persistence -------------------------------------------------


def _labelled(reliability, labels):
    full = {"15m": None, "1h": None, "4h": None}
    full.update(labels)
    return {
        "node": "a", "timestamp": 0.0,
        "features": [0.0, reliability, 0.5, 0.5, 0.0],
        "labels": full, "lead_s": None, "domains": {},
    }


def _trained_predictor():
    observations = []
    for _ in range(15):
        observations.append(_labelled(
            0.25, {"15m": True, "1h": True, "4h": None}))
        observations.append(_labelled(
            1.0, {"15m": False, "1h": False, "4h": None}))
    from repro.cloudmgr import train_from_observations
    return train_from_observations(observations, threshold=0.35)


class TestPredictorPersistence:
    def test_logistic_model_round_trip(self):
        import numpy as np
        from repro.daemons.predictor import LogisticModel

        rng = np.random.default_rng(7)
        features = rng.random((40, 5))
        labels = (features[:, 1] < 0.5).astype(int)
        model = LogisticModel(epochs=50).fit(features, labels)
        clone = LogisticModel()
        clone.load_state_dict(model.state_dict())
        assert canonical_json(clone.state_dict()) == \
            canonical_json(model.state_dict())
        probe = rng.random((6, 5))
        assert (clone.predict_proba(probe)
                == model.predict_proba(probe)).all()

    def test_threshold_predictor_round_trip(self):
        from repro.cloudmgr import (
            ThresholdFailurePredictor,
            predictor_from_state,
            predictor_state,
        )

        predictor = ThresholdFailurePredictor(threshold=0.4)
        restored = predictor_from_state(predictor_state(predictor))
        assert isinstance(restored, ThresholdFailurePredictor)
        assert restored.threshold == 0.4
        assert canonical_json(restored.state_dict()) == \
            canonical_json(predictor.state_dict())

    def test_multi_horizon_round_trip_keeps_censored_labels(self):
        """Censored (-1) training labels must survive persistence."""
        from repro.cloudmgr import predictor_from_state, predictor_state

        predictor = _trained_predictor()
        state = predictor_state(predictor)
        assert -1 in state["state"]["labels"]["4h"]
        restored = predictor_from_state(state)
        assert canonical_json(restored.state_dict()) == \
            canonical_json(predictor.state_dict())
        # Retraining the restored copy reproduces the same fit: the
        # censored rows are still masked out, not mistaken for labels.
        restored.train()
        assert canonical_json(restored.state_dict()) == \
            canonical_json(predictor.state_dict())

    def test_trained_model_survives_campaign_crash_resume(self, tmp_path):
        """SIGKILL mid-campaign, resume: the trained model and the risk
        reports it produces are byte-identical to the uninterrupted run."""
        import numpy as np
        from repro.cloudmgr import predictor_state

        def _install(campaign):
            for node in campaign.cloud.node_list():
                node.risk_predictor = _trained_predictor()

        reference = PersistentCampaign(CONFIG)
        _install(reference)
        reference.run()

        abandoned = PersistentCampaign(
            CONFIG, snapshot_dir=tmp_path, snapshot_every_s=300.0)
        _install(abandoned)
        for _ in range(17):
            abandoned.step()
        del abandoned  # the "crash"

        resumed = PersistentCampaign.resume(
            tmp_path, snapshot_every_s=300.0)
        resumed.run()

        probe = np.array([0.0, 0.25, 0.5, 0.5, 0.0])
        for name, node in sorted(resumed.cloud.nodes.items()):
            twin = reference.cloud.nodes[name]
            assert canonical_json(predictor_state(node.risk_predictor)) \
                == canonical_json(predictor_state(twin.risk_predictor))
            assert canonical_json(
                node.risk_predictor.probabilities(probe)) == \
                canonical_json(twin.risk_predictor.probabilities(probe))
        assert _metrics_digest(resumed) == _metrics_digest(reference)
