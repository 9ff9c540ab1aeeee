"""Tests for the HealthLog daemon and info vectors."""

import hashlib

import pytest

from repro.cloudmgr.node import build_rack
from repro.core.clock import SimClock
from repro.core.events import (
    AnomalyEvent,
    CorrectableErrorEvent,
    CrashEvent,
    EventBus,
    SensorEvent,
)
from repro.core.exceptions import ConfigurationError
from repro.daemons.healthlog import LOGFILE_LINES, HealthLog, HealthLogConfig
from repro.hardware import build_uniserver_node
from repro.hypervisor.vm import VirtualMachine
from repro.persistence import CampaignConfig, PersistentCampaign, canonical_json
from repro.workloads import spec_workload


@pytest.fixture
def setup():
    clock = SimClock()
    bus = EventBus()
    platform = build_uniserver_node()
    hl = HealthLog(platform, bus, clock,
                   HealthLogConfig(error_threshold=3, error_window_s=100.0))
    return clock, bus, platform, hl


def push_error(bus, clock, component="core0", n=1):
    for _ in range(n):
        bus.publish(CorrectableErrorEvent(
            timestamp=clock.now, source="hw", component=component,
            detail="test"))


class TestEventDriven:
    def test_errors_land_in_ledger_and_logfile(self, setup):
        clock, bus, platform, hl = setup
        push_error(bus, clock, n=2)
        assert len(hl.ledger) == 2
        assert any("correctable" in line for line in hl.logfile)

    def test_crash_events_recorded(self, setup):
        clock, bus, platform, hl = setup
        bus.publish(CrashEvent(timestamp=0.0, source="hw",
                               component="core3",
                               operating_point="0.8 V"))
        snapshot = hl.snapshot()
        assert snapshot.crashes == 1

    def test_threshold_raises_anomaly_once(self, setup):
        clock, bus, platform, hl = setup
        anomalies = []
        bus.subscribe(AnomalyEvent, anomalies.append)
        push_error(bus, clock, n=5)
        assert len(anomalies) == 1
        assert anomalies[0].severity == "critical"
        assert "core0" in anomalies[0].description

    def test_flag_rearm_allows_second_anomaly(self, setup):
        clock, bus, platform, hl = setup
        anomalies = []
        bus.subscribe(AnomalyEvent, anomalies.append)
        push_error(bus, clock, n=3)
        hl.clear_flag("core0")
        push_error(bus, clock, n=3)
        assert len(anomalies) == 2

    def test_sensor_events_update_cache(self, setup):
        clock, bus, platform, hl = setup
        bus.publish(SensorEvent(timestamp=0.0, source="hw",
                                sensor="temperature_c", value=61.5))
        assert hl.snapshot().sensors["temperature_c"] == 61.5


class TestPeriodicSampling:
    def test_sampling_runs_on_clock(self, setup):
        clock, bus, platform, hl = setup
        hl.start()
        clock.advance_by(5.0)
        assert any("sample" in line for line in hl.logfile)
        assert "voltage_v" in hl.snapshot().sensors

    def test_start_is_idempotent(self, setup):
        clock, bus, platform, hl = setup
        hl.start()
        hl.start()
        clock.advance_by(3.0)
        samples = [l for l in hl.logfile if "sample" in l]
        assert len(samples) == 3  # one per second, not doubled


class TestSamplingBits:
    """What the sampler writes, pinned bit for bit."""

    #: sha256 of the sampler's end state in a 3-node, 30-minute chaos
    #: campaign (seed 0): every HealthLog's state, every sensor RNG and
    #: every node's metrics registry.
    GOLDEN = ("2cce58718718d326bf00c3e21e8fc359"
              "b87dc181bd0e6d7a78a81fb4788651a1")

    def test_campaign_sampler_state_is_pinned(self):
        campaign = PersistentCampaign(CampaignConfig(
            n_nodes=3, duration_s=1800.0, seed=0, policies="on"))
        campaign.run()
        payload = {
            "nodes": {
                node.name: {
                    "healthlog": node.healthlog.state_dict(),
                    "sensors": node.platform.chip.sensors.state_dict(),
                }
                for node in campaign.cloud.node_list()},
            "metrics": campaign.cloud.metrics_snapshot(),
        }
        digest = hashlib.sha256(canonical_json(payload).encode()).hexdigest()
        assert digest == self.GOLDEN

    @staticmethod
    def _rack():
        nodes = build_rack(3, seed=0)
        for i, node in enumerate(nodes):
            node.hypervisor.create_vm(VirtualMachine(
                name=f"vm{i}", workload=spec_workload("mcf"), vcpus=2))
        return nodes

    def test_one_long_advance_equals_many_short_ones(self):
        jump, chunked = self._rack(), self._rack()
        for _ in range(3):
            for node in jump + chunked:
                node.step(60.0)
            jump[0].clock.advance_by(60.0)
            for _ in range(60):
                chunked[0].clock.advance_by(1.0)
        assert chunked[0].clock.now == jump[0].clock.now == 180.0
        for a, b in zip(jump, chunked):
            assert (canonical_json(a.state_dict())
                    == canonical_json(b.state_dict()))
            assert a.healthlog.logfile[-1].startswith("t=180.000 sample")


class TestSnapshots:
    def test_snapshot_counts_are_deltas(self, setup):
        clock, bus, platform, hl = setup
        push_error(bus, clock, n=2)
        first = hl.snapshot()
        assert first.correctable_errors == 2
        second = hl.snapshot()
        assert second.correctable_errors == 0
        push_error(bus, clock, n=1)
        assert hl.snapshot().correctable_errors == 1

    def test_snapshot_has_full_configuration(self, setup):
        clock, bus, platform, hl = setup
        snapshot = hl.snapshot()
        assert "core0" in snapshot.configuration
        assert "channel0" in snapshot.configuration

    def test_suspects_listed(self, setup):
        clock, bus, platform, hl = setup
        push_error(bus, clock, component="core5", n=4)
        assert "core5" in hl.snapshot().suspect_components


class TestConfig:
    def test_bad_config_rejected(self):
        with pytest.raises(ConfigurationError):
            HealthLogConfig(sampling_period_s=0)
        with pytest.raises(ConfigurationError):
            HealthLogConfig(error_threshold=0)

    def test_logfile_is_bounded(self, setup):
        clock, bus, platform, hl = setup
        for i in range(LOGFILE_LINES + 10):
            bus.publish(CorrectableErrorEvent(
                timestamp=clock.now, source="test", component="core0",
                detail=f"line {i}"))
        log = hl.logfile
        assert len(log) == LOGFILE_LINES
        assert log[0].endswith(" line 10")
        assert log[-1].endswith(f" line {LOGFILE_LINES + 9}")

    def test_loaded_logfile_keeps_the_newest_lines(self, setup):
        clock, bus, platform, hl = setup
        lines = [f"t={i}.000 sample" for i in range(2 * LOGFILE_LINES)]
        state = hl.state_dict()
        state["logfile"] = lines
        hl.load_state_dict(state)
        assert hl.logfile == lines[LOGFILE_LINES:]
        assert hl.state_dict()["logfile"] == lines[LOGFILE_LINES:]
