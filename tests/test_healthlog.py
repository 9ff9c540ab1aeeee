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
        assert hl.metrics.counter("daemons.healthlog.samples") == 5
        assert hl.metrics.histogram("daemons.healthlog.power_w").count == 5
        assert "voltage_v" in hl.snapshot().sensors

    def test_start_is_idempotent(self, setup):
        clock, bus, platform, hl = setup
        hl.start()
        hl.start()
        clock.advance_by(3.0)
        # One sample per second, not doubled.
        assert hl.metrics.counter("daemons.healthlog.samples") == 3
        assert hl.metrics.histogram("daemons.healthlog.power_w").count == 3


class TestSamplingBits:
    """What the sampler writes, pinned bit for bit."""

    #: sha256 of the sampler's end state in a 3-node, 30-minute chaos
    #: campaign (seed 0): every HealthLog's state (bar a logfile copy,
    #: which older states kept), every sensor RNG and every node's
    #: metrics registry.
    GOLDEN = ("7854b9f0f694f5fc2ef2a79089b2c132"
              "4ed59982e9b7a813b3be5297103232d0")

    def test_campaign_sampler_state_is_pinned(self):
        campaign = PersistentCampaign(CampaignConfig(
            n_nodes=3, duration_s=1800.0, seed=0, policies="on"))
        campaign.run()
        payload = {
            "nodes": {
                node.name: {
                    "healthlog": {
                        key: value for key, value
                        in node.healthlog.state_dict().items()
                        if key != "logfile"},
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
            assert a.healthlog.info_vector_age_s() == 0.0
            assert a.healthlog.metrics.counter("daemons.healthlog.samples") == 180


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
        """An older state's logfile copy loads; the view still renders
        the ledger."""
        clock, bus, platform, hl = setup
        push_error(bus, clock, n=2)
        expected = hl.logfile
        state = hl.state_dict()
        state["logfile"] = [f"t={i}.000 sample"
                            for i in range(2 * LOGFILE_LINES)]
        hl.load_state_dict(state)
        assert hl.logfile == expected
        assert "logfile" not in hl.state_dict()

    def test_logfile_renders_the_newest_ledger_events(self, setup):
        clock, bus, platform, hl = setup
        hl.start()
        for i in range(LOGFILE_LINES + 10):
            clock.advance_by(0.5)
            push_error(bus, clock, component=f"core{i % 4}")
        bus.publish(CrashEvent(timestamp=clock.now, source="hw",
                               component="core3", operating_point="0.8 V"))
        rendered = [f"t={r.timestamp:.3f} {r.fault_class.value} "
                    f"{r.component} {r.detail}"
                    for r in hl.ledger.records[-LOGFILE_LINES:]]
        assert hl.logfile == rendered
        assert rendered[-1] == f"t={clock.now:.3f} crash core3 "
        clock.advance_by(10.0)
        assert hl.logfile == rendered
