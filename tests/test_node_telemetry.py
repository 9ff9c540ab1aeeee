"""Tests for compute nodes and the telemetry service."""

import pytest

from repro.cloudmgr.node import ComputeNode
from repro.cloudmgr.telemetry import NodeSample, TelemetryService
from repro.core.clock import SimClock
from repro.core.exceptions import ConfigurationError
from repro.hardware.faults import (
    FaultClass,
    FaultOrigin,
    FaultRecord,
)
from repro.hypervisor.hypervisor import HypervisorConfig
from repro.hypervisor.vm import VirtualMachine
from repro.workloads import spec_workload


@pytest.fixture
def node():
    return ComputeNode("n0", SimClock(), seed=4)


class TestComputeNode:
    def test_capacity_accounting(self, node):
        total = node.total_vcpus
        vm = VirtualMachine(name="vm0", workload=spec_workload("mcf"),
                            vcpus=2)
        assert node.can_host(vm)
        node.hypervisor.create_vm(vm)
        assert node.used_vcpus() == 2
        assert node.free_vcpus() == total - 2

    @pytest.mark.parametrize("dt_s, ticks", [(0.3, 3), (0.7, 7)])
    def test_step_runs_every_tick_that_fits(self, dt_s, ticks):
        # 0.3 / 0.1 and 0.7 / 0.1 land one ulp below 3 and 7.
        node = ComputeNode("n0", SimClock(), seed=4,
                           hypervisor_config=HypervisorConfig(tick_s=0.1))
        node.step(dt_s)
        assert node.runtime.metrics.counter("hypervisor.ticks") == ticks

    def test_memory_accounting(self, node):
        before = node.free_memory_mb()
        vm = VirtualMachine(name="vm0", workload=spec_workload("mcf"))
        node.hypervisor.create_vm(vm)
        assert node.free_memory_mb() < before

    def test_reliability_penalised_by_faults(self, node):
        clean = node.reliability()
        node.platform.faults.record(FaultRecord(
            timestamp=node.clock.now, fault_class=FaultClass.CRASH,
            origin=FaultOrigin.CPU_CORE, component="core0"))
        assert node.reliability() < clean

    def test_correctable_errors_dent_less_than_crashes(self, node):
        ce_node = ComputeNode("a", SimClock(), seed=1)
        crash_node = ComputeNode("b", SimClock(), seed=1)
        ce_node.platform.faults.record(FaultRecord(
            timestamp=0.0, fault_class=FaultClass.CORRECTABLE,
            origin=FaultOrigin.CACHE, component="core0"))
        crash_node.platform.faults.record(FaultRecord(
            timestamp=0.0, fault_class=FaultClass.CRASH,
            origin=FaultOrigin.CPU_CORE, component="core0"))
        assert ce_node.reliability() > crash_node.reliability()

    def test_step_accrues_uptime(self, node):
        node.step(10.0)
        assert node.availability() == 1.0

    def test_metrics_snapshot(self, node):
        metrics = node.metrics()
        assert metrics.node == "n0"
        assert metrics.reliability == 1.0
        assert metrics.power_w > 0
        assert "avail" in metrics.describe()

    def test_frequency_fraction_tracks_points(self, node):
        assert node.frequency_fraction() == pytest.approx(1.0)
        nominal = node.platform.chip.spec.nominal
        node.platform.set_all_core_points(
            nominal.with_frequency(nominal.frequency_hz / 2))
        assert node.frequency_fraction() == pytest.approx(0.5)


class TestTelemetryService:
    def test_records_and_queries(self):
        svc = TelemetryService()
        svc.record_node(NodeSample(
            timestamp=0.0, node="n0", utilization=0.5, power_w=40.0,
            reliability=1.0, correctable_errors=0))
        assert len(svc.node_history("n0")) == 1

    def test_recent_error_rate(self):
        svc = TelemetryService()
        for i, ce in enumerate((0, 2, 4)):
            svc.record_node(NodeSample(
                timestamp=float(i), node="n0", utilization=0.5,
                power_w=40.0, reliability=1.0, correctable_errors=ce))
        assert svc.recent_error_rate("n0") == pytest.approx(2.0)

    def test_empty_history(self):
        svc = TelemetryService()
        assert svc.node_history("ghost") == []
        assert svc.recent_error_rate("ghost") == 0.0


def _node_sample(i, node="n0", ce=0):
    return NodeSample(timestamp=float(i), node=node, utilization=0.5,
                      power_w=40.0, reliability=1.0,
                      correctable_errors=ce)


class TestTelemetryRetention:
    def test_node_series_bounded_at_retention(self):
        svc = TelemetryService(retention=20)
        assert svc.retention == 20
        for i in range(100):
            svc.record_node(_node_sample(i))
        history = svc.node_history("n0")
        assert len(history) == 20
        # Newest samples win.
        assert history[0].timestamp == 80.0
        assert history[-1].timestamp == 99.0

    def test_retention_validation(self):
        with pytest.raises(ConfigurationError):
            TelemetryService(retention=0)

    def test_recent_error_rate_sees_newest_samples(self):
        svc = TelemetryService(retention=10)
        for i in range(100):
            svc.record_node(_node_sample(i, ce=0))
        for i in range(100, 110):
            svc.record_node(_node_sample(i, ce=3))
        assert svc.recent_error_rate("n0") == pytest.approx(3.0)

    def test_state_dict_size_independent_of_duration(self):
        short = TelemetryService(retention=10)
        long = TelemetryService(retention=10)
        for i in range(50):
            short.record_node(_node_sample(i))
        for i in range(500):  # 10x the samples, same retention
            long.record_node(_node_sample(i))
        assert (len(long.state_dict()["node_samples"]["n0"])
                == len(short.state_dict()["node_samples"]["n0"]))

    def test_load_state_dict_caps_oversized_series(self):
        uncapped = TelemetryService(retention=200)
        for i in range(150):
            uncapped.record_node(_node_sample(i))
        capped = TelemetryService(retention=10)
        capped.load_state_dict(uncapped.state_dict())
        history = capped.node_history("n0")
        assert len(history) == 10
        assert history[-1].timestamp == 149.0  # newest kept

    def test_round_trip_preserves_queries(self):
        svc = TelemetryService(retention=10)
        for i in range(30):
            svc.record_node(_node_sample(i, ce=i % 3))
        restored = TelemetryService(retention=10)
        restored.load_state_dict(svc.state_dict())
        assert restored.node_history("n0") == svc.node_history("n0")
        assert (restored.recent_error_rate("n0")
                == svc.recent_error_rate("n0"))

    def test_compute_node_telemetry_bounded_over_long_runs(self):
        """Regression: node-local telemetry must not grow with uptime."""
        clock = SimClock()
        node = ComputeNode("n0", clock, seed=1)
        cap = node.local_telemetry.retention
        for _ in range(cap * 3):
            node.heartbeat()
            clock.advance_by(60.0)
        assert len(node.local_telemetry.node_history("n0")) == cap
