"""Tests for the cloud controller and failure prediction."""

import pytest

from repro.cloudmgr import (
    HORIZONS,
    CloudController,
    ComputeNode,
    HorizonRisk,
    HorizonRiskReport,
    ThresholdFailurePredictor,
    node_features,
)
from repro.cloudmgr.sla import BRONZE, SILVER
from repro.cloudmgr.telemetry import TelemetryService
from repro.core.clock import SimClock
from repro.core.exceptions import ConfigurationError
from repro.hypervisor.vm import VirtualMachine
from repro.workloads import spec_workload


def make_cloud(n_nodes=3, proactive=True):
    clock = SimClock()
    nodes = [ComputeNode(f"node{i}", clock, seed=i) for i in range(n_nodes)]
    return CloudController(clock, nodes, proactive_migration=proactive)


def make_vm(name, cycles=1e11):
    return VirtualMachine(name=name,
                          workload=spec_workload("hmmer",
                                                 duration_cycles=cycles))


class TestControllerBasics:
    def test_launch_places_and_tracks(self):
        cloud = make_cloud()
        placement = cloud.launch(make_vm("vm0"), SILVER)
        assert placement.node in cloud.nodes
        assert "vm0" in cloud.tracker.tracked_vms()
        assert cloud.locate("vm0").name == placement.node

    def test_vms_complete_and_are_reaped(self):
        cloud = make_cloud()
        cloud.launch(make_vm("vm0", cycles=5e9), BRONZE)
        cloud.run(10.0)
        assert cloud.stats.completed == 1
        with pytest.raises(KeyError):
            cloud.locate("vm0")

    def test_fleet_availability_high_on_healthy_rack(self):
        cloud = make_cloud()
        for i in range(4):
            cloud.launch(make_vm(f"vm{i}", cycles=1e11), SILVER)
        cloud.run(30.0)
        assert cloud.fleet_availability() > 0.99

    def test_energy_accumulates(self):
        cloud = make_cloud()
        cloud.launch(make_vm("vm0"), SILVER)
        cloud.run(10.0)
        assert cloud.stats.energy_j > 0

    def test_duplicate_node_names_rejected(self):
        clock = SimClock()
        nodes = [ComputeNode("same", clock), ComputeNode("same", clock)]
        with pytest.raises(ConfigurationError):
            CloudController(clock, nodes)

    def test_describe_mentions_nodes(self):
        cloud = make_cloud(n_nodes=2)
        text = cloud.describe()
        assert "node0" in text and "node1" in text


class TestCrashRecovery:
    def test_crashed_node_recovers_after_delay(self):
        cloud = make_cloud(n_nodes=2)
        cloud.node_recovery_s = 5.0
        node = cloud.nodes["node0"]
        node.hypervisor._crashed = True
        cloud.run(10.0)
        assert cloud.stats.node_crashes == 1
        assert not node.hypervisor.crashed


class TestThresholdPredictor:
    def test_healthy_node_is_low_risk(self):
        clock = SimClock()
        node = ComputeNode("n0", clock)
        report = ThresholdFailurePredictor().report(
            node, TelemetryService())
        assert report.nearest_at_risk() is None
        assert all(not h.contributors for h in report.horizons)

    def test_aggressive_margins_raise_risk(self):
        clock = SimClock()
        node = ComputeNode("n0", clock)
        nominal = node.platform.chip.spec.nominal
        node.platform.set_all_core_points(
            nominal.with_voltage(nominal.voltage_v * 0.7))
        near = ThresholdFailurePredictor().report(
            node, TelemetryService()).horizon("15m")
        assert near.probability > 0.2
        assert "voltage_margin_used" in near.contributors

    def test_feature_vector_shape(self):
        clock = SimClock()
        node = ComputeNode("n0", clock)
        features = node_features(node, TelemetryService())
        assert features.shape == (5,)

    def test_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            ThresholdFailurePredictor(threshold=0.0)


class TestProactiveMigration:
    def test_at_risk_node_is_evacuated(self):
        cloud = make_cloud(n_nodes=3, proactive=True)
        cloud.launch(make_vm("vm0", cycles=1e12), SILVER)
        home = cloud.locate("vm0")
        # Make the home node look doomed: deep undervolt on every core.
        nominal = home.platform.chip.spec.nominal
        home.platform.set_all_core_points(
            nominal.with_voltage(nominal.voltage_v * 0.70))
        # Within a few control steps the risk crosses the threshold
        # (margin aggression plus the crashes the node starts logging).
        cloud.run(5.0)
        assert cloud.stats.evacuations >= 1
        assert cloud.locate("vm0").name != home.name

    def test_evacuation_avoids_other_at_risk_nodes(self):
        """Regression: evacuation must not dump VMs onto a peer that is
        itself reporting risk when a healthy node exists."""
        cloud = make_cloud(n_nodes=3, proactive=True)
        cloud.launch(make_vm("vm0", cycles=1e12), SILVER)
        home = cloud.locate("vm0")
        doomed_peer = next(
            n for n in cloud.node_list() if n.name != home.name)
        for node in (home, doomed_peer):
            nominal = node.platform.chip.spec.nominal
            node.platform.set_all_core_points(
                nominal.with_voltage(nominal.voltage_v * 0.70))
        cloud.run(5.0)
        assert cloud.stats.evacuations >= 1
        landed = cloud.locate("vm0")
        assert landed.name not in (home.name, doomed_peer.name)

    def test_nearest_horizon_node_is_drained_first(self, monkeypatch):
        """The node at risk soonest is evacuated first, even when its
        name sorts after the other at-risk node's."""
        flagged = {"node3": "15m", "node2": "4h"}

        class FixedReports:
            def report(self, node, telemetry):
                at = flagged.get(node.name)
                return HorizonRiskReport(node=node.name, horizons=tuple(
                    HorizonRisk(horizon=name, horizon_s=horizon_s,
                                probability=0.9 if name == at else 0.1,
                                confidence=0.5, at_risk=name == at)
                    for name, horizon_s in HORIZONS))

        clock = SimClock()
        nodes = [ComputeNode(f"node{i}", clock, seed=i) for i in range(4)]
        cloud = CloudController(clock, nodes, predictor=FixedReports())
        calls = []
        monkeypatch.setattr(cloud, "_attempt_evacuation", calls.append)
        # One launch per control step: identical idle nodes tie, so the
        # first VM lands on node3 and the second on node2.
        for i in range(2):
            calls.clear()
            cloud.launch(make_vm(f"vm{i}", cycles=1e12), SILVER)
            cloud.run(1.0)
        assert [cloud.locate(f"vm{i}").name for i in range(2)] == \
            ["node3", "node2"]
        assert calls == ["node3", "node2"]

    def test_reactive_mode_leaves_vms_in_place(self):
        cloud = make_cloud(n_nodes=3, proactive=False)
        cloud.launch(make_vm("vm0", cycles=1e12), SILVER)
        home = cloud.locate("vm0")
        nominal = home.platform.chip.spec.nominal
        home.platform.set_all_core_points(
            nominal.with_voltage(nominal.voltage_v * 0.70))
        cloud.run(5.0)
        assert cloud.stats.evacuations == 0


class TestDegradationMachinery:
    def test_no_healthy_evacuation_target_leaves_vm_in_place(self):
        cloud = make_cloud(n_nodes=3, proactive=True)
        cloud.launch(make_vm("vm0", cycles=1e12), SILVER)
        home = cloud.locate("vm0")
        # Every other node crashes: after the suspicion ladder runs out
        # there is nowhere to evacuate to.
        for node in cloud.node_list():
            if node.name != home.name:
                node.hypervisor._crashed = True
        nominal = home.platform.chip.spec.nominal
        home.platform.set_all_core_points(
            nominal.with_voltage(nominal.voltage_v * 0.70))
        cloud.run(6.0)
        assert cloud.stats.evacuations == 0
        assert cloud.locate("vm0").name == home.name
        # The dead peers were noticed through their missed heartbeats.
        assert cloud.stats.node_crashes == 2

    def test_recovery_then_recrash_counts_a_flap(self):
        cloud = make_cloud(n_nodes=2)
        cloud.node_recovery_s = 5.0
        node = cloud.nodes["node0"]
        node.hypervisor._crashed = True
        cloud.run(8.0)
        assert cloud.stats.recoveries == 1
        assert not node.hypervisor.crashed
        assert cloud.stats.flaps == 0
        # Re-crash inside the flap window: the breaker hears about it.
        node.hypervisor._crashed = True
        cloud.run(8.0)
        assert cloud.stats.node_crashes == 2
        assert cloud.stats.flaps == 1
        breaker = cloud._breakers["node0"]
        assert breaker.consecutive_failures >= 1

    def test_completed_vm_bookkeeping_is_reaped(self):
        cloud = make_cloud()
        cloud.launch(make_vm("vm0", cycles=5e9), BRONZE)
        cloud.run(10.0)
        assert cloud.stats.completed == 1
        # forget_vm cleared every per-VM map (the _seen_restarts leak).
        assert "vm0" not in cloud._seen_restarts
        assert "vm0" not in cloud._vm_homes
        assert "vm0" not in cloud._vm_down_since

    def test_forget_vm_clears_restart_accounting(self):
        cloud = make_cloud()
        cloud._seen_restarts["ghost"] = 4
        cloud._vm_homes["ghost"] = "node0"
        cloud._vm_down_since["ghost"] = 1.0
        cloud.forget_vm("ghost")
        assert "ghost" not in cloud._seen_restarts
        assert "ghost" not in cloud._vm_homes
        assert "ghost" not in cloud._vm_down_since

    def test_mttr_covers_open_episodes(self):
        cloud = make_cloud(n_nodes=2)
        assert cloud.mttr_s() is None
        cloud.launch(make_vm("vm0", cycles=1e12), SILVER)
        home = cloud.locate("vm0")
        home.hypervisor._crashed = True
        cloud.run(10.0)
        # The outage is still open, yet MTTR already reflects it.
        assert cloud.mttr_s() is not None
        assert cloud.mttr_s() > 0
