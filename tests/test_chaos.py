"""Tests for the chaos engine and the heartbeat health view."""

from dataclasses import replace

import pytest

from repro.cloudmgr import ComputeNode
from repro.core.clock import SimClock
from repro.core.exceptions import ConfigurationError
from repro.resilience import (
    ChaosEngine,
    FaultKind,
    FaultPlan,
    FaultSpec,
    NodeHealthView,
    NodeStatus,
)


def make_node(name="node0", seed=0):
    return ComputeNode(name, SimClock(), seed=seed)


class TestFaultSpec:
    def test_windowed_kinds_need_a_duration(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(FaultKind.HEARTBEAT_LOSS, "node0", start_s=10.0)
        spec = FaultSpec(FaultKind.NODE_CRASH, "node0", start_s=10.0)
        assert not spec.active(9.0)
        assert spec.active(10.0) and spec.active(1e9)

    def test_window_bounds(self):
        spec = FaultSpec(FaultKind.TELEMETRY_DROPOUT, "node0",
                         start_s=10.0, duration_s=5.0, magnitude=0.5)
        assert not spec.active(9.9)
        assert spec.active(10.0) and spec.active(14.9)
        assert not spec.active(15.0)

    def test_magnitude_bounds(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(FaultKind.TELEMETRY_DROPOUT, "node0",
                      start_s=0.0, duration_s=1.0, magnitude=1.5)


class TestFaultPlan:
    def test_random_plan_is_seed_deterministic(self):
        nodes = ["node0", "node1", "node2", "node3"]
        first = FaultPlan.random(nodes, 3600.0, seed=5)
        second = FaultPlan.random(nodes, 3600.0, seed=5)
        other = FaultPlan.random(nodes, 3600.0, seed=6)
        assert first.specs == second.specs
        assert first.specs != other.specs
        assert len(first) > 0

    def test_for_node_filters(self):
        plan = FaultPlan.random(["a", "b"], 7200.0, seed=1,
                                rate_per_hour=6.0)
        for spec in plan.for_node("a"):
            assert spec.node == "a"
        assert len(plan.for_node("a")) + len(plan.for_node("b")) \
            == len(plan)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.random([], 100.0)
        with pytest.raises(ConfigurationError):
            FaultPlan.random(["a"], 0.0)
        with pytest.raises(ConfigurationError):
            FaultPlan.random(["a"], 100.0, intensity=0.0)


class TestChaosEngine:
    def test_daemon_faults_follow_their_windows(self):
        node = make_node()
        engine = ChaosEngine(FaultPlan([
            FaultSpec(FaultKind.HEALTHLOG_STALL, "node0", 10.0, 20.0),
            FaultSpec(FaultKind.PREDICTOR_CRASH, "node0", 10.0, 20.0),
            FaultSpec(FaultKind.STUCK_RECOVERY, "node0", 10.0, 20.0),
        ]))
        engine.apply([node], now=0.0)
        assert not node.healthlog.stalled and not node.predictor_down
        engine.apply([node], now=15.0)
        assert node.healthlog.stalled
        assert node.predictor_down
        assert node.recovery_stuck
        engine.apply([node], now=30.0)
        assert not node.healthlog.stalled and not node.predictor_down
        assert not node.recovery_stuck

    def test_node_crash_fires_exactly_once(self):
        node = make_node()
        engine = ChaosEngine(FaultPlan([
            FaultSpec(FaultKind.NODE_CRASH, "node0", 10.0),
        ]))
        engine.apply([node], now=10.0)
        assert node.hypervisor.crashed
        node.hypervisor.reboot()
        engine.apply([node], now=20.0)
        assert not node.hypervisor.crashed  # one-shot, no re-crash

    def test_crash_loop_recrashes_within_window(self):
        node = make_node()
        engine = ChaosEngine(FaultPlan([
            FaultSpec(FaultKind.CRASH_LOOP, "node0", 0.0, 100.0),
        ]))
        engine.apply([node], now=0.0)
        assert node.hypervisor.crashed
        node.hypervisor.reboot()
        engine.apply([node], now=50.0)
        assert node.hypervisor.crashed  # loops while the window lasts
        node.hypervisor.reboot()
        engine.apply([node], now=100.0)
        assert not node.hypervisor.crashed

    def test_heartbeat_loss_swallows_the_beat(self):
        node = make_node()
        engine = ChaosEngine(FaultPlan([
            FaultSpec(FaultKind.HEARTBEAT_LOSS, "node0", 0.0, 100.0),
        ]))
        beat = node.heartbeat()
        assert beat is not None
        assert engine.filter_heartbeat(node, beat, now=50.0) is None
        assert engine.filter_heartbeat(node, beat, now=150.0) is beat

    def test_dropout_strips_payload_but_keeps_liveness(self):
        node = make_node()
        engine = ChaosEngine(FaultPlan([
            FaultSpec(FaultKind.TELEMETRY_DROPOUT, "node0", 0.0, 100.0,
                      magnitude=1.0),
        ]))
        beat = node.heartbeat()
        assert beat.horizon_report is not None
        filtered = engine.filter_heartbeat(node, beat, now=50.0)
        assert filtered is not None  # liveness survives
        assert filtered == replace(beat, horizon_report=None)

    def test_corruption_perturbs_metrics_within_bounds(self):
        node = make_node()
        engine = ChaosEngine(FaultPlan([
            FaultSpec(FaultKind.TELEMETRY_CORRUPTION, "node0", 0.0,
                      100.0, magnitude=1.0),
        ]))
        beat = node.heartbeat()
        corrupted = engine.filter_heartbeat(node, beat, now=50.0)
        assert corrupted is not None
        assert 0.0 <= corrupted.metrics.utilization <= 1.0
        assert 0.0 <= corrupted.metrics.reliability <= 1.0
        assert corrupted.metrics.power_w >= 0.0
        # Capacity numbers are not corrupted (they gate placement).
        assert corrupted.metrics.free_vcpus == beat.metrics.free_vcpus

    def test_migration_failure_is_window_scoped(self):
        node = make_node()
        engine = ChaosEngine(FaultPlan([
            FaultSpec(FaultKind.MIGRATION_FAILURE, "node0", 0.0, 100.0,
                      magnitude=1.0),
        ]))
        assert engine.migration_should_fail(node, "node1", now=50.0)
        assert not engine.migration_should_fail(node, "node1", now=150.0)
        assert engine.injections[FaultKind.MIGRATION_FAILURE.value] == 1

    def test_injection_counts_accumulate(self):
        node = make_node()
        engine = ChaosEngine(FaultPlan([
            FaultSpec(FaultKind.HEARTBEAT_LOSS, "node0", 0.0, 100.0),
        ]))
        beat = node.heartbeat()
        engine.filter_heartbeat(node, beat, now=10.0)
        engine.filter_heartbeat(node, beat, now=20.0)
        assert engine.injections[FaultKind.HEARTBEAT_LOSS.value] == 2
        assert "heartbeat_loss=2" in engine.describe()


class TestNodeHealthView:
    def test_suspicion_ladder(self):
        health = NodeHealthView(suspect_after_missed=2,
                                down_after_missed=3)
        view = health.register("node0")
        assert view.state is NodeStatus.HEALTHY
        assert health.note_missed("node0") is NodeStatus.HEALTHY
        assert health.note_missed("node0") is NodeStatus.SUSPECT
        assert health.note_missed("node0") is NodeStatus.DOWN

    def test_heartbeat_resets_the_ladder(self):
        health = NodeHealthView()
        health.register("node0")
        node = make_node()
        for _ in range(5):
            health.note_missed("node0")
        assert health.view("node0").state is NodeStatus.DOWN
        previous = health.observe(node.heartbeat())
        assert previous is NodeStatus.DOWN
        assert health.view("node0").state is NodeStatus.HEALTHY
        assert health.view("node0").missed == 0

    def test_quarantine_is_sticky_until_release(self):
        health = NodeHealthView()
        health.register("node0")
        node = make_node()
        health.quarantine("node0")
        health.observe(node.heartbeat())  # a heartbeat is not parole
        assert health.view("node0").state is NodeStatus.QUARANTINED
        health.note_missed("node0")
        assert health.view("node0").state is NodeStatus.QUARANTINED
        health.release("node0")
        assert health.view("node0").state is NodeStatus.DOWN
        health.observe(node.heartbeat())
        assert health.view("node0").state is NodeStatus.HEALTHY

    def test_schedulable_requires_health_and_data(self):
        health = NodeHealthView()
        health.register("node0")
        health.register("node1")
        node = make_node()
        health.observe(node.heartbeat())
        names = [v.name for v in health.schedulable_views()]
        assert names == ["node0"]  # node1 never heartbeated

    def test_views_are_name_sorted(self):
        health = NodeHealthView()
        for name in ("b", "a", "c"):
            health.register(name)
        assert [v.name for v in health.views()] == ["a", "b", "c"]

    def test_duplicate_registration_rejected(self):
        health = NodeHealthView()
        health.register("node0")
        with pytest.raises(ConfigurationError):
            health.register("node0")

    def test_view_reservations_debit_capacity(self):
        health = NodeHealthView()
        health.register("node0")
        node = make_node()
        health.observe(node.heartbeat())
        view = health.view("node0")
        before = view.free_vcpus()
        view.reserve(2, 1024.0)
        assert view.free_vcpus() == before - 2
        # The next heartbeat clears optimistic reservations.
        health.observe(node.heartbeat())
        assert view.free_vcpus() == before

    def test_view_metrics_are_the_last_heartbeats(self):
        health = NodeHealthView()
        health.register("node0")
        heartbeat = make_node().heartbeat()
        health.observe(heartbeat)
        view = health.view("node0")
        view.reserve(2, 1024.0)
        assert view.metrics() is heartbeat.metrics
        assert view.free_vcpus() == heartbeat.metrics.free_vcpus - 2
        assert view.free_memory_mb() == \
            heartbeat.metrics.free_memory_mb - 1024.0


class TestNodeViewWindowedReliability:
    @staticmethod
    def _view_with_reports(reports):
        from dataclasses import replace

        health = NodeHealthView()
        health.register("node0")
        view = health.view("node0")
        template = make_node().heartbeat()
        for stamp, reliability in reports:
            view.observe(replace(
                template, timestamp=stamp,
                metrics=replace(template.metrics,
                                reliability=reliability)))
        return view

    def test_window_excludes_old_reports(self):
        view = self._view_with_reports(
            [(0.0, 0.5), (1000.0, 0.9), (2000.0, 0.95)])
        # Anchored at the newest report (t=2000): a 1500 s window
        # covers t >= 500 and must not see the 0.5 dip at t=0.
        assert view.reliability(window_s=1500.0) == 0.9
        assert view.reliability(window_s=50.0) == 0.95

    def test_window_returns_minimum_inside(self):
        view = self._view_with_reports(
            [(0.0, 0.5), (1000.0, 0.9), (2000.0, 0.95)])
        assert view.reliability(window_s=3600.0) == 0.5
        assert view.reliability() == 0.5  # default window is 3600 s

    def test_window_must_be_positive(self):
        view = self._view_with_reports([(0.0, 1.0)])
        with pytest.raises(ConfigurationError):
            view.reliability(window_s=0.0)

    def test_reports_survive_state_dict_round_trip(self):
        view = self._view_with_reports([(0.0, 0.4), (100.0, 0.9)])
        restored = NodeHealthView()
        restored.register("node0")
        restored.view("node0").load_state_dict(view.state_dict())
        assert restored.view("node0").reliability(window_s=200.0) == 0.4

    def test_old_snapshots_without_reports_still_load(self):
        view = self._view_with_reports([(0.0, 0.4)])
        state = view.state_dict()
        del state["reliability_reports"]
        restored = NodeHealthView()
        restored.register("node0")
        restored.view("node0").load_state_dict(state)
        # Without history the latest reported metric answers.
        assert restored.view("node0").reliability() == 0.4
