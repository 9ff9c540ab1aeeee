"""Tests for scheduling policies and live migration."""

import pytest

from repro.cloudmgr.cloud import CloudController
from repro.cloudmgr.migration import (
    MigrationCostModel,
    MigrationManager,
)
from repro.cloudmgr.node import ComputeNode
from repro.cloudmgr.scheduler import (
    FilterScheduler,
    RoundRobinScheduler,
    sla_performance_filter,
    sla_reliability_filter,
)
from repro.cloudmgr.sla import BRONZE, GOLD, SILVER, SLATracker
from repro.core.clock import SimClock
from repro.core.exceptions import (
    ConfigurationError,
    MigrationError,
    SchedulingError,
)
from repro.hardware.faults import FaultClass, FaultOrigin, FaultRecord
from repro.hypervisor.vm import VirtualMachine, VMState
from repro.resilience.health import NodeHealthView
from repro.workloads import spec_workload


def make_nodes(clock, n=3):
    return [ComputeNode(f"node{i}", clock, seed=i) for i in range(n)]


def believe(nodes):
    """The controller's views of ``nodes`` after one heartbeat round."""
    health = NodeHealthView()
    for node in nodes:
        health.register(node.name)
        heartbeat = node.heartbeat()
        if heartbeat is not None:
            health.observe(heartbeat)
    return health.views()


def record_crashes(node, n=4):
    for _ in range(n):
        node.platform.faults.record(FaultRecord(
            timestamp=0.0, fault_class=FaultClass.CRASH,
            origin=FaultOrigin.CPU_CORE, component="core0"))


def make_vm(name="vm0", cycles=1e12):
    return VirtualMachine(name=name,
                          workload=spec_workload("mcf",
                                                 duration_cycles=cycles))


class TestFilterScheduler:
    def test_schedules_on_feasible_node(self):
        clock = SimClock()
        nodes = make_nodes(clock)
        placement = FilterScheduler().schedule(
            believe(nodes), make_vm(), SILVER)
        assert placement.node in {n.name for n in nodes}

    def test_prefers_reliable_node(self):
        clock = SimClock()
        nodes = make_nodes(clock)
        # Make node0 and node1 unreliable.
        for node in nodes[:2]:
            record_crashes(node)
        placement = FilterScheduler().schedule(
            believe(nodes), make_vm(), GOLD)
        assert placement.node == "node2"

    def test_crashed_node_filtered(self):
        """A node that never heartbeated is never believed schedulable."""
        clock = SimClock()
        nodes = make_nodes(clock, n=2)
        nodes[0].hypervisor._crashed = True
        placement = FilterScheduler().schedule(
            believe(nodes), make_vm(), BRONZE)
        assert placement.node == "node1"

    def test_no_feasible_node_raises(self):
        clock = SimClock()
        nodes = make_nodes(clock, n=1)
        nodes[0].hypervisor._crashed = True
        with pytest.raises(SchedulingError):
            FilterScheduler().schedule(believe(nodes), make_vm(), BRONZE)

    def test_performance_filter_blocks_slow_nodes(self):
        clock = SimClock()
        node = make_nodes(clock, n=1)[0]
        nominal = node.platform.chip.spec.nominal
        node.platform.set_all_core_points(
            nominal.with_frequency(nominal.frequency_hz * 0.5))
        view = believe([node])[0]
        assert sla_performance_filter(view, make_vm(), GOLD) is False
        assert sla_performance_filter(view, make_vm(), BRONZE) is True

    def test_reliability_filter_spares_nominal_nodes(self):
        from repro.daemons.infovector import ComponentMargin, MarginVector
        from repro.eop import EOPPolicy

        clock = SimClock()
        node = make_nodes(clock, n=1)[0]
        # Node at nominal: acceptable for gold despite loose budget.
        view = believe([node])[0]
        assert sla_reliability_filter(view, make_vm(), GOLD) is True
        # One live adoption flips the verdict: the node is now spending
        # margin under its own (looser) failure budget.
        node.governor.policy = EOPPolicy.adopt_within_budget()
        nominal = node.platform.chip.spec.nominal
        node.governor.adopt(MarginVector(
            timestamp=0.0, node=node.name,
            margins=(ComponentMargin(
                component="core0",
                safe_point=nominal.with_voltage(nominal.voltage_v * 0.9),
                failure_probability=1e-9, relative_power=0.8,
                stress_workload="virus"),)))
        assert node.governor.adopted_count() == 1
        # The filter sees the adoption once a heartbeat reports it.
        assert sla_reliability_filter(view, make_vm(), GOLD) is True
        view = believe([node])[0]
        assert sla_reliability_filter(view, make_vm(), GOLD) is False

    def test_scheduler_needs_filters_and_weighers(self):
        with pytest.raises(ConfigurationError):
            FilterScheduler(filters=())
        with pytest.raises(ConfigurationError):
            FilterScheduler(weighers=())


class TestRoundRobin:
    def test_rotates_over_nodes(self):
        clock = SimClock()
        views = believe(make_nodes(clock))
        rr = RoundRobinScheduler()
        picks = [rr.schedule(views, make_vm(f"vm{i}"), BRONZE).node
                 for i in range(3)]
        assert picks == ["node0", "node1", "node2"]

    def test_no_capacity_raises(self):
        with pytest.raises(SchedulingError):
            RoundRobinScheduler().schedule([], make_vm(), BRONZE)


class TestMigrationCost:
    def test_downtime_much_smaller_than_total(self):
        model = MigrationCostModel()
        assert model.downtime_s(4096.0) < model.total_time_s(4096.0) / 10

    def test_costs_scale_with_memory(self):
        model = MigrationCostModel()
        assert model.total_time_s(8192.0) > model.total_time_s(1024.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MigrationCostModel(bandwidth_mb_s=0.0)
        with pytest.raises(ConfigurationError):
            MigrationCostModel(dirty_fraction=1.0)


class TestMigration:
    def _setup(self):
        clock = SimClock()
        nodes = make_nodes(clock, n=2)
        tracker = SLATracker()
        manager = MigrationManager(tracker=tracker)
        vm = make_vm()
        nodes[0].hypervisor.create_vm(vm)
        tracker.register(vm.name, SILVER)
        return nodes, tracker, manager, vm

    def test_migrate_moves_the_vm(self):
        nodes, tracker, manager, vm = self._setup()
        record = manager.migrate("vm0", nodes[0], nodes[1], SILVER)
        assert record.source == "node0"
        assert record.destination == "node1"
        with pytest.raises(KeyError):
            nodes[0].hypervisor.vm("vm0")
        assert nodes[1].hypervisor.vm("vm0").state is VMState.RUNNING

    def test_migration_accounts_downtime(self):
        nodes, tracker, manager, vm = self._setup()
        manager.migrate("vm0", nodes[0], nodes[1], SILVER)
        record = tracker.record("vm0")
        assert record.migrations == 1
        assert record.downtime_s > 0

    def test_same_node_rejected(self):
        nodes, tracker, manager, vm = self._setup()
        with pytest.raises(MigrationError):
            manager.migrate("vm0", nodes[0], nodes[0], SILVER)

    def test_evacuate_moves_high_priority_first(self):
        clock = SimClock()
        nodes = make_nodes(clock, n=2)
        tracker = SLATracker()
        manager = MigrationManager(tracker=tracker)
        gold_vm = make_vm("gold_vm")
        bronze_vm = make_vm("bronze_vm")
        nodes[0].hypervisor.create_vm(bronze_vm)
        nodes[0].hypervisor.create_vm(gold_vm)
        tracker.register("gold_vm", GOLD)
        tracker.register("bronze_vm", BRONZE)
        records = manager.evacuate(
            nodes[0], believe(nodes), tracker,
            resolve={n.name: n for n in nodes}.__getitem__)
        assert [r.vm_name for r in records] == ["gold_vm", "bronze_vm"]
        assert manager.proactive_migrations() == 2
        assert nodes[0].hypervisor.active_vms() == []


class TestBeliefsNotGroundTruth:
    def test_decision_follows_the_belief(self):
        """A node that crashed after its heartbeat is still picked by
        that heartbeat; the launch then bounces on actuation."""
        clock = SimClock()
        nodes = make_nodes(clock, n=2)
        record_crashes(nodes[1])  # node1's heartbeat reports crashes
        cloud = CloudController(clock, nodes)  # one heartbeat round
        nodes[0].hypervisor._crashed = True
        views = cloud.health.schedulable_views()
        assert [v.name for v in views] == ["node0", "node1"]
        placement = FilterScheduler().schedule(views, make_vm(), GOLD)
        assert placement.node == "node0"
        with pytest.raises(SchedulingError, match="node0"):
            cloud.launch(make_vm(), GOLD)
        assert cloud.stats.launched == 0
