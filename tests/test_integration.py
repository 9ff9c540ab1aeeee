"""Cross-layer integration scenarios.

Each test exercises a multi-module slice of the stack end to end —
the kind of interaction unit tests cannot see.
"""

import pytest

from repro.core import UniServerNode
from repro.core.events import CorrectableErrorEvent
from repro.core.interfaces import MonitoringInterface, Scope
from repro.daemons.logpattern import LogPatternPredictor
from repro.hypervisor import make_vm_fleet
from repro.workloads import spec_workload


class TestAnomalyTriggersRecharacterization:
    def test_error_storm_spawns_stresslog_cycle(self):
        """HealthLog threshold -> AnomalyEvent -> StressLog cycle, the
        closed loop of Section 3."""
        node = UniServerNode(seed=8)
        node.pre_deploy()
        node.deploy()
        cycles_before = len(node.stresslog.history)
        # Simulate an error storm on one core.
        for i in range(node.healthlog.config.error_threshold + 2):
            node.bus.publish(CorrectableErrorEvent(
                timestamp=node.clock.now, source="hw",
                component="core3", detail="storm"))
        assert len(node.stresslog.history) == cycles_before + 1
        assert node.stresslog.history[-1].trigger == "anomaly"

    def test_recharacterized_margins_remain_applicable(self):
        node = UniServerNode(seed=9)
        node.pre_deploy()
        node.deploy()
        vector = node.recharacterize()
        changed = node.governor.adopt(vector).adopted
        assert changed  # fresh margins still within the budget


class TestLogPatternOverHealthLog:
    def test_predictor_learns_healthlog_and_flags_failures(self):
        """The log-pattern predictor consumes the actual HealthLog
        logfile format and flags a crash storm it never saw healthy."""
        node = UniServerNode(seed=10)
        node.pre_deploy()
        node.deploy()
        for vm in make_vm_fleet(
                spec_workload("hmmer", duration_cycles=1e12), 3):
            node.launch_vm(vm)
        # Healthy operation: a trickle of corrected errors, too sparse
        # per component to trip the HealthLog's anomaly threshold.
        for i in range(140):
            node.run(5.0)
            if i % 4 == 3:
                component, detail = f"channel{i % 3}", "ECC scrub corrected"
            else:
                component = f"core{i % 8}"
                detail = f"{1 + i % 3} SECDED corrections"
            node.bus.publish(CorrectableErrorEvent(
                timestamp=node.clock.now, source="hypervisor",
                component=component, detail=detail))
        healthy_log = node.healthlog.logfile
        assert len(healthy_log) >= 140

        predictor = LogPatternPredictor(window=15)
        predictor.learn(healthy_log[:80])
        predictor.freeze()
        predictor.scan(healthy_log[80:])

        failure_burst = [
            f"t={node.clock.now + i:.3f} crash core{i % 8} "
            "watchdog timeout" for i in range(30)
        ]
        assert predictor.any_anomaly(failure_burst)
        assert not predictor.any_anomaly(healthy_log[100:140])


class TestMonitoringInterfaceOnLiveNode:
    def test_all_scopes_during_operation(self):
        node = UniServerNode(seed=11)
        node.pre_deploy()
        node.deploy()
        interface = MonitoringInterface(node.platform, node.healthlog)
        for vm in make_vm_fleet(
                spec_workload("mcf", duration_cycles=1e12), 2):
            node.launch_vm(vm)
        node.run(30.0)

        vector = interface.info_vector(Scope.HOST)
        assert vector.configuration  # host sees the EOP configuration
        status = interface.node_status(Scope.CLOUD)
        assert status.mean_voltage_fraction < 1.0  # EOPs adopted
        telemetry = interface.guest_telemetry(Scope.GUEST)
        assert telemetry.power_bucket_w >= 0
        assert len(interface.audit_log) == 3


class TestEndToEndEnergyStory:
    def test_deeper_budget_buys_more_saving(self):
        """The failure budget is the dial: a looser budget lets the
        hypervisor adopt deeper EOPs and save more energy."""
        from repro.hypervisor import HypervisorConfig

        savings = {}
        for budget in (1e-9, 1e-4):
            node = UniServerNode(
                seed=12,
                hypervisor_config=HypervisorConfig(failure_budget=budget),
            )
            node.pre_deploy()
            node.deploy()
            savings[budget] = node.energy_report().saving_fraction
        assert savings[1e-4] >= savings[1e-9]
        assert savings[1e-4] > 0.1

    def test_characterisation_is_stable_across_repeats(self):
        """Two consecutive StressLog cycles on an un-aged part must
        agree to within measurement noise."""
        node = UniServerNode(seed=13)
        first = node.pre_deploy()
        second = node.recharacterize()
        for margin_a, margin_b in zip(first.margins, second.margins):
            assert margin_a.component == margin_b.component
            assert margin_a.safe_point.voltage_v == pytest.approx(
                margin_b.safe_point.voltage_v, abs=0.01)
