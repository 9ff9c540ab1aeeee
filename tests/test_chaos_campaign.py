"""Tests for chaos campaigns and the degradation-aware control plane."""

import pytest

from repro.cloudmgr import CloudController, ComputeNode
from repro.cloudmgr.sla import SILVER
from repro.core.clock import SimClock
from repro.core.exceptions import ConfigurationError, SchedulingError
from repro.hypervisor.vm import VirtualMachine
from repro.persistence import CampaignConfig, PersistentCampaign
from repro.resilience import DegradationConfig, run_chaos_ab
from repro.workloads import spec_workload

AB_CONFIG = dict(n_nodes=4, duration_s=3600.0, seed=0,
                 rate_per_hour=8.0, intensity=0.7)


def make_vm(name, cycles=1e11):
    return VirtualMachine(name=name,
                          workload=spec_workload("hmmer",
                                                 duration_cycles=cycles))


class TestCampaign:
    def test_campaign_is_bit_reproducible(self):
        config = CampaignConfig(n_nodes=4, duration_s=1500.0, seed=3,
                                rate_per_hour=10.0, intensity=0.7)
        first = PersistentCampaign(config).run()
        second = PersistentCampaign(config).run()
        # CampaignResult equality covers every headline number and the
        # injection counts (the experiment handle is excluded).
        assert first == second
        assert first.injections == second.injections
        assert first.plan_faults > 0

    def test_needs_at_least_two_nodes(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(n_nodes=1, duration_s=600.0)

    def test_describe_carries_headlines(self):
        result = PersistentCampaign(
            CampaignConfig(n_nodes=2, duration_s=900.0, seed=1)).run()
        text = result.describe()
        assert "availability=" in text and "mttr=" in text

    def test_policies_on_beats_off_on_both_headline_metrics(self):
        comparison = run_chaos_ab(**AB_CONFIG)
        on, off = comparison.on, comparison.off
        assert on.plan_faults == off.plan_faults
        assert on.fleet_availability > off.fleet_availability
        assert on.mttr_s is not None and off.mttr_s is not None
        assert on.mttr_s < off.mttr_s
        assert comparison.availability_gain > 0
        assert comparison.mttr_reduction_s > 0


class TestBeliefDrivenControl:
    def test_scheduling_reads_beliefs_not_ground_truth(self):
        # Crash the only node without giving the controller a chance to
        # miss a heartbeat: the belief is still HEALTHY, so the
        # scheduler picks the node and only the *actuation* fails.
        clock = SimClock()
        node = ComputeNode("node0", clock, seed=0)
        cloud = CloudController(clock, [node])
        node.hypervisor._crashed = True
        with pytest.raises(SchedulingError):
            cloud.launch(make_vm("vm0"), SILVER)

    def test_suspect_nodes_take_no_new_placements(self):
        clock = SimClock()
        nodes = [ComputeNode(f"node{i}", clock, seed=i) for i in range(2)]
        cloud = CloudController(clock, nodes,
                                degradation=DegradationConfig.on())
        for _ in range(cloud.degradation.suspect_after_missed):
            cloud.health.note_missed("node0")
        placement = cloud.launch(make_vm("vm0"), SILVER)
        assert placement.node == "node1"
