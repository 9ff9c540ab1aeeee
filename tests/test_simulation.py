"""Tests for the trace-driven cloud simulation."""

import pytest

from repro.cloudmgr import CloudController, ComputeNode
from repro.cloudmgr.simulation import (
    TIER_MAP,
    TraceDrivenSimulation,
    build_rack_simulation,
)
from repro.core.clock import SimClock
from repro.core.exceptions import ConfigurationError
from repro.workloads.traces import TraceConfig, TraceGenerator


def make_cloud(n_nodes=4):
    clock = SimClock()
    nodes = [ComputeNode(f"node{i}", clock, seed=i) for i in range(n_nodes)]
    return CloudController(clock, nodes, proactive_migration=False)


def make_events(duration_s, rate=20.0, seed=1, lifetime_s=1800.0):
    return TraceGenerator(
        TraceConfig(base_rate_per_hour=rate, mean_lifetime_s=lifetime_s),
        seed=seed).generate(duration_s)


class TestTierMapping:
    def test_all_trace_tiers_resolve(self):
        assert set(TIER_MAP) == {"gold", "silver", "bronze"}


class TestSimulation:
    def test_arrivals_admitted_and_terminated(self):
        duration = 4 * 3600.0
        cloud = make_cloud()
        events = make_events(duration)
        simulation = TraceDrivenSimulation(cloud, events, step_s=120.0)
        stats = simulation.run(duration)
        assert stats.arrivals == len(events)
        assert stats.admitted + stats.rejected == stats.arrivals
        assert stats.admitted > 0
        assert stats.admission_rate > 0.9  # healthy rack absorbs this
        # Short lifetimes: most admitted VMs should have departed.
        assert stats.terminated > stats.admitted * 0.5

    def test_healthy_rack_admits_default_lifetime_trace(self):
        duration = 2 * 3600.0
        cloud = make_cloud()
        events = TraceGenerator(TraceConfig(base_rate_per_hour=15.0),
                                seed=2).generate(duration)
        stats = TraceDrivenSimulation(cloud, events, step_s=60.0).run(duration)
        assert stats.arrivals > 0
        assert stats.admission_rate > 0.9  # healthy rack absorbs this

    def test_rack_drains_after_the_stream(self):
        duration = 2 * 3600.0
        cloud = make_cloud()
        events = make_events(duration, lifetime_s=600.0)
        simulation = TraceDrivenSimulation(cloud, events, step_s=60.0)
        simulation.run(duration + 3600.0)
        assert simulation.active_vm_count() <= 2  # stragglers at most

    def test_overload_counts_rejections(self):
        duration = 2 * 3600.0
        cloud = make_cloud(n_nodes=1)
        events = make_events(duration, rate=300.0, lifetime_s=7200.0)
        simulation = TraceDrivenSimulation(cloud, events, step_s=120.0)
        stats = simulation.run(duration)
        assert stats.rejected > 0
        assert stats.admission_rate < 1.0
        assert sum(stats.rejected_by_tier.values()) == stats.rejected

    def test_deterministic_given_seeds(self):
        duration = 2 * 3600.0
        a = TraceDrivenSimulation(
            make_cloud(), make_events(duration, seed=5), step_s=120.0
        ).run(duration)
        b = TraceDrivenSimulation(
            make_cloud(), make_events(duration, seed=5), step_s=120.0
        ).run(duration)
        assert (a.admitted, a.rejected, a.terminated) == \
            (b.admitted, b.rejected, b.terminated)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TraceDrivenSimulation(make_cloud(), [], step_s=0.0)
        simulation = TraceDrivenSimulation(make_cloud(), [])
        with pytest.raises(ConfigurationError):
            simulation.run(0.0)


class TestDepartures:
    def test_departed_vms_leave_no_qos_requirement(self):
        """A trace departure unregisters the VM's QoS requirement, as a
        completion, failover or migration does: every requirement a node
        keeps names a VM on that node."""
        simulation = build_rack_simulation(
            n_nodes=4, duration_s=7200.0, seed=0, base_rate_per_hour=120.0)
        stats = simulation.run(7200.0)
        assert stats.terminated > 0
        for node in simulation.cloud.node_list():
            required = set(node.qos.state_dict()["requirements"])
            assert required <= {vm.name for vm in node.hypervisor.vms}


class TestDepartureHeap:
    def test_heap_mirrors_departure_dict(self):
        duration = 2 * 3600.0
        simulation = TraceDrivenSimulation(
            make_cloud(), make_events(duration), step_s=120.0)
        simulation.run(duration)
        live = {(when, name) for name, when
                in simulation._departures.items()}
        assert live <= set(simulation._departure_heap)
        # Nothing still pending is already due.
        assert all(when > simulation.now for when, _ in live)

    def test_load_state_dict_rebuilds_heap(self):
        duration = 2 * 3600.0
        events = make_events(duration)
        first = TraceDrivenSimulation(make_cloud(), events,
                                      step_s=120.0)
        while first.now < duration / 2:
            first.step_once()
        state = first.state_dict()

        second = TraceDrivenSimulation(make_cloud(), events,
                                       step_s=120.0)
        second.load_state_dict(state)
        assert sorted(second._departure_heap) == sorted(
            (when, name) for name, when
            in second._departures.items())
        assert second._departure_heap[0] == min(second._departure_heap)

    def test_stale_heap_entries_are_skipped(self):
        simulation = TraceDrivenSimulation(make_cloud(), [],
                                           step_s=60.0)
        import heapq

        # A superseded entry (lazy deletion) must not terminate the VM
        # at the stale time.
        simulation._departures["vm0"] = 500.0
        heapq.heappush(simulation._departure_heap, (100.0, "vm0"))
        heapq.heappush(simulation._departure_heap, (500.0, "vm0"))
        simulation._terminate_departed(200.0)
        assert simulation.stats.terminated == 0
        assert "vm0" in simulation._departures
        simulation._terminate_departed(600.0)
        assert simulation.stats.terminated == 1
        assert "vm0" not in simulation._departures
