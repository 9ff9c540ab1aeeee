"""Tests for the per-node runtime: RNG streams, metrics, node wiring."""

import pytest

from repro.core import SimClock, UniServerNode
from repro.core.exceptions import ConfigurationError
from repro.core.runtime import (
    HistogramStats,
    MetricsRegistry,
    NodeRuntime,
    spawn_runtimes,
)


class TestRngStreams:
    def test_same_stream_name_is_cached(self):
        runtime = NodeRuntime(seed=1)
        assert runtime.rng("faults") is runtime.rng("faults")

    def test_named_streams_are_independent(self):
        runtime = NodeRuntime(seed=1)
        a = runtime.rng("faults").random(8)
        b = runtime.rng("hypervisor").random(8)
        assert list(a) != list(b)

    def test_streams_reproducible_across_runtimes(self):
        first = NodeRuntime(seed=7).rng("faults").random(8)
        second = NodeRuntime(seed=7).rng("faults").random(8)
        assert list(first) == list(second)

    def test_streams_differ_across_seeds(self):
        first = NodeRuntime(seed=7).rng("faults").random(8)
        second = NodeRuntime(seed=8).rng("faults").random(8)
        assert list(first) != list(second)

    def test_stream_identity_independent_of_request_order(self):
        forward = NodeRuntime(seed=3)
        backward = NodeRuntime(seed=3)
        forward.rng("a")
        forward.rng("b")
        backward.rng("b")
        backward.rng("a")
        assert list(forward.rng("b").random(4)) == \
            list(backward.rng("b").random(4))

    def test_spawned_runtimes_share_clock_not_streams(self):
        runtimes = spawn_runtimes(3, seed=5)
        assert len({id(r.clock) for r in runtimes}) == 1
        draws = [tuple(r.rng("faults").random(4)) for r in runtimes]
        assert len(set(draws)) == 3

    def test_spawn_runtimes_needs_at_least_one(self):
        with pytest.raises(ConfigurationError):
            spawn_runtimes(0)

    def test_spawn_child_shares_clock(self):
        parent = NodeRuntime(seed=2)
        child = parent.spawn_child("child0")
        assert child.clock is parent.clock
        assert child.bus is not parent.bus
        assert child.metrics is not parent.metrics

    def test_now_tracks_clock(self):
        clock = SimClock()
        runtime = NodeRuntime(clock=clock)
        clock.advance_by(12.5)
        assert runtime.now == 12.5


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.inc("hypervisor.ticks")
        registry.inc("hypervisor.ticks", 2.0)
        assert registry.counter("hypervisor.ticks") == 3.0

    def test_counters_refuse_negative_amounts(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.inc("hypervisor.ticks", -1.0)

    def test_unknown_counter_reads_zero(self):
        assert MetricsRegistry().counter("nope") == 0.0

    def test_gauges_keep_latest_value(self):
        registry = MetricsRegistry()
        registry.set_gauge("hypervisor.energy_j", 1.0)
        registry.set_gauge("hypervisor.energy_j", 2.5)
        assert registry.gauge("hypervisor.energy_j") == 2.5
        assert registry.gauge("unset") is None

    def test_histograms_summarise_moments(self):
        registry = MetricsRegistry()
        for value in (1.0, 2.0, 3.0):
            registry.observe("daemons.healthlog.power_w", value)
        stats = registry.histogram("daemons.healthlog.power_w")
        assert stats.count == 3
        assert stats.mean == 2.0
        assert stats.min_value == 1.0
        assert stats.max_value == 3.0

    def test_histogram_registers_on_first_access(self):
        registry = MetricsRegistry()
        stats = registry.histogram("daemons.predictor.latency_s")
        assert stats.count == 0
        # The returned summary is the live registered series, not a
        # detached throwaway: observations through it are visible.
        stats.observe(2.0)
        assert registry.histogram("daemons.predictor.latency_s") is stats
        assert "daemons.predictor.latency_s" in registry.series_names()
        assert registry.snapshot()["histograms"][
            "daemons.predictor.latency_s"]["count"] == 1

    def test_empty_histogram_dict_is_all_zero(self):
        assert HistogramStats().as_dict() == {
            "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
        }

    def test_layers_are_top_level_namespaces(self):
        registry = MetricsRegistry()
        registry.inc("hardware.faults.crash")
        registry.set_gauge("hypervisor.energy_j", 1.0)
        registry.observe("daemons.healthlog.power_w", 5.0)
        assert registry.layers() == ["daemons", "hardware", "hypervisor"]

    def test_snapshot_is_sorted_and_plain(self):
        registry = MetricsRegistry()
        registry.inc("b.two")
        registry.inc("a.one")
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["a.one", "b.two"]
        assert set(snapshot) == {"counters", "gauges", "histograms"}

    def test_clear_drops_all_series(self):
        registry = MetricsRegistry()
        registry.inc("a.one")
        registry.clear()
        assert registry.series_names() == []


class TestNodeWiring:
    def test_uniserver_node_layers_share_runtime(self):
        node = UniServerNode(seed=1)
        assert node.healthlog.clock is node.runtime.clock
        assert node.hypervisor.bus is node.runtime.bus
        assert node.healthlog.metrics is node.runtime.metrics
        assert node.isolation.metrics is node.runtime.metrics
        assert node.qos.metrics is node.runtime.metrics

    def test_conflicting_clock_and_runtime_rejected(self):
        runtime = NodeRuntime()
        with pytest.raises(ConfigurationError):
            UniServerNode(clock=SimClock(), runtime=runtime)

    def test_node_run_reports_across_layers(self):
        node = UniServerNode(seed=1)
        node.pre_deploy()
        node.deploy()
        node.run(120.0)
        layers = node.runtime.metrics.layers()
        assert "daemons" in layers
        assert "hypervisor" in layers
        assert "hardware" in layers


class TestComputeNodeWrapsUniServerNode:
    def test_compute_node_carries_the_full_stack(self):
        from repro.cloudmgr import ComputeNode

        node = ComputeNode("n0", SimClock(), seed=4)
        assert isinstance(node, UniServerNode)
        assert not hasattr(node, "node")
        assert node.deployed
        runtime = node.runtime
        for layer in (node.healthlog, node.stresslog, node.hypervisor,
                      node.isolation, node.qos, node.governor):
            assert layer.metrics is runtime.metrics
        assert node.hypervisor.clock is node.clock is runtime.clock
        assert node.hypervisor.bus is node.bus is runtime.bus

    @pytest.mark.parametrize("characterize", [True, False])
    def test_characterized_node_matches_manual_lifecycle(self, characterize):
        from repro.cloudmgr import ComputeNode
        from repro.eop.policy import EOPPolicy

        compute = ComputeNode("n0", runtime=NodeRuntime(name="n0", seed=9),
                              characterize=characterize)
        manual = UniServerNode(runtime=NodeRuntime(name="n0", seed=9))
        if characterize:
            manual.pre_deploy()
            manual.deploy()
            manual.train_predictor(include_campaign=False)
        else:
            manual.deploy(EOPPolicy.conservative())
        compute_points = [
            compute.platform.core_point(c.core_id)
            for c in compute.platform.chip.cores
        ]
        manual_points = [
            manual.platform.core_point(c.core_id)
            for c in manual.platform.chip.cores
        ]
        assert compute_points == manual_points
        assert compute.metrics_snapshot() == manual.runtime.metrics.snapshot()

    def test_uncharacterized_node_boots_at_nominal(self):
        from repro.cloudmgr import ComputeNode

        node = ComputeNode("n0", SimClock(), seed=4)
        nominal = node.platform.chip.spec.nominal
        for core in node.platform.chip.cores:
            assert node.platform.core_point(core.core_id) == nominal

    def test_conflicting_clock_and_runtime_rejected(self):
        from repro.cloudmgr import ComputeNode

        with pytest.raises(ConfigurationError):
            ComputeNode("n0", SimClock(), runtime=NodeRuntime(name="n0"))
