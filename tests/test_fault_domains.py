"""Tests for fault-domain topology, correlated chaos, and defenses."""

from collections import Counter

import numpy as np
import pytest

from repro.core.exceptions import ConfigurationError
from repro.fleet import (
    CORRELATED_FAULT_KINDS,
    FaultDomainTopology,
    FleetCampaignConfig,
    FleetChaos,
    FleetConfig,
    cooling_zone_name,
    fleet_correlated_plan,
    fleet_node_index,
    pdu_name,
    rack_name,
    run_fleet_campaign,
)
from repro.persistence.snapshot import canonical_json
from repro.resilience.chaos import FaultKind, FaultPlan, FaultSpec

#: 8 nodes in racks of 2: 4 racks, 2 PDUs, 2 cooling zones.
SMALL = FleetConfig(n_nodes=8, seed=0, nodes_per_rack=2)


def correlated_config(**overrides):
    fleet = overrides.pop("fleet", None) or FleetConfig(
        n_nodes=overrides.pop("n_nodes", 8),
        seed=overrides.pop("seed", 0),
        nodes_per_rack=overrides.pop("nodes_per_rack", 2))
    defaults = dict(fleet=fleet, duration_s=1800.0,
                    arrivals_per_hour=240.0, mean_lifetime_s=600.0,
                    telemetry_every_steps=5, correlated_seed=7,
                    correlated_rate_per_hour=2.0,
                    correlated_intensity=0.8, domain_defense=True)
    defaults.update(overrides)
    return FleetCampaignConfig(**defaults)


class TestTopology:
    def test_contiguous_layout(self):
        topo = FaultDomainTopology.from_config(SMALL)
        assert topo.rack_of.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]
        assert topo.pdu_of.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
        assert topo.cooling_of.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
        assert (topo.n_racks, topo.n_pdus, topo.n_cooling_zones) \
            == (4, 2, 2)

    def test_ragged_tail_rack(self):
        topo = FaultDomainTopology(5, nodes_per_rack=2,
                                   racks_per_pdu=2,
                                   racks_per_cooling_zone=2)
        assert topo.rack_of.tolist() == [0, 0, 1, 1, 2]
        assert topo.n_racks == 3 and topo.n_pdus == 2

    def test_name_round_trips(self):
        topo = FaultDomainTopology.from_config(SMALL)
        assert rack_name(2) == "rack2"
        assert topo.rack_index("rack2") == 2
        assert topo.pdu_index(pdu_name(1)) == 1
        assert topo.cooling_zone_index(cooling_zone_name(0)) == 0
        for bad in ("rack9", "rack02", "pdu0", "", "rack-1"):
            assert topo.rack_index(bad) is None

    def test_masks_partition_the_fleet(self):
        topo = FaultDomainTopology.from_config(SMALL)
        assert topo.pdu_mask(0).tolist() == [True] * 4 + [False] * 4
        assert topo.rack_mask(3).tolist() == [False] * 6 + [True] * 2
        covered = np.zeros(8, dtype=bool)
        for rack in range(topo.n_racks):
            mask = topo.rack_mask(rack)
            assert not (covered & mask).any()
            covered |= mask
        assert covered.all()

    def test_config_echo_round_trip(self):
        echo = correlated_config().as_dict()
        fleet = echo["fleet"]
        rebuilt = FaultDomainTopology(
            fleet["n_nodes"], fleet["nodes_per_rack"],
            fleet["racks_per_pdu"], fleet["racks_per_cooling_zone"])
        original = FaultDomainTopology.from_config(SMALL)
        assert rebuilt.as_dict() == original.as_dict()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultDomainTopology(0, 2, 2, 2)
        with pytest.raises(ConfigurationError):
            FaultDomainTopology(8, 0, 2, 2)
        with pytest.raises(ConfigurationError):
            FleetConfig(n_nodes=4, nodes_per_rack=0)
        with pytest.raises(ConfigurationError):
            FleetConfig(n_nodes=4, brownout_depth_v=-0.1)
        with pytest.raises(ConfigurationError):
            FleetConfig(n_nodes=4, brownout_crash_scale=1.5)


class TestCorrelatedPlan:
    def test_deterministic_and_domain_named(self):
        a = fleet_correlated_plan(SMALL, 3600.0, seed=3)
        b = fleet_correlated_plan(SMALL, 3600.0, seed=3)
        assert list(a) == list(b)
        assert list(a) != list(fleet_correlated_plan(SMALL, 3600.0,
                                                     seed=4))
        topo = FaultDomainTopology.from_config(SMALL)
        for spec in a:
            assert spec.kind in CORRELATED_FAULT_KINDS
            index = (topo.rack_index(spec.node),
                     topo.pdu_index(spec.node),
                     topo.cooling_zone_index(spec.node))
            assert any(i is not None for i in index), spec.node

    def test_every_kind_present_at_any_positive_rate(self):
        plan = fleet_correlated_plan(SMALL, 600.0, seed=0,
                                     rate_per_hour=0.01)
        kinds = {spec.kind for spec in plan}
        assert kinds == set(CORRELATED_FAULT_KINDS)

    def test_zero_rate_is_empty(self):
        assert len(fleet_correlated_plan(SMALL, 3600.0,
                                         rate_per_hour=0.0)) == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            fleet_correlated_plan(SMALL, 0.0)
        with pytest.raises(ConfigurationError):
            fleet_correlated_plan(SMALL, 3600.0, intensity=0.0)
        with pytest.raises(ConfigurationError):
            fleet_correlated_plan(SMALL, 3600.0, rate_per_hour=-1.0)


class TestNodeIndexEdgeCases:
    """Satellite: the strict ``node{i}`` parse, off-by-one audited."""

    def test_index_bounds(self):
        assert fleet_node_index("node0", 8) == 0
        assert fleet_node_index("node7", 8) == 7
        assert fleet_node_index("node8", 8) is None   # == n_nodes
        assert fleet_node_index("node99", 8) is None

    def test_non_canonical_names_rejected(self):
        for bad in ("node08", "node+1", "node-1", "node", "node 1",
                    "NODE1", "rack0", ""):
            assert fleet_node_index(bad, 8) is None, bad


def _chaos(specs, config=SMALL, **kwargs):
    return FleetChaos(FaultPlan(specs), config, **kwargs)


class TestCorrelatedMasks:
    def test_brownout_covers_rail_with_identical_draws(self):
        chaos = _chaos([FaultSpec(FaultKind.PDU_BROWNOUT, "pdu0",
                                  0.0, 600.0, magnitude=1.0)])
        depth = chaos.brownout_depth(3)
        assert (depth[:4] > 0).all() and (depth[4:] == 0).all()
        # The rail shares one counter key: every member sags equally.
        assert np.unique(depth[:4]).size == 1
        assert not chaos.brownout_depth(30).any()  # window over

    def test_window_starting_at_step_zero(self):
        """Satellite: a window opening at t=0 is active at step 0."""
        chaos = _chaos([FaultSpec(FaultKind.RACK_PARTITION, "rack1",
                                  0.0, 120.0)])
        assert chaos.partition_mask(0)[2] and chaos.partition_mask(0)[3]
        assert chaos.partition_mask(1)[2]
        assert not chaos.partition_mask(2).any()

    def test_window_ending_at_final_step(self):
        """Satellite: a window reaching the last step stays closed
        past it (1800 s at 60 s steps -> final step index 29)."""
        chaos = _chaos([FaultSpec(FaultKind.COOLING_FAILURE,
                                  "cooling1", 1740.0, 60.0,
                                  magnitude=1.0)])
        assert chaos.cooling_delta_c(29)[4] > 0
        assert not chaos.cooling_delta_c(28).any()
        assert not chaos.cooling_delta_c(30).any()

    def test_cooling_ramp_is_monotone(self):
        chaos = _chaos([FaultSpec(FaultKind.COOLING_FAILURE,
                                  "cooling0", 0.0, 600.0,
                                  magnitude=1.0)])
        deltas = [chaos.cooling_delta_c(t)[0] for t in range(10)]
        assert all(b >= a for a, b in zip(deltas, deltas[1:]))
        assert deltas[-1] == pytest.approx(SMALL.cooling_ramp_c)

    def test_overlapping_kinds_on_one_node(self):
        """Satellite: different correlated kinds stack on one node."""
        specs = [
            FaultSpec(FaultKind.PDU_BROWNOUT, "pdu0", 0.0, 600.0,
                      magnitude=1.0),
            FaultSpec(FaultKind.COOLING_FAILURE, "cooling0", 60.0,
                      600.0, magnitude=0.5),
            FaultSpec(FaultKind.RACK_PARTITION, "rack0", 120.0, 300.0),
        ]
        chaos = _chaos(specs)
        t = 3  # inside all three windows
        assert chaos.brownout_depth(t)[0] > 0
        assert chaos.cooling_delta_c(t)[0] > 0
        assert chaos.partition_mask(t)[0]
        assert chaos.at_risk_mask(t)[0]
        # rack0 = nodes 0..1; the partition must not leak past it.
        assert not chaos.partition_mask(t)[2:].any()

    def test_view_slices_match_at_shard_edges(self):
        """Satellite: masks through view() == sliced full-fleet masks,
        including views that cut through a domain."""
        plan = fleet_correlated_plan(SMALL, 1800.0, seed=7,
                                     rate_per_hour=4.0)
        chaos = _chaos(list(plan), defense=True)
        for lo, hi in ((0, 3), (3, 6), (6, 8), (1, 7)):
            view = chaos.view(lo, hi)
            for t in (0, 7, 15, 29):
                for method in ("brownout_depth", "cooling_delta_c",
                               "partition_mask", "at_risk_mask",
                               "brownout_crash_mask",
                               "guard_demote_mask", "crash_mask",
                               "down_mask"):
                    assert np.array_equal(
                        getattr(view, method)(t),
                        getattr(chaos, method)(t)[lo:hi]), \
                        (method, lo, hi, t)

    def test_dropout_mask_deterministic_across_shard_splits(self):
        """Satellite: dropout draws concatenated over 1/2/4-way views
        equal the unsharded mask."""
        specs = [FaultSpec(FaultKind.TELEMETRY_DROPOUT,
                           f"node{i}", 0.0, 1200.0, magnitude=0.8)
                 for i in range(8)]
        chaos = _chaos(specs)
        for t in (0, 5, 13):
            full = chaos.dropout_mask(t)
            for shards in (1, 2, 4):
                bounds = [(i * 8 // shards, (i + 1) * 8 // shards)
                          for i in range(shards)]
                stitched = np.concatenate([
                    chaos.view(lo, hi).dropout_mask(t)
                    for lo, hi in bounds])
                assert np.array_equal(stitched, full), (t, shards)

    def test_brownout_crashes_are_seeded(self):
        spec = FaultSpec(FaultKind.PDU_BROWNOUT, "pdu0", 0.0, 1800.0,
                         magnitude=1.0)
        config = FleetConfig(n_nodes=8, seed=0, nodes_per_rack=2,
                             brownout_crash_scale=0.5)
        a = _chaos([spec], config=config)
        b = _chaos([spec], config=config)
        crashed = np.zeros(8, dtype=bool)
        for t in range(30):
            mask = a.brownout_crash_mask(t)
            assert np.array_equal(mask, b.brownout_crash_mask(t))
            crashed |= mask
        assert crashed[:4].any(), "a 50% per-step hazard never fired"
        assert not crashed[4:].any(), "crash leaked off the rail"

    def test_guard_fires_only_with_defense_at_window_open(self):
        spec = FaultSpec(FaultKind.PDU_BROWNOUT, "pdu1", 120.0, 600.0,
                         magnitude=1.0)
        undefended = _chaos([spec])
        defended = _chaos([spec], defense=True)
        assert not undefended.guard_demote_mask(2).any()
        guard = defended.guard_demote_mask(2)
        assert guard.tolist() == [False] * 4 + [True] * 4
        assert not defended.guard_demote_mask(3).any()
        # Probation extends past the window's end.
        probation = defended.guard_probation(2)
        assert (probation[4:] >= 12).all()


class TestCampaignWithDomains:
    def test_report_invariance_under_correlated_chaos(self):
        baseline = canonical_json(run_fleet_campaign(
            correlated_config()))
        sharded = canonical_json(run_fleet_campaign(
            correlated_config(shards=4)))
        jobs = canonical_json(run_fleet_campaign(
            correlated_config(shards=4), jobs=2))
        assert baseline == sharded == jobs

    def test_fault_domains_block_and_echo(self):
        report = run_fleet_campaign(correlated_config())
        assert report["config"]["correlated_seed"] == 7
        assert report["config"]["domain_defense"] is True
        block = report["fault_domains"]
        assert block["defense"] is True
        assert block["topology"]["racks"] == 4
        assert set(block["by_kind"]) <= {
            kind.value for kind in CORRELATED_FAULT_KINDS}
        totals = report["totals"]
        for key in ("sla_violations", "availability", "migrations",
                    "migrations_deferred", "domain_demotions"):
            assert key in totals

    def test_no_correlated_plan_no_block(self):
        report = run_fleet_campaign(correlated_config(
            correlated_seed=None, domain_defense=False))
        assert "fault_domains" not in report
        assert report["totals"]["domain_demotions"] == 0

    def test_defense_off_keeps_guard_cold(self):
        report = run_fleet_campaign(correlated_config(
            domain_defense=False))
        assert report["totals"]["domain_demotions"] == 0
        assert report["totals"]["migrations"] == 0

    def test_snapshot_resume_under_correlated_chaos(self, tmp_path):
        from repro.fleet import FleetCampaign

        config = correlated_config(shards=2)
        full = run_fleet_campaign(config)
        campaign = FleetCampaign(config, snapshot_dir=tmp_path)
        campaign.run(until_step=17)
        campaign.take_snapshot()
        campaign.close()
        resumed = FleetCampaign(config, snapshot_dir=tmp_path)
        assert resumed.resume()
        resumed.run()
        assert canonical_json(resumed.report()) == canonical_json(full)
        resumed.close()

    @staticmethod
    def _peak_evacuation_inflow(cap):
        """Most VMs one at-risk evacuation pass moved into one rack."""
        from repro.fleet import FleetCampaign

        campaign = FleetCampaign(correlated_config(
            max_migrations_per_rack_step=cap))
        evacuate, occupy = campaign._evacuate_at_risk, campaign._occupy
        inflow = Counter()
        step = None

        def recording_evacuate(t):
            nonlocal step
            step = t
            evacuate(t)
            step = None

        def recording_occupy(seq, node, vcpus, sign):
            if step is not None and sign > 0:
                inflow[step, int(campaign.topology.rack_of[node])] += 1
            occupy(seq, node, vcpus, sign)

        campaign._evacuate_at_risk = recording_evacuate
        campaign._occupy = recording_occupy
        campaign.run()
        campaign.close()
        assert sum(inflow.values()) == campaign.migrations
        return max(inflow.values(), default=0)

    def test_evacuation_inflow_is_capped_per_rack_and_step(self):
        assert self._peak_evacuation_inflow(cap=1) <= 1
        # Without a binding cap the same plan stampedes one rack, so
        # the capped run really exercises the backpressure.
        assert self._peak_evacuation_inflow(cap=1000) > 1

    def test_campaign_validation(self):
        with pytest.raises(ConfigurationError):
            correlated_config(correlated_rate_per_hour=-1.0)
        with pytest.raises(ConfigurationError):
            correlated_config(correlated_intensity=0.0)
        with pytest.raises(ConfigurationError):
            correlated_config(tenants=0)
        with pytest.raises(ConfigurationError):
            correlated_config(max_migrations_per_rack_step=0)


class TestCorrelatedGuardGovernor:
    def _node(self, correlated_k):
        from repro.core import UniServerNode
        from repro.daemons.healthlog import HealthLogConfig
        from repro.eop import EOPPolicy

        policy = EOPPolicy.adopt_within_budget().with_overrides(
            error_budget=3, correlated_k=correlated_k,
            correlated_window_s=120.0)
        node = UniServerNode(
            seed=3, eop_policy=policy,
            healthlog_config=HealthLogConfig(error_threshold=100))
        node.pre_deploy()
        node.deploy()
        return node

    def _storm(self, node, component, count=3):
        from repro.core.events import CorrectableErrorEvent

        for _ in range(count):
            node.bus.publish(CorrectableErrorEvent(
                timestamp=node.clock.now, source="hw",
                component=component, detail="storm"))

    def test_below_k_no_batch(self):
        node = self._node(correlated_k=3)
        self._storm(node, "core1")
        self._storm(node, "core2")
        node.governor.step()
        assert node.governor.domain_demotion_events == []
        assert node.governor.record("core0").state.value == "adopted"

    def test_k_breaches_demote_the_kind_once(self):
        from repro.eop import EOPState

        node = self._node(correlated_k=2)
        self._storm(node, "core1")
        self._storm(node, "core2")
        node.governor.step()
        events = node.governor.domain_demotion_events
        assert len(events) == 1 and events[0]["kind"] == "core"
        cores = [r for r in node.governor.records()
                 if r.kind == "core"]
        assert all(r.state is EOPState.DEMOTED for r in cores)
        batch = [r for r in cores
                 if r.component not in ("core1", "core2")]
        assert all(r.demotions == 0 for r in batch)
        assert node.runtime.metrics.counter("eop.correlated_demotions") == 1.0

    def test_window_expiry_resets_the_count(self):
        node = self._node(correlated_k=2)
        self._storm(node, "core1")
        node.governor.step()
        node.clock.advance_by(200.0)  # > correlated_window_s
        self._storm(node, "core2")
        node.governor.step()
        assert node.governor.domain_demotion_events == []

    def test_guard_state_round_trips(self):
        from repro.core import UniServerNode
        from repro.daemons.healthlog import HealthLogConfig

        node = self._node(correlated_k=2)
        self._storm(node, "core1")
        self._storm(node, "core2")
        node.governor.step()
        state = node.governor.state_dict()
        twin = UniServerNode(
            seed=3, eop_policy=node.governor.policy,
            healthlog_config=HealthLogConfig(error_threshold=100))
        twin.pre_deploy()
        twin.deploy()
        twin.governor.load_state_dict(state)
        assert twin.governor.domain_demotion_events \
            == node.governor.domain_demotion_events

    def test_policy_round_trip_and_validation(self):
        from repro.eop import EOPPolicy

        policy = EOPPolicy.adopt_within_budget().with_overrides(
            correlated_k=4, correlated_window_s=60.0)
        assert EOPPolicy.from_dict(policy.as_dict()) == policy
        # Pre-guard dicts (no correlated keys) still load.
        legacy = policy.as_dict()
        del legacy["correlated_k"], legacy["correlated_window_s"]
        loaded = EOPPolicy.from_dict(legacy)
        assert loaded.correlated_k is None
        with pytest.raises(ConfigurationError):
            EOPPolicy(name="bad", correlated_k=0)
        with pytest.raises(ConfigurationError):
            EOPPolicy(name="bad", correlated_window_s=0.0)
