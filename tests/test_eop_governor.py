"""Tests for the transactional EOP governor and its state machine."""

import pytest

from repro.core import UniServerNode
from repro.core.events import CorrectableErrorEvent, EOPTransitionEvent
from repro.daemons.healthlog import HealthLogConfig
from repro.eop import EOPPolicy, EOPState
from repro.eop.campaign import EOPCampaignConfig, ErrorInjection
from repro.core.exceptions import ConfigurationError


def make_node(seed=3, policy=None, error_threshold=10):
    """A characterised, deployed node with a supervising governor."""
    node = UniServerNode(
        seed=seed,
        healthlog_config=HealthLogConfig(error_threshold=error_threshold),
        eop_policy=policy)
    node.pre_deploy()
    node.deploy()
    return node


def storm(node, component, count):
    """Publish an error storm the HealthLog ledger will attribute."""
    for _ in range(count):
        node.bus.publish(CorrectableErrorEvent(
            timestamp=node.clock.now, source="hw",
            component=component, detail="storm"))


class TestPolicy:
    def test_named_stances(self):
        assert EOPPolicy.conservative().adopt is False
        assert EOPPolicy.adopt_within_budget().supervise is True
        assert EOPPolicy.aggressive().failure_budget_scale > 1.0
        one_shot = EOPPolicy.one_shot()
        assert one_shot.adopt and not one_shot.supervise

    def test_from_name_round_trip(self):
        for name in ("conservative", "adopt-within-budget",
                     "aggressive", "one-shot"):
            policy = EOPPolicy.from_name(name)
            assert policy.name == name
            assert EOPPolicy.from_dict(policy.as_dict()) == policy

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            EOPPolicy.from_name("yolo")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EOPPolicy(name="bad", error_budget=0)
        with pytest.raises(ConfigurationError):
            EOPPolicy(name="bad", probation_s=0.0)


class TestAdoption:
    def test_deploy_adopts_and_records(self):
        node = make_node()
        assert node.governor.adopted_count() > 0
        record = node.governor.record("core0")
        assert record is not None
        assert record.state is EOPState.ADOPTED
        assert record.saved_point is not None

    def test_conservative_policy_records_candidates(self):
        node = make_node(policy=EOPPolicy.conservative())
        nominal = node.platform.chip.spec.nominal
        assert all(node.platform.core_point(c.core_id) == nominal
                   for c in node.platform.chip.cores)
        counts = node.governor.counts()
        assert counts[EOPState.ADOPTED.value] == 0
        assert counts[EOPState.CANDIDATE.value] > 0

    def test_transitions_publish_events(self):
        node = UniServerNode(seed=3)
        seen = []
        node.bus.subscribe(EOPTransitionEvent, seen.append)
        node.pre_deploy()
        node.deploy()
        adopted = [e for e in seen if e.to_state == "adopted"]
        assert adopted
        assert all(e.from_state == "nominal" for e in adopted)
        assert node.runtime.metrics.counter("eop.adopted") == len(adopted)

    def test_transaction_rolls_back_on_midbatch_failure(self, monkeypatch):
        """A setter blowing up mid-batch must undo the partial adoption."""
        node = UniServerNode(seed=3)
        node.pre_deploy()
        nominal = node.platform.chip.spec.nominal
        original = node.platform.set_core_point
        calls = {"n": 0}

        def flaky(core_id, point):
            calls["n"] += 1
            if calls["n"] == 3:  # two cores adopted, third explodes
                raise RuntimeError("pmbus write failed")
            return original(core_id, point)

        monkeypatch.setattr(node.platform, "set_core_point", flaky)
        node.hypervisor.boot()
        with pytest.raises(RuntimeError):
            node.governor.adopt(node.margin_history[-1])
        monkeypatch.setattr(node.platform, "set_core_point", original)
        assert all(node.platform.core_point(c.core_id) == nominal
                   for c in node.platform.chip.cores)
        assert node.governor.adopted_count() == 0
        assert node.runtime.metrics.counter("eop.transactions_rolled_back") == 1.0
        assert node.hypervisor.stats.margin_applications == 0


class TestDemotion:
    def test_anomaly_demotes_component(self):
        node = make_node()
        old_point = node.platform.core_point(3)
        storm(node, "core3", node.healthlog.config.error_threshold + 2)
        record = node.governor.record("core3")
        assert record.state in (EOPState.DEMOTED, EOPState.QUARANTINED)
        assert node.platform.core_point(3) == record.saved_point
        assert node.platform.core_point(3) != old_point
        assert node.runtime.metrics.counter("eop.demoted") == 1.0

    def test_budget_breach_demotes_on_step(self):
        """The governor's own ledger check, below the HealthLog anomaly
        threshold."""
        policy = EOPPolicy.adopt_within_budget().with_overrides(
            error_budget=3)
        node = make_node(policy=policy, error_threshold=100)
        storm(node, "core2", 3)
        assert node.governor.record("core2").state is EOPState.ADOPTED
        node.governor.step()
        assert node.governor.record("core2").state is EOPState.DEMOTED

    def test_probation_then_promotion(self):
        policy = EOPPolicy.adopt_within_budget().with_overrides(
            error_budget=3, probation_s=400.0, error_window_s=300.0)
        node = make_node(policy=policy, error_threshold=100)
        storm(node, "core2", 3)
        node.governor.step()
        record = node.governor.record("core2")
        assert record.state is EOPState.DEMOTED
        target = record.target
        # Probation not yet served: still demoted.
        node.clock.advance_by(200.0)
        node.governor.step()
        assert record.state is EOPState.DEMOTED
        # Served, and the ledger window is clean again: re-promoted.
        node.clock.advance_by(250.0)
        node.governor.step()
        assert record.state is EOPState.ADOPTED
        point = node.platform.core_point(2)
        assert point.voltage_v == target.voltage_v
        assert node.runtime.metrics.counter("eop.promoted") == 1.0

    def test_quarantine_after_max_demotions(self):
        policy = EOPPolicy.adopt_within_budget().with_overrides(
            error_budget=3, probation_s=400.0, max_demotions=2)
        node = make_node(policy=policy, error_threshold=100)
        storm(node, "core2", 3)
        node.governor.step()
        node.clock.advance_by(450.0)
        node.governor.step()  # promoted again
        assert node.governor.record("core2").state is EOPState.ADOPTED
        storm(node, "core2", 3)
        node.governor.step()
        record = node.governor.record("core2")
        assert record.state is EOPState.QUARANTINED
        assert node.runtime.metrics.counter("eop.quarantined") == 1.0
        # Quarantined components refuse re-adoption.
        vector = node.recharacterize()
        txn = node.governor.adopt(vector)
        assert "core2" not in txn.adopted
        assert record.state is EOPState.QUARANTINED
        assert node.runtime.metrics.counter("eop.quarantine_blocked") >= 1.0

    def test_one_shot_policy_never_demotes(self):
        node = make_node(policy=EOPPolicy.one_shot())
        storm(node, "core3", 20)
        node.governor.step()
        assert node.governor.record("core3").state is EOPState.ADOPTED
        assert node.runtime.metrics.counter("eop.demoted") == 0.0

    def test_wedged_governor_stops_supervising(self):
        node = make_node()
        node.governor.wedged = True
        storm(node, "core3", 20)
        node.governor.step()
        assert node.governor.record("core3").state is EOPState.ADOPTED
        assert node.runtime.metrics.counter("eop.wedged_ticks") == 1.0
        node.governor.wedged = False
        node.governor.step()
        assert node.governor.record("core3").state is not EOPState.ADOPTED


class TestStaleFallback:
    def _stale_node(self):
        node = make_node()
        node.governor.stale_fallback_s = 120.0
        assert node.governor.adopted_count() > 0
        return node

    def test_engage_and_restore(self):
        node = self._stale_node()
        adopted_points = {
            c.core_id: node.platform.core_point(c.core_id)
            for c in node.platform.chip.cores
        }
        nominal = node.platform.chip.spec.nominal
        node.healthlog.stalled = True
        node.clock.advance_by(200.0)
        node.governor.step()
        assert node.runtime.metrics.counter("resilience.fallback.engaged") == 1.0
        assert all(node.platform.core_point(i) == nominal
                   for i in adopted_points)
        assert node.governor.adopted_count() == 0
        record = node.governor.record("core0")
        assert record.state is EOPState.DEMOTED and record.stale_demoted
        # Freshen: one HealthLog sample updates the info-vector age.
        node.healthlog.stalled = False
        node.clock.advance_by(node.healthlog.config.sampling_period_s + 1)
        node.governor.step()
        assert node.runtime.metrics.counter("resilience.fallback.restored") == 1.0
        assert {i: node.platform.core_point(i)
                for i in adopted_points} == adopted_points
        assert record.state is EOPState.ADOPTED
        # A stale demotion is not a strike against the component.
        assert record.demotions == 0

    def test_engage_is_idempotent(self):
        node = self._stale_node()
        node.healthlog.stalled = True
        node.clock.advance_by(200.0)
        node.governor.step()
        node.governor.step()
        node.clock.advance_by(60.0)
        node.governor.step()
        assert node.runtime.metrics.counter("resilience.fallback.engaged") == 1.0
        assert node.runtime.metrics.counter("resilience.fallback.restored") == 0.0

    def test_restore_is_idempotent(self):
        """Satellite regression: restoring twice must not double-count
        the metric or re-apply already-active points."""
        node = self._stale_node()
        node.healthlog.stalled = True
        node.clock.advance_by(200.0)
        node.governor.step()
        node.healthlog.stalled = False
        node.clock.advance_by(node.healthlog.config.sampling_period_s + 1)
        node.governor.step()
        restored_points = {
            c.core_id: node.platform.core_point(c.core_id)
            for c in node.platform.chip.cores
        }
        promoted = node.runtime.metrics.counter("eop.promoted")
        # Second (and third) review with fresh telemetry: no-ops.
        node.governor.step()
        node.governor._review_stale_fallback(node.clock.now)
        assert node.runtime.metrics.counter("resilience.fallback.restored") == 1.0
        assert node.runtime.metrics.counter("eop.promoted") == promoted
        assert {c.core_id: node.platform.core_point(c.core_id)
                for c in node.platform.chip.cores} == restored_points


class TestPersistence:
    def test_state_dict_round_trip(self):
        policy = EOPPolicy.adopt_within_budget().with_overrides(
            error_budget=3)
        node = make_node(policy=policy, error_threshold=100)
        storm(node, "core2", 3)
        node.governor.step()
        state = node.governor.state_dict()
        twin = UniServerNode(seed=3, eop_policy=policy)
        twin.pre_deploy()
        twin.deploy()
        twin.governor.load_state_dict(state)
        assert twin.governor.counts() == node.governor.counts()
        assert twin.governor.state_table() == node.governor.state_table()
        record = twin.governor.record("core2")
        assert record.state is EOPState.DEMOTED
        assert record.saved_point == \
            node.governor.record("core2").saved_point

    def test_campaign_config_round_trip(self):
        config = EOPCampaignConfig(
            duration_s=600.0, step_s=30.0, seed=5, policy="aggressive",
            injections=(ErrorInjection("core1", 60.0, 120.0, 0.5),))
        state = config.as_dict()
        assert state["injections"][0]["component"] == "core1"
        assert config.build_policy().name == "aggressive"

    def test_injection_cumulative_counts(self):
        injection = ErrorInjection("core1", 100.0, 60.0, 0.5)
        assert injection.errors_before(100.0) == 0
        assert injection.errors_before(130.0) == 15
        assert injection.errors_before(160.0) == 30
        assert injection.errors_before(1000.0) == 30
        parsed = ErrorInjection.parse("core1:100:60:0.5")
        assert parsed == injection
        with pytest.raises(ConfigurationError):
            ErrorInjection.parse("core1:100:60")


class TestChaosWedge:
    def test_chaos_engine_wedges_governor(self):
        from repro.cloudmgr.node import build_rack
        from repro.core.clock import SimClock
        from repro.resilience.chaos import (
            ChaosEngine,
            FaultKind,
            FaultPlan,
            FaultSpec,
        )

        clock = SimClock()
        nodes = build_rack(2, clock=clock, seed=0)
        plan = FaultPlan([FaultSpec(kind=FaultKind.EOP_GOVERNOR_WEDGE,
                                    node="node0", start_s=100.0,
                                    duration_s=200.0)])
        engine = ChaosEngine(plan)
        engine.apply(nodes, now=150.0)
        assert nodes[0].governor.wedged
        assert not nodes[1].governor.wedged
        assert engine.injections["eop_governor_wedge"] == 1
        engine.apply(nodes, now=400.0)
        assert not nodes[0].governor.wedged


def make_tiered_node(seed=3):
    """A deployed node on tiered memory under the tiered EOP policy."""
    from repro.hardware.chip import ChipModel, arm_server_soc_spec
    from repro.hardware.dram import tiered_server_memory
    from repro.hardware.platform import ServerPlatform

    platform = ServerPlatform(
        ChipModel(arm_server_soc_spec(), seed=seed),
        tiered_server_memory(seed=seed + 7), name=f"tiered{seed}")
    node = UniServerNode(
        platform=platform, seed=seed, eop_policy=EOPPolicy.tiered(),
        healthlog_config=HealthLogConfig(error_threshold=1000))
    node.pre_deploy()
    node.deploy()
    return node


class TestTierStances:
    def test_round_trip(self):
        from repro.eop import TierStance
        stance = TierStance(tier="normal", error_budget=5,
                            max_refresh_interval_s=1.5)
        assert TierStance.from_dict(stance.as_dict()) == stance
        policy = EOPPolicy.tiered()
        assert EOPPolicy.from_dict(policy.as_dict()) == policy
        assert EOPPolicy.from_name("tiered") == policy

    def test_validation(self):
        from repro.eop import TierStance
        with pytest.raises(ConfigurationError):
            TierStance(tier="medium")
        with pytest.raises(ConfigurationError):
            TierStance(tier="normal", error_budget=0)
        with pytest.raises(ConfigurationError):
            TierStance(tier="normal", error_window_s=0.0)
        with pytest.raises(ConfigurationError):
            TierStance(tier="normal", max_refresh_interval_s=-1.0)
        with pytest.raises(ConfigurationError):
            EOPPolicy(name="dup", tier_stances=(
                TierStance(tier="normal"), TierStance(tier="normal")))

    def test_stance_lookup(self):
        policy = EOPPolicy.tiered()
        assert policy.stance_for("strong").adopt is False
        assert policy.stance_for("normal").max_refresh_interval_s == 1.5
        assert EOPPolicy.adopt_within_budget().stance_for("normal") is None


class TestTieredGovernor:
    def test_strong_pinned_normal_clamped(self):
        node = make_tiered_node()
        memory = node.platform.memory
        # The reliable strong-tier domain is never offered a margin, so
        # it either has no record or was left un-adopted — and its
        # refresh never moves off nominal either way.
        strong = node.governor.record("channel0")
        assert strong is None or strong.state is not EOPState.ADOPTED
        assert memory.domain("channel0").refresh_interval_s <= 0.064
        # The normal tier adopts but its refresh is clamped at the cap.
        normal = node.governor.record("channel1")
        assert normal is not None and normal.state is EOPState.ADOPTED
        assert memory.domain("channel1").refresh_interval_s <= 1.5

    def test_storm_demotes_only_its_tier(self):
        node = make_tiered_node()
        storm(node, "channel3", 25)  # over the relaxed budget of 20
        node.governor.step()
        events = node.governor.tier_demotion_events
        assert len(events) == 1
        assert events[0]["tier"] == "relaxed"
        assert sorted(events[0]["components"]) == ["channel2", "channel3"]
        for name in ("channel2", "channel3"):
            assert node.governor.record(name).state is EOPState.DEMOTED
        assert node.governor.record("channel1").state is EOPState.ADOPTED

    def test_under_budget_storm_leaves_tier_adopted(self):
        node = make_tiered_node()
        storm(node, "channel3", 10)  # under the relaxed budget of 20
        node.governor.step()
        assert node.governor.tier_demotion_events == []
        for name in ("channel2", "channel3"):
            assert node.governor.record(name).state is EOPState.ADOPTED

    def test_tier_demotion_events_persist(self):
        node = make_tiered_node()
        storm(node, "channel2", 25)
        node.governor.step()
        state = node.governor.state_dict()
        fresh = make_tiered_node(seed=9)
        fresh.governor.load_state_dict(state)
        assert (fresh.governor.tier_demotion_events
                == node.governor.tier_demotion_events)
