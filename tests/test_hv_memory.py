"""Tests for hypervisor memory accounting and reliable-domain placement."""

import numpy as np
import pytest

from repro.core.exceptions import ConfigurationError
from repro.hardware import standard_server_memory
from repro.hypervisor.memory import (
    HYPERVISOR_BASE_MB,
    HYPERVISOR_PER_VM_MB,
    FootprintSample,
    PlacementPolicy,
    hypervisor_footprint_mb,
)


class TestAccountant:
    def test_footprint_grows_per_vm(self):
        assert hypervisor_footprint_mb(0) == HYPERVISOR_BASE_MB == 200.0
        assert hypervisor_footprint_mb(4) == 360.0
        assert (hypervisor_footprint_mb(5) - hypervisor_footprint_mb(4)
                == HYPERVISOR_PER_VM_MB)

    def test_fraction_computation(self):
        sample = FootprintSample(timestamp=0.0, hypervisor_mb=100.0,
                                 vm_mb=400.0, application_mb=500.0)
        assert sample.hypervisor_fraction == pytest.approx(0.1)
        assert sample.total_mb == 1000.0

    def test_negative_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            hypervisor_footprint_mb(-1)


class TestPlacement:
    @pytest.fixture
    def memory(self):
        return standard_server_memory(n_channels=4, dimm_gb=8.0, seed=2)

    def test_critical_goes_to_reliable_domain(self, memory):
        policy = PlacementPolicy(memory)
        allocation = policy.place("hypervisor", 400.0, critical=True)
        assert allocation.domain == "channel0"
        assert policy.critical_exposure_mb() == 0.0

    def test_vm_memory_avoids_reliable_domain(self, memory):
        policy = PlacementPolicy(memory)
        for i in range(6):
            allocation = policy.place(f"vm{i}", 1000.0)
            assert allocation.domain != "channel0"

    def test_disabled_policy_exposes_critical_state(self, memory):
        """The A3 ablation configuration."""
        policy = PlacementPolicy(memory, use_reliable_domain=False)
        policy.place("hypervisor", 400.0, critical=True)
        memory.relax_all(1.5, keep_reliable_nominal=False)
        assert policy.critical_exposure_mb() > 0.0

    def test_release_frees_allocations(self, memory):
        policy = PlacementPolicy(memory)
        policy.place("vm0", 1000.0)
        policy.place("vm0", 500.0)
        assert policy.release("vm0") == 2
        assert policy.allocations == []

    def test_out_of_memory_rejected(self, memory):
        policy = PlacementPolicy(memory)
        with pytest.raises(ConfigurationError):
            policy.place("huge", 64 * 1024.0)  # 64 GB > any domain

    def test_spreads_to_emptiest_domain(self, memory):
        policy = PlacementPolicy(memory)
        first = policy.place("vm0", 4000.0)
        second = policy.place("vm1", 4000.0)
        assert first.domain != second.domain

    def test_error_hit_probability_tracks_critical_share(self, memory):
        policy = PlacementPolicy(memory, use_reliable_domain=False)
        policy.place("hypervisor", 1000.0, critical=True)
        domain = policy.allocations[0].domain
        rng = np.random.default_rng(0)
        hits = sum(policy.error_hits_critical(domain, rng)
                   for _ in range(500))
        assert hits == 500  # only critical data in the domain

    def test_error_hit_probability_at_a_fractional_share(self, memory):
        policy = PlacementPolicy(memory, use_reliable_domain=False)
        policy.place("hypervisor", 1000.0, critical=True)
        for i in range(3):   # one per remaining channel
            policy.place(f"vm{i}", 1000.0)
        policy.place("vm3", 3000.0)   # back beside the hypervisor
        domain = policy.allocations[0].domain
        assert policy.allocations[-1].domain == domain
        assert policy.critical_share(domain) == 0.25
        rng = np.random.default_rng(0)
        hits = sum(policy.error_hits_critical(domain, rng)
                   for _ in range(4000))
        # One uniform per call against the 1000/4000 critical share.
        expected = int((np.random.default_rng(0).random(4000) < 0.25).sum())
        assert hits == expected
        assert 900 < hits < 1100

    def test_error_in_unused_domain_is_harmless(self, memory):
        policy = PlacementPolicy(memory)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert policy.critical_share("channel2") is None
        assert policy.error_hits_critical("channel2", rng) is False
        assert rng.bit_generator.state == state   # nothing drawn

    def test_zero_size_rejected(self, memory):
        with pytest.raises(ConfigurationError):
            PlacementPolicy(memory).place("x", 0.0)


class TestTieredPlacement:
    @pytest.fixture
    def tiered(self):
        from repro.hardware import tiered_server_memory
        return tiered_server_memory(seed=7)

    def test_classes_land_on_their_tiers(self, tiered):
        from repro.hypervisor.memory import (
            CLASS_APPLICATION,
            CLASS_HYPERVISOR,
            CLASS_VM_CRITICAL,
            CLASS_VM_DATA,
        )
        policy = PlacementPolicy(tiered)
        expect = {
            CLASS_HYPERVISOR: "strong",
            CLASS_VM_CRITICAL: "normal",
            CLASS_VM_DATA: "relaxed",
            CLASS_APPLICATION: "relaxed",
        }
        for cls, tier in expect.items():
            allocation = policy.place("owner", 64.0, placement_class=cls)
            assert allocation.tier == tier, cls
        assert policy.spilled_mb() == 0.0

    def test_full_tier_spills_critical_upward(self, tiered):
        from repro.hypervisor.memory import CLASS_VM_CRITICAL
        policy = PlacementPolicy(tiered)
        normal_mb = tiered.tier_capacity_gb()["normal"] * 1024.0
        policy.place("filler", normal_mb,
                     placement_class=CLASS_VM_CRITICAL)
        spilled = policy.place("vm1", 128.0,
                               placement_class=CLASS_VM_CRITICAL)
        # The normal tier is full: critical pages spill *up* to strong,
        # never down to relaxed.
        assert spilled.tier == "strong"
        assert policy.spilled_mb() == pytest.approx(128.0)

    def test_exposure_by_tier_counts_vm_critical(self, tiered):
        from repro.hypervisor.memory import (
            CLASS_VM_CRITICAL,
            CLASS_VM_DATA,
        )
        policy = PlacementPolicy(tiered)
        policy.place("hv", 200.0, critical=True)
        policy.place("vm0", 50.0, placement_class=CLASS_VM_CRITICAL)
        policy.place("vm0", 500.0, placement_class=CLASS_VM_DATA)
        exposure = policy.exposure_by_tier()
        assert exposure["strong"] == pytest.approx(200.0)
        assert exposure["normal"] == pytest.approx(50.0)
        assert exposure["relaxed"] == 0.0
        usage = policy.tier_usage_mb()
        assert usage["relaxed"] == pytest.approx(500.0)
        classes = policy.class_usage_mb()
        assert classes[CLASS_VM_DATA] == pytest.approx(500.0)

    def test_classifier_validation(self):
        from repro.hypervisor.memory import (
            CLASS_HYPERVISOR,
            TierClassifier,
        )
        with pytest.raises(ConfigurationError):
            TierClassifier(tier_map={CLASS_HYPERVISOR: "strong"})
        with pytest.raises(ConfigurationError):
            TierClassifier().classify("scratch")

    def test_state_round_trip_keeps_tiers(self, tiered):
        from repro.hypervisor.memory import CLASS_VM_CRITICAL
        policy = PlacementPolicy(tiered)
        policy.place("hv", 100.0, critical=True)
        policy.place("vm0", 64.0, placement_class=CLASS_VM_CRITICAL)
        restored = PlacementPolicy(tiered)
        restored.load_state_dict(policy.state_dict())
        assert restored.state_dict() == policy.state_dict()
        assert restored.exposure_by_tier() == policy.exposure_by_tier()

    def test_legacy_rows_reconstruct_tier(self, tiered):
        policy = PlacementPolicy(tiered)
        policy.load_state_dict({
            "allocations": [["hv", 100.0, "channel0", True]],
        })
        allocation = policy.allocations[0]
        assert allocation.placement_class == "hypervisor"
        assert allocation.tier == "strong"


class TestNoReliableDomainPlacement:
    def test_critical_placement_survives_without_reliable_domain(self):
        memory = standard_server_memory(reliable_channel=None, seed=3)
        policy = PlacementPolicy(memory)
        allocation = policy.place("kernel", 100.0, critical=True)
        # No strong tier exists: the hypervisor allocation spills to
        # whatever is available instead of crashing on a None domain.
        assert allocation.tier == "relaxed"
        assert policy.spilled_mb() == pytest.approx(100.0)
        memory.relax_all(5.0)
        assert policy.critical_exposure_mb() == pytest.approx(100.0)
